package cdn

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/clockx"
	"clientmap/internal/netx"
	"clientmap/internal/traffic"
	"clientmap/internal/world"
)

// collectSprintf is Collect as it stood before the reused count stream:
// one CountInD per sample with a fmt.Sprintf key, and a fresh routing
// call per Google-bound prefix. Collect must reproduce it exactly.
func collectSprintf(model *traffic.Model, day time.Time) *Datasets {
	w := model.W
	clients := &Clients{Volume: make(map[netx.Slash24]int64)}
	resolvers := &Resolvers{ClientIPs: make(map[netx.Addr]int64)}
	ecs := &ECSPrefixes{Queries: make(map[netx.Prefix]int64)}
	msft := microsoftDomain()
	for i := range w.Prefixes {
		pi := &w.Prefixes[i]
		if !pi.HasClients() {
			continue
		}
		as := w.ASes[pi.ASIdx]
		reqs := model.CountInD(fmt.Sprintf("cdn/http/%v", pi.P), model.HTTPRate(pi), pi.Coord.Lon, float64(pi.Diurnality), day, 24*time.Hour)
		if reqs > 0 {
			clients.Volume[pi.P] += int64(reqs)
			clients.Total += int64(reqs)
			ips := observedClientIPs(pi)
			googleIPs := int64(math.Round(float64(ips) * as.GoogleDNSShare))
			ispIPs := ips - googleIPs
			if pi.ResolverIdx >= 0 && ispIPs > 0 {
				addr := w.Resolvers[pi.ResolverIdx].Addr
				resolvers.ClientIPs[addr] += ispIPs
				resolvers.Total += ispIPs
			}
			if googleIPs > 0 {
				pop := model.Router.PoPForClient(pi.P, pi.Coord)
				resolvers.ClientIPs[w.GoogleEgress(pop)] += googleIPs
				resolvers.Total += googleIPs
			}
		}
		gq := model.CountInD(fmt.Sprintf("cdn/ecs/%v", pi.P), model.GoogleDNSRate(pi, msft), pi.Coord.Lon, float64(pi.Diurnality), day, 24*time.Hour)
		if gq > 0 {
			ecs.Queries[pi.P.Prefix()] += int64(gq)
			ecs.Total += int64(gq)
		}
	}
	return &Datasets{Clients: clients, Resolvers: resolvers, ECS: ecs, Day: day}
}

// TestCollectMatchesSprintfKeys holds CountInDR to its contract on the
// CDN datasets: every volume, resolver count and ECS count is
// bit-identical to the per-call CountInD collection, on a fresh model
// and on one whose route memo was already warm.
func TestCollectMatchesSprintfKeys(t *testing.T) {
	w, err := world.Generate(world.Config{Seed: 2021, Scale: world.ScaleSmall, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	model := traffic.NewModel(w, anycast.NewRouter(2021, anycast.Catalog()), traffic.DefaultTunables())
	want := collectSprintf(model, clockx.Epoch)
	if want.Clients.Total == 0 || want.Resolvers.Total == 0 || want.ECS.Total == 0 {
		t.Fatal("reference collection is empty")
	}
	for pass := 0; pass < 2; pass++ {
		if got := Collect(model, clockx.Epoch); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: Collect differs from the Sprintf-keyed collection", pass)
		}
	}
}

// BenchmarkCollect reports one day's collection over a tiny world with
// a warm route memo.
func BenchmarkCollect(b *testing.B) {
	w, err := world.Generate(world.Config{Seed: 61, Scale: world.ScaleTiny, Params: world.DefaultParams()})
	if err != nil {
		b.Fatal(err)
	}
	model := traffic.NewModel(w, anycast.NewRouter(61, anycast.Catalog()), traffic.DefaultTunables())
	Collect(model, clockx.Epoch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Collect(model, clockx.Epoch)
	}
}
