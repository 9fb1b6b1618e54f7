package traffic

import (
	"sync"
	"testing"

	"clientmap/internal/anycast"
	"clientmap/internal/churn"
	"clientmap/internal/world"
)

func smallModel(t testing.TB) *Model {
	t.Helper()
	w, err := world.Generate(world.Config{Seed: 2021, Scale: world.ScaleSmall, Params: world.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(w, anycast.NewRouter(2021, anycast.Catalog()), DefaultTunables())
}

// checkRoutes holds the route memo to its definition on every prefix.
func checkRoutes(t *testing.T, m *Model, when string) {
	t.Helper()
	for i := range m.W.Prefixes {
		pi := &m.W.Prefixes[i]
		if got, want := m.ClientPoP(i), m.Router.PoPForClient(pi.P, pi.Coord); got != want {
			t.Fatalf("%s: ClientPoP(%d) for %v = %d, PoPForClient routes to %d", when, i, pi.P, got, want)
		}
	}
}

// TestClientPoPSurvivesChurn checks the invariant the route memo rests
// on: the memoized PoP of every small-world prefix equals a fresh
// PoPForClient call, both before churn and after a plan containing
// every event kind has been applied to the world the memo was filled
// from.
func TestClientPoPSurvivesChurn(t *testing.T) {
	m := smallModel(t)
	checkRoutes(t, m, "before churn")

	cfg, err := churn.Parse("realloc=40@2h,drift=0.3@3h,diurnal=0.5@2h,pop=fra@1h+3h,chromium=off@4h")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = m.W.Cfg.Seed
	plan := cfg.Plan(8, m.W)
	kinds := map[churn.Kind]int{}
	for _, ev := range plan {
		cfg.Apply(ev, m.W)
		kinds[ev.Kind]++
	}
	for _, k := range []churn.Kind{churn.KindRealloc, churn.KindDrift, churn.KindDiurnal,
		churn.KindPoPWithdraw, churn.KindPoPAnnounce, churn.KindChromiumOff} {
		if kinds[k] == 0 {
			t.Fatalf("plan has no %s event: %v", k, kinds)
		}
	}
	checkRoutes(t, m, "after churn")
}

// TestClientPoPConcurrentFirstTouch races first calls for the same
// prefixes from several goroutines (run under -race by make check):
// every caller must see the routed PoP, whichever of them filled the
// slot.
func TestClientPoPConcurrentFirstTouch(t *testing.T) {
	m := testModel(t)
	const workers = 4
	got := make([][]int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, len(m.W.Prefixes))
			for i := range out {
				// Alternate directions so goroutines collide on first
				// touches from both ends of the table.
				j := i
				if g%2 == 1 {
					j = len(out) - 1 - i
				}
				out[j] = m.ClientPoP(j)
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for i := range m.W.Prefixes {
		pi := &m.W.Prefixes[i]
		want := m.Router.PoPForClient(pi.P, pi.Coord)
		for g := 0; g < workers; g++ {
			if got[g][i] != want {
				t.Fatalf("goroutine %d: ClientPoP(%d) = %d, want %d", g, i, got[g][i], want)
			}
		}
	}
}
