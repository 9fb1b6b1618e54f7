package traffic

import (
	"fmt"
	"math"
	"testing"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/domains"
)

// TestCountInDRMatchesCountInD pins the reseeded byte-key sampler against
// the string-key original: the roots generator switched to CountInDR for
// speed, and any drift here would silently regenerate different traces
// for the same seed.
func TestCountInDRMatchesCountInD(t *testing.T) {
	m := testModel(t)
	r := m.seed.New("scratch")
	start := clockx.Epoch
	keys := []string{"roots/chromium/0", "roots/junk/41", "x/y/z"}
	for _, key := range keys {
		for h := 0; h < 8; h++ {
			at := start.Add(time.Duration(h) * time.Hour)
			for _, rate := range []float64{0, 0.01, 0.5, 20} {
				want := m.CountInD(key, rate, -74, 1, at, time.Hour)
				got := m.CountInDR(r, []byte(key), rate, -74, 1, at, time.Hour)
				if got != want {
					t.Fatalf("key %q hour %d rate %v: CountInDR = %d, CountInD = %d",
						key, h, rate, got, want)
				}
			}
		}
	}
}

// TestAffinityMatchesStringKeys re-derives the popularity multiplier
// through the Sprintf/concatenation keys affinity used before the
// zero-alloc rewrite: any drift changes every prefix's per-domain query
// rate and with it every lazily filled cache line.
func TestAffinityMatchesStringKeys(t *testing.T) {
	m := testModel(t)
	pi := activePrefix(t, m)
	for _, d := range domains.Catalog() {
		v := d.AffinityVar
		if v == 0 {
			v = 1
		}
		as := m.W.ASes[pi.ASIdx]
		asKey := fmt.Sprintf("traffic/asaffinity/%d/%s", as.ASN, d.Name)
		zAS := (m.seed.HashUnit(asKey+"/1") + m.seed.HashUnit(asKey+"/2") +
			m.seed.HashUnit(asKey+"/3") + m.seed.HashUnit(asKey+"/4") - 2.0) * math.Sqrt(3)
		pKey := "traffic/affinity/" + pi.P.String() + "/" + d.Name
		zP := (m.seed.HashUnit(pKey+"/1") + m.seed.HashUnit(pKey+"/2") +
			m.seed.HashUnit(pKey+"/3") + m.seed.HashUnit(pKey+"/4") - 2.0) * math.Sqrt(3)
		want := math.Exp(v * (1.3*zAS + 0.9*zP - 1.25*v))
		if want > 30 {
			want = 30
		}
		if got := m.affinity(pi, d); got != want {
			t.Errorf("%s: affinity = %v, string-key derivation = %v", d.Name, got, want)
		}
	}
}

// TestLastEventBeforeDBMatchesString pins the byte-key cache-fill sampler
// against the string variant for the same inputs.
func TestLastEventBeforeDBMatchesString(t *testing.T) {
	m := testModel(t)
	at := clockx.Epoch.Add(30 * time.Hour)
	keys := []string{"gpdns/www.wikipedia.org/10.0.0.0/16/3/1", "a", ""}
	for _, key := range keys {
		for _, rate := range []float64{0.001, 0.2, 5} {
			wantT, wantOK := m.LastEventBeforeD(key, rate, 139, 0.7, at, 5*time.Minute)
			gotT, gotOK := m.LastEventBeforeDB([]byte(key), rate, 139, 0.7, at, 5*time.Minute)
			if gotOK != wantOK || !gotT.Equal(wantT) {
				t.Fatalf("key %q rate %v: byte variant (%v,%v) != string variant (%v,%v)",
					key, rate, gotT, gotOK, wantT, wantOK)
			}
		}
	}
}

// TestLastEventBeforeMidMatchesStringKeys re-derives the cache-fill
// sampler from its string hash keys "traffic/ev/<key>/<bucket>" and
// "traffic/evt/<key>/<bucket>", and requires the midstate path — whole
// key through EventMids, or a prefix's midstates continued with the
// rest — to give the same answer.
func TestLastEventBeforeMidMatchesStringKeys(t *testing.T) {
	m := testModel(t)
	window := 5 * time.Minute
	ref := func(key string, rate float64, at time.Time) (time.Time, bool) {
		bucket := at.UnixNano() / int64(window)
		for _, b := range [2]int64{bucket, bucket - 1} {
			bStart := time.Unix(0, b*int64(window))
			mean := rate * window.Seconds() * DiurnalWeighted(bStart.Add(window/2), 139, 0.7)
			if m.seed.HashUnit(fmt.Sprintf("traffic/ev/%s/%d", key, b)) >= 1-math.Exp(-mean) {
				continue
			}
			ev := bStart.Add(time.Duration(m.seed.HashUnit(fmt.Sprintf("traffic/evt/%s/%d", key, b)) * float64(window)))
			if b == bucket && ev.After(at) {
				continue
			}
			if !ev.Before(at.Add(-window)) {
				return ev, true
			}
		}
		return time.Time{}, false
	}
	const prefix = "gpdns/www.wikipedia.org/"
	pev, pevt := m.EventMids([]byte(prefix))
	hits := 0
	for i := 0; i < 400; i++ {
		at := clockx.Epoch.Add(time.Duration(i) * 7919 * time.Second)
		rest := fmt.Sprintf("10.%d.0.0/16/%d/%d", i%256, i%13, i%4)
		rate := []float64{0.0005, 0.01, 0.2, 5}[i%4]
		wantT, wantOK := ref(prefix+rest, rate, at)
		ev, evt := m.EventMids([]byte(prefix + rest))
		gotT, gotOK := m.LastEventBeforeMid(ev, evt, rate, 139, 0.7, at, window)
		if gotOK != wantOK || !gotT.Equal(wantT) {
			t.Fatalf("%s at %v: EventMids path (%v,%v), string keys (%v,%v)", prefix+rest, at, gotT, gotOK, wantT, wantOK)
		}
		gotT, gotOK = m.LastEventBeforeMid(pev.String(rest), pevt.String(rest), rate, 139, 0.7, at, window)
		if gotOK != wantOK || !gotT.Equal(wantT) {
			t.Fatalf("%s at %v: prefix midstates (%v,%v), string keys (%v,%v)", prefix+rest, at, gotT, gotOK, wantT, wantOK)
		}
		if wantOK {
			hits++
		}
	}
	if hits == 0 || hits == 400 {
		t.Fatalf("%d of 400 samples saw an event; the check needs both outcomes", hits)
	}
}
