package metrics

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", []int64{1, 2})
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must discard")
	}
	if led := reg.Snapshot(); led != nil {
		t.Errorf("nil registry snapshot = %v, want nil", led)
	}
	var tr *Trace
	tr.Emit(Span{Stage: "x"})
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil trace must discard")
	}
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("probes")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Errorf("counter = %d, want 10", got)
	}
	if reg.Counter("probes") != c {
		t.Error("re-resolving a counter must return the same handle")
	}
	g := reg.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	if reg.Gauge("depth") != g {
		t.Error("re-resolving a gauge must return the same handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []int64{10, 100})
	if reg.Histogram("lat", []int64{999}) != h {
		t.Error("re-resolving a histogram must return the same handle")
	}
	for _, v := range []int64{0, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0+10+11+100+101+5000 {
		t.Errorf("sum = %d", h.Sum())
	}
	led := reg.Snapshot()
	want := Ledger{
		"lat/le=10":  2, // 0, 10
		"lat/le=100": 2, // 11, 100
		"lat/le=inf": 2, // 101, 5000
		"lat/count":  6,
		"lat/sum":    5222,
	}
	if !reflect.DeepEqual(led, want) {
		t.Errorf("snapshot = %v, want %v", led, want)
	}
}

func TestSnapshotPrefix(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cacheprobe/probes").Add(3)
	reg.Counter("gpdns/queries").Add(7)
	reg.Counter("other/x").Add(1)
	led := reg.SnapshotPrefix("cacheprobe/", "gpdns/")
	want := Ledger{"cacheprobe/probes": 3, "gpdns/queries": 7}
	if !reflect.DeepEqual(led, want) {
		t.Errorf("prefix snapshot = %v, want %v", led, want)
	}
}

// TestSnapshotDeltaFold exercises the stage-fold pattern: snapshot before,
// fold the delta after — twice — and demand the folded ledger equals a
// single snapshot of everything.
func TestSnapshotDeltaFold(t *testing.T) {
	reg := NewRegistry()
	folded := Ledger{}
	for stage := 0; stage < 2; stage++ {
		before := reg.Snapshot()
		reg.Counter("probes").Add(int64(10 * (stage + 1)))
		reg.Counter("idle") // touched but never incremented
		folded.Merge(reg.Snapshot().Sub(before))
	}
	if !reflect.DeepEqual(folded, reg.Snapshot()) {
		t.Errorf("folded deltas %v != final snapshot %v", folded, reg.Snapshot())
	}
	if v, ok := folded["idle"]; !ok || v != 0 {
		t.Errorf("zero-delta key not preserved: %v", folded)
	}
}

func TestLedgerOps(t *testing.T) {
	l := Ledger{"a": 5, "b": 2}
	c := l.Clone()
	c["a"] = 99
	if l["a"] != 5 {
		t.Error("Clone must copy")
	}
	d := Ledger{"a": 7, "b": 2}.Sub(l)
	if !reflect.DeepEqual(d, Ledger{"a": 2, "b": 0}) {
		t.Errorf("Sub = %v", d)
	}
	l.Merge(Ledger{"b": 3, "c": 4})
	if !reflect.DeepEqual(l, Ledger{"a": 5, "b": 5, "c": 4}) {
		t.Errorf("Merge = %v", l)
	}
	if l.Get("c") != 4 || l.Get("missing") != 0 {
		t.Error("Get")
	}
	if got := l.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v", got)
	}
}

func TestLedgerJSONDeterministic(t *testing.T) {
	a := Ledger{"z/count": 1, "a/probes": 2, "m/le=10": 3}
	b := Ledger{"m/le=10": 3, "a/probes": 2, "z/count": 1}
	aj, bj := a.JSON(), b.JSON()
	if !bytes.Equal(aj, bj) {
		t.Errorf("equal ledgers render differently:\n%s\n%s", aj, bj)
	}
	if aj[len(aj)-1] != '\n' {
		t.Error("JSON must end in a newline")
	}
	if nj := Ledger(nil).JSON(); string(nj) != "{}\n" {
		t.Errorf("nil ledger JSON = %q", nj)
	}
}

// TestConcurrentSums proves the order-independence claim: N goroutines
// hammering the same handles produce exact totals.
func TestConcurrentSums(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("n")
			h := reg.Histogram("h", []int64{500})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	led := reg.Snapshot()
	if led["n"] != 8000 || led["h/count"] != 8000 || led["h/le=500"] != 8*501 {
		t.Errorf("concurrent totals wrong: %v", led)
	}
}

// TestStripedCounterExact checks the striped counter under contention:
// many goroutines, at different stack depths (so their adds land on
// many stripes), add different amounts to one counter while a reader
// sums it; every read is monotone and the final total exact.
func TestStripedCounterExact(t *testing.T) {
	var c Counter
	const workers, adds = 64, 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last int64
		for last < workers*adds*(workers+1)/2 {
			v := c.Value()
			if v < last {
				t.Errorf("Value went backwards: %d after %d", v, last)
				return
			}
			last = v
		}
	}()
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			addAtDepth(&c, w%7*50, int64(w), adds)
		}(w)
	}
	wg.Wait()
	<-done
	if got, want := c.Value(), int64(workers*adds*(workers+1)/2); got != want {
		t.Fatalf("striped total %d, want %d", got, want)
	}
}

// addAtDepth adds n to c, adds times, from depth frames down the stack.
func addAtDepth(c *Counter, depth int, n int64, adds int) {
	if depth > 0 {
		var frame [64]byte // grows each frame, spreading the call depths
		addAtDepth(c, depth-1, n+int64(frame[depth%64]), adds)
		return
	}
	for i := 0; i < adds; i++ {
		c.Add(n)
	}
}

// TestStripeLayout pins what the stripes exist for: each one fills a
// cache line, and goroutines running at the same time spread over them.
func TestStripeLayout(t *testing.T) {
	if s := unsafe.Sizeof(stripe{}); s != 64 {
		t.Errorf("stripe is %d bytes, want one 64-byte cache line", s)
	}
	const goroutines = 8
	idx := make([]int, goroutines)
	var started, release sync.WaitGroup
	started.Add(goroutines)
	release.Add(1)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			idx[g] = stripeIndex()
			started.Done()
			release.Wait() // keep every stack live until all have picked
		}(g)
	}
	started.Wait()
	release.Done()
	distinct := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= counterStripes {
			t.Fatalf("stripeIndex = %d, want [0, %d)", i, counterStripes)
		}
		distinct[i] = true
	}
	if len(distinct) < 2 {
		t.Errorf("%d live goroutines all picked stripe %d", goroutines, idx[0])
	}
}

// BenchmarkCounterAddParallel adds to one counter from every CPU at once,
// the access pattern of the per-probe counters.
func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
