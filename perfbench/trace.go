package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// public function it calls. Parent is the ID of the span that caused it
// (0 for a root). Spans live in memory until writeFile.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation, in ns.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Bytes is how much a file read or write moved.
	Bytes int64 `json:"bytes,omitempty"`
	// Note names what the call worked on, such as the file written.
	Note string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans from any goroutine.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1024)} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endWith(id, 0) }

func (t *tracer) endWith(id int, bytes int64) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Bytes = now, bytes
}

func (t *tracer) note(id int, note string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Note = note
}

// do records f as a span named name under parent; f receives the span's
// ID so the calls it makes can hang their own spans below it.
func (t *tracer) do(name string, parent int, f func(id int)) {
	id := t.begin(name, parent)
	defer t.end(id)
	f(id)
}

// snapshot returns a copy of every finished span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanSet answers the per-layer questions over a finished trace.
type spanSet struct {
	all      []span
	children map[int][]span
}

func newSpanSet(spans []span) spanSet {
	ss := spanSet{all: spans, children: map[int][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], s)
		}
	}
	return ss
}

func (ss spanSet) named(name string) []span {
	var out []span
	for _, s := range ss.all {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (ss spanSet) self(s span) time.Duration {
	var kids []interval
	for _, c := range ss.children[s.ID] {
		kids = append(kids, interval{time.Unix(0, int64(c.Start)), time.Unix(0, int64(c.End))})
	}
	return selfTime(interval{time.Unix(0, int64(s.Start)), time.Unix(0, int64(s.End))}, kids)
}

// total sums the durations (or, with self, the self times) of every span
// with the given name, in seconds.
func (ss spanSet) total(name string, self bool) float64 {
	var d time.Duration
	for _, s := range ss.named(name) {
		if self {
			d += ss.self(s)
		} else {
			d += s.dur()
		}
	}
	return d.Seconds()
}

// durs lists the durations of every span with the name, in the given
// unit.
func (ss spanSet) durs(name string, unit time.Duration) dist {
	var xs []time.Duration
	for _, s := range ss.named(name) {
		xs = append(xs, s.dur())
	}
	return durDist(xs, unit)
}

func (ss spanSet) bytes(name string) int64 {
	var b int64
	for _, s := range ss.named(name) {
		b += s.Bytes
	}
	return b
}

// writeSpans writes the spans as JSON lines, start-ordered.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var b strings.Builder
	for _, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
