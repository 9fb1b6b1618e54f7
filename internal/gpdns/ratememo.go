package gpdns

import (
	"sync"
	"sync/atomic"

	"clientmap/internal/netx"
)

// rateMemo is LazyFill's (domain, scope) → rate-line memo. Every probe
// reads it and, after the first pass, nearly every read is a hit, so the
// read path writes nothing: not a lock word, not a reader count. Lines
// live in open-addressed tables of atomic pointers that lookups load
// without locking. Inserts take the lock of one of 64 padded shards,
// place the line in a free slot (an atomic store), or publish a doubled
// copy of the shard's table when it would pass three-quarters full. A
// lookup racing an insert either sees the new line or falls through to
// the insert path, which finds it under the lock.
type rateMemo [rateShards]rateShard

// rateShards is the number of memo shards (a power of two); the low bits
// of a key's hash pick the shard, the bits above them the slot.
const (
	rateShards    = 64
	rateShardBits = 6
)

// rateShard is one shard of the memo, padded so that the words of
// neighbouring shards never share a cache line.
type rateShard struct {
	mu  sync.Mutex // serializes inserts; lookups never take it
	tab atomic.Pointer[rateTable]
	n   int // lines in tab, guarded by mu
	_   [64]byte
}

// rateTable is a linear-probing table whose length is a power of two. A
// nil slot ends a probe sequence; the table always keeps one.
type rateTable []atomic.Pointer[scopeRates]

// rateKey packs a (catalog index, scope) pair into a memo key.
func rateKey(domain int, scope netx.Prefix) uint64 {
	return uint64(domain)<<40 | uint64(scope.Addr())<<8 | uint64(scope.Bits())
}

// rateHash is the splitmix64 finalizer: every output bit depends on every
// key bit, so both the shard and the slot bits are well mixed.
func rateHash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	return k ^ k>>31
}

func (t rateTable) find(key, h uint64) *scopeRates {
	mask := uint64(len(t) - 1)
	for i := h >> rateShardBits & mask; ; i = (i + 1) & mask {
		r := t[i].Load()
		if r == nil || r.key == key {
			return r
		}
	}
}

func (t rateTable) place(r *scopeRates, h uint64) {
	mask := uint64(len(t) - 1)
	i := h >> rateShardBits & mask
	for t[i].Load() != nil {
		i = (i + 1) & mask
	}
	t[i].Store(r)
}

// get returns the line for key, or nil. It only reads shared memory.
func (m *rateMemo) get(key uint64) *scopeRates {
	h := rateHash(key)
	return (*m[h&(rateShards-1)].tab.Load()).find(key, h)
}

// getOrBuild returns the line for key, building and inserting it under
// the shard lock when no line exists, so concurrent first touches of one
// line build it once and share the instance.
func (m *rateMemo) getOrBuild(key uint64, build func() *scopeRates) *scopeRates {
	h := rateHash(key)
	sh := &m[h&(rateShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := *sh.tab.Load()
	if r := t.find(key, h); r != nil {
		return r
	}
	r := build()
	r.key = key
	if 4*(sh.n+1) > 3*len(t) {
		grown := make(rateTable, 2*len(t))
		for i := range t {
			if old := t[i].Load(); old != nil {
				grown.place(old, rateHash(old.key))
			}
		}
		grown.place(r, h)
		sh.tab.Store(&grown)
	} else {
		t.place(r, h)
	}
	sh.n++
	return r
}

// reset drops every line.
func (m *rateMemo) reset() {
	for i := range m {
		sh := &m[i]
		sh.mu.Lock()
		t := make(rateTable, 8)
		sh.tab.Store(&t)
		sh.n = 0
		sh.mu.Unlock()
	}
}
