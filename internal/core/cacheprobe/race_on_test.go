//go:build race

package cacheprobe_test

// raceEnabled reports a -race build: the race runtime drops sync.Pool
// entries at random, so pooled buffers are re-allocated and heap gates
// measure the detector, not the code.
const raceEnabled = true
