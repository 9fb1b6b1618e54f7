package cacheprobe

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fakeAssignments builds an assignment shape directly: taskCounts maps
// PoP name → task-list length. Task contents are irrelevant to the
// partitioner, which only reads the shape.
func fakeAssignments(taskCounts map[string]int) *Assignments {
	asg := &Assignments{}
	for pop := range taskCounts {
		asg.popNames = append(asg.popNames, pop)
	}
	// Mirror BuildAssignments' sorted-PoP invariant.
	for i := range asg.popNames {
		for j := i + 1; j < len(asg.popNames); j++ {
			if asg.popNames[j] < asg.popNames[i] {
				asg.popNames[i], asg.popNames[j] = asg.popNames[j], asg.popNames[i]
			}
		}
	}
	asg.tasks = make([][]probeTask, len(asg.popNames))
	for i, pop := range asg.popNames {
		asg.tasks[i] = make([]probeTask, taskCounts[pop])
	}
	return asg
}

// TestPartitionPassExactCoverage: for any shard count, the bins cover
// every (PoP, task) slot exactly once and nothing else.
func TestPartitionPassExactCoverage(t *testing.T) {
	asg := fakeAssignments(map[string]int{
		"ams": 17, "fra": 1, "iad": 64, "nrt": 5, "sin": 0, "syd": 23,
	})
	for _, shards := range []int{1, 2, 3, 8, 17, 100} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bins := PartitionPass(asg, 2, shards)
			if len(bins) != shards {
				t.Fatalf("got %d bins, want exactly %d", len(bins), shards)
			}
			covered := map[[2]int]int{}
			for _, bin := range bins {
				for _, u := range bin {
					if u.PoP != asg.popNames[u.PoPIndex] {
						t.Fatalf("unit PoP %q does not match popNames[%d]=%q", u.PoP, u.PoPIndex, asg.popNames[u.PoPIndex])
					}
					if u.Lo < 0 || u.Hi > len(asg.tasks[u.PoPIndex]) || u.Lo >= u.Hi {
						t.Fatalf("unit %+v out of bounds for %d tasks", u, len(asg.tasks[u.PoPIndex]))
					}
					for ti := u.Lo; ti < u.Hi; ti++ {
						covered[[2]int{u.PoPIndex, ti}]++
					}
				}
			}
			for pi := range asg.popNames {
				for ti := range asg.tasks[pi] {
					if got := covered[[2]int{pi, ti}]; got != 1 {
						t.Fatalf("task (%d,%d) covered %d times, want exactly once", pi, ti, got)
					}
				}
			}
			want := 0
			for pi := range asg.tasks {
				want += len(asg.tasks[pi])
			}
			if len(covered) != want {
				t.Fatalf("covered %d slots, want %d", len(covered), want)
			}
		})
	}
}

// TestPartitionPassDeterministic: the split is a pure function of
// (assignment shape, pass, shards).
func TestPartitionPassDeterministic(t *testing.T) {
	counts := map[string]int{"ams": 40, "fra": 12, "iad": 7}
	a := PartitionPass(fakeAssignments(counts), 3, 4)
	b := PartitionPass(fakeAssignments(counts), 3, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same inputs produced different partitions")
	}
	c := PartitionPass(fakeAssignments(counts), 4, 4)
	if reflect.DeepEqual(a, c) {
		t.Error("different passes produced identical partitions — the deal should rotate per pass")
	}
}

// TestPartitionPassSpreadsOnePoP: a single large PoP must split across
// bins rather than pile onto one runner.
func TestPartitionPassSpreadsOnePoP(t *testing.T) {
	bins := PartitionPass(fakeAssignments(map[string]int{"iad": 1000}), 0, 4)
	nonEmpty := 0
	for _, bin := range bins {
		if len(bin) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("1000 tasks of one PoP landed in %d bin(s), want them spread", nonEmpty)
	}
}

// TestPartitionPassDegenerate: zero-task assignments yield empty bins;
// shard counts below one clamp to a single bin.
func TestPartitionPassDegenerate(t *testing.T) {
	bins := PartitionPass(fakeAssignments(map[string]int{"ams": 0}), 0, 3)
	for i, bin := range bins {
		if len(bin) != 0 {
			t.Errorf("bin %d has %d units for an empty assignment", i, len(bin))
		}
	}
	bins = PartitionPass(fakeAssignments(map[string]int{"ams": 5}), 0, 0)
	if len(bins) != 1 {
		t.Fatalf("shards=0 produced %d bins, want clamp to 1", len(bins))
	}
	if got := len(bins[0]); got != 1 {
		t.Fatalf("clamped partition has %d units, want 1 covering the whole PoP", got)
	}
	if u := bins[0][0]; u.Lo != 0 || u.Hi != 5 {
		t.Errorf("clamped unit = %+v, want [0,5)", u)
	}
}

// gatherFixture is a prober and a three-PoP assignment shape (ams 17
// tasks, fra none, iad 9) for driving GatherPass with hand-built shard
// results. No PoP is calibrated and no health layer runs, so a valid
// gather folds empty outcomes.
func gatherFixture() (*Prober, *Assignments) {
	p := NewProber(Config{Passes: 4, Duration: 4 * time.Hour}, nil, Authoritative{})
	return p, fakeAssignments(map[string]int{"ams": 17, "fra": 0, "iad": 9})
}

// shardOf builds a shard result holding the given units, with one task
// entry per unit position in unit order — the layout ProbeShard emits.
// popIndex -> name comes from asg; units are given as {PoPIndex, Lo, Hi}.
func shardOf(asg *Assignments, pass int, units ...[3]int) *ShardResult {
	sr := &ShardResult{Pass: pass}
	for _, u := range units {
		name := "?"
		if u[0] < len(asg.popNames) {
			name = asg.popNames[u[0]]
		}
		sr.Units = append(sr.Units, ShardUnit{PoPIndex: u[0], PoP: name, Lo: u[1], Hi: u[2]})
		for ti := u[1]; ti < u[2]; ti++ {
			sr.Tasks = append(sr.Tasks, ShardTaskResult{PoPIndex: u[0], TaskIndex: ti})
		}
	}
	return sr
}

// TestGatherPassRejects pins GatherPass's rejection contract: the shards
// must be present, belong to the pass, and cover every task of the
// assignment exactly once. Each case names the error it must produce.
func TestGatherPassRejects(t *testing.T) {
	const pass = 2
	_, asg := gatherFixture()
	cases := []struct {
		name    string
		results []*ShardResult
		want    string // "" = accepted
	}{
		{"valid", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 9}, [3]int{2, 0, 9}),
			shardOf(asg, pass, [3]int{0, 9, 17}),
		}, ""},
		{"valid one shard", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}),
		}, ""},
		{"nil shard", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}), nil,
		}, "cacheprobe: gather pass 2: missing shard result"},
		{"wrong pass", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 9}, [3]int{2, 0, 9}),
			shardOf(asg, pass+1, [3]int{0, 9, 17}),
		}, "cacheprobe: gather pass 2: shard result is for pass 3"},
		{"task past the PoP's list", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 9}, [3]int{2, 0, 9}),
			shardOf(asg, pass, [3]int{0, 9, 18}),
		}, "cacheprobe: gather pass 2: task (0,17) outside the assignment"},
		{"PoP outside the assignment", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}, [3]int{3, 0, 2}),
		}, "cacheprobe: gather pass 2: task (3,0) outside the assignment"},
		{"unit covered twice", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}),
			shardOf(asg, pass, [3]int{0, 5, 12}),
		}, "cacheprobe: gather pass 2: task (0,5) covered twice"},
		{"same unit in two shards", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}),
			shardOf(asg, pass, [3]int{2, 0, 9}),
		}, "cacheprobe: gather pass 2: task (2,0) covered twice"},
		{"unit missing", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 9}, [3]int{2, 0, 9}),
		}, "cacheprobe: gather pass 2: task 9 of PoP ams missing from the shards"},
		{"tail missing", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 5}),
		}, "cacheprobe: gather pass 2: task 5 of PoP iad missing from the shards"},
		{"PoP missing", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 17}),
		}, "cacheprobe: gather pass 2: task 0 of PoP iad missing from the shards"},
		// Tasks is the concatenation of Units: a decoded shard whose
		// outcomes are swapped or relabeled is rejected, not folded.
		{"tasks swapped within a unit", []*ShardResult{
			swapTasks(shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}), 3, 4),
		}, "cacheprobe: gather pass 2: task (0,4) sits in the slot of task (0,3)"},
		{"task labeled with another PoP", []*ShardResult{
			relabel(shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}), 20, 0, 3),
		}, "cacheprobe: gather pass 2: task (0,3) sits in the slot of task (2,3)"},
		{"fewer outcomes than units", []*ShardResult{
			truncate(shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}), 25),
		}, "cacheprobe: gather pass 2: shard holds 25 task outcomes for units of 26 tasks"},
		{"malformed unit", []*ShardResult{
			shardOf(asg, pass, [3]int{0, 0, 17}, [3]int{2, 0, 9}, [3]int{2, 5, 3}),
		}, "cacheprobe: gather pass 2: shard holds 26 task outcomes for units of -1 tasks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, asg := gatherFixture()
			_, err := p.GatherPass(nil, asg, pass, time.Unix(0, 0), NewCampaign(), tc.results)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("GatherPass error = %q, want %q", got, tc.want)
			}
		})
	}
}

func swapTasks(sr *ShardResult, i, j int) *ShardResult {
	sr.Tasks[i], sr.Tasks[j] = sr.Tasks[j], sr.Tasks[i]
	return sr
}

func relabel(sr *ShardResult, i, popIndex, taskIndex int) *ShardResult {
	sr.Tasks[i].PoPIndex, sr.Tasks[i].TaskIndex = popIndex, taskIndex
	return sr
}

func truncate(sr *ShardResult, n int) *ShardResult {
	sr.Tasks = sr.Tasks[:n]
	return sr
}
