package cacheprobe

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/faults"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/par"
)

// Shard/scatter/gather decomposition of a probing pass.
//
// PartitionPass cuts a pass's assignment into (PoP, contiguous task
// block) units and deals them into N shards. ProbeShard executes one
// shard's units against the shared world seed and exports a ShardResult:
// index-slotted task outcomes plus the shard's *deltas* of the fault,
// metrics and breaker-window ledgers. GatherPass checks that the shards'
// units cover the assignment exactly once and replays the monolithic
// pass's sequential merge over them, unit by unit in (PoP, task) order,
// yielding a PassDelta.
//
// The decomposition is exact, not approximate: every probe's transaction
// id, schedule timestamp, retry allowance, jitter and hedge decision is
// a pure function of (seed, content key, scheduled time), none of which
// mention the shard — so a task's wire outcome is identical whichever
// shard (or process) runs it, and the gathered campaign is byte-identical
// to the single-process one for any shard count, worker count and
// kill/resume point.

// ShardUnit is one contiguous block [Lo, Hi) of a PoP's task list.
type ShardUnit struct {
	// PoPIndex is the PoP's position in the assignment's sorted PoP
	// order; PoP is its name.
	PoPIndex int
	PoP      string
	// Lo and Hi bound the unit's task indices: global positions in the
	// PoP's full task list, so schedules and budget draws computed inside
	// the unit match the monolithic pass's.
	Lo, Hi int
}

// PartitionPass cuts a pass into shards: each PoP's task list is split
// into up to `shards` contiguous blocks, and the blocks are dealt
// round-robin across the shard bins in hash order — a deterministic
// shuffle, so consecutive blocks of one PoP spread across runners
// instead of piling onto one. Always returns exactly `shards` bins (some
// possibly empty); callers index the result by shard number. A pure
// function of the assignment shape, identical in every process.
func PartitionPass(asg *Assignments, pass, shards int) [][]ShardUnit {
	if shards < 1 {
		shards = 1
	}
	var units []ShardUnit
	for pi, pop := range asg.popNames {
		n := len(asg.tasks[pi])
		if n == 0 {
			continue
		}
		block := (n + shards - 1) / shards
		for lo := 0; lo < n; lo += block {
			hi := lo + block
			if hi > n {
				hi = n
			}
			units = append(units, ShardUnit{PoPIndex: pi, PoP: pop, Lo: lo, Hi: hi})
		}
	}
	sort.Slice(units, func(i, j int) bool {
		hi, hj := unitHash(pass, units[i]), unitHash(pass, units[j])
		if hi != hj {
			return hi < hj
		}
		if units[i].PoPIndex != units[j].PoPIndex {
			return units[i].PoPIndex < units[j].PoPIndex
		}
		return units[i].Lo < units[j].Lo
	})
	bins := make([][]ShardUnit, shards)
	for i, u := range units {
		bins[i%shards] = append(bins[i%shards], u)
	}
	return bins
}

// unitHash orders units pseudo-randomly but deterministically (FNV-1a
// over the unit's identity; the pass leads so the deal rotates per pass).
func unitHash(pass int, u ShardUnit) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var kb [64]byte
	k := append(kb[:0], "shard/"...)
	k = strconv.AppendInt(k, int64(pass), 10)
	k = append(k, '/')
	k = append(k, u.PoP...)
	k = append(k, '/')
	k = strconv.AppendInt(k, int64(u.Lo), 10)
	for _, b := range k {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// ShardTaskResult is one task's outcome inside a shard, keyed by its
// global (PoP, task) position. Lost tasks (routed nowhere this pass)
// appear with zero counts so the gather step can verify full coverage.
type ShardTaskResult struct {
	PoPIndex  int
	TaskIndex int
	Hit       bool
	RespScope netx.Prefix
	At        time.Time
	Probes    int
	// Retry and hedge ledger counts, mirroring retryAccount.
	RetrySpent     int
	RetryRecovered int
	RetryExhausted int
	HedgeFired     int
	HedgeWon       int
}

// ShardResult is one shard's complete output: per-task outcomes plus the
// shard's deltas of every order-independent ledger it touched. Deltas —
// not absolute values — so the gather step can sum shards from different
// processes, whose in-process counters started at different values.
type ShardResult struct {
	Pass int
	// Units are the units executed, in canonical (PoPIndex, Lo) order.
	Units []ShardUnit
	// Tasks is, by construction, the concatenation of Units: unit k's
	// outcomes occupy the Hi−Lo entries after those of units 0..k−1, and
	// the entry at offset i of unit u is task (u.PoPIndex, u.Lo+i).
	// ProbeShard sizes Tasks once and its workers write each outcome
	// into its unit's sub-slice; GatherPass rejects a result that breaks
	// the layout and otherwise folds straight from these slices.
	Tasks []ShardTaskResult
	// Faults is the delta of injected-fault counters over the shard's
	// execution.
	Faults faults.Stats
	// Metrics is the registry snapshot delta over LedgerPrefixes.
	Metrics metrics.Ledger
	// Windows is the delta of breaker window sums the shard's probe
	// outcomes contributed (health.DiffWindows form). Nil when the
	// degradation layer is off or nothing was observed.
	Windows map[string][]health.WindowSum
}

// ProbeShard executes one shard of a pass: the given units of the pass's
// assignment, scheduled and keyed exactly as the monolithic pass would
// schedule and key them. It does not mutate camp — the campaign advances
// only when GatherPass folds the shards — and it returns only deltas, so
// shards executed in different processes compose.
func (p *Prober) ProbeShard(ctx context.Context, pops map[string]*Vantage, asg *Assignments, pass int, start time.Time, camp *Campaign, units []ShardUnit) *ShardResult {
	passWindow := p.cfg.Duration / time.Duration(p.cfg.Passes)
	passStart := start.Add(time.Duration(pass) * passWindow)

	// One shard (or gather) at a time per process: the ledger deltas
	// below are registry snapshot differences, and two overlapping
	// windows in one process would absorb each other's increments.
	// Cross-process shards have separate registries and need no lock.
	p.execMu.Lock()
	defer p.execMu.Unlock()

	// Sync the breaker tracker to the checkpointed campaign and compute
	// the pass plan from the frozen timeline — the identical plan every
	// shard and the gather step derive, because all start from the same
	// checkpoint. Plan before the metric snapshot: planning observes the
	// failover-distance histogram, and that observation is counted once,
	// by the gather step's own (re-computed) plan — a shard's copy must
	// stay out of its delta.
	p.healthSync(camp, passStart)
	plans := p.planPass(pops, asg, camp, pass, passStart)

	var preWindows map[string][]health.WindowSum
	if p.cfg.Health != nil {
		preWindows = p.cfg.Health.ExportWindows()
	}
	fBefore := p.cfg.FaultCounters.Snapshot()
	mBefore := p.m.reg.SnapshotPrefix(LedgerPrefixes...)

	units = append([]ShardUnit(nil), units...)
	sort.Slice(units, func(i, j int) bool {
		if units[i].PoPIndex != units[j].PoPIndex {
			return units[i].PoPIndex < units[j].PoPIndex
		}
		return units[i].Lo < units[j].Lo
	})

	// Size Tasks once; each unit owns the disjoint sub-slice at its
	// offset, so the probe workers write every outcome where it lands.
	sr := &ShardResult{Pass: pass, Units: units}
	offs := make([]int, len(units)+1)
	for ui, u := range units {
		offs[ui+1] = offs[ui] + u.Hi - u.Lo
	}
	sr.Tasks = make([]ShardTaskResult, offs[len(units)])

	_, isSim := p.cfg.Clock.(*clockx.Sim)
	unitFanout := 1
	if p.workers() > 1 {
		unitFanout = len(units)
	}
	par.ForEach(len(units), unitFanout, func(ui int) {
		u := units[ui]
		pop := u.PoP
		v := pops[pop]
		tasks := asg.tasks[u.PoPIndex]
		delays := p.m.popDelay(pop)
		allowScope := "probe/" + strconv.Itoa(pass) + "/" + pop
		out := sr.Tasks[offs[ui]:offs[ui+1]]
		par.ForEachChunked(u.Hi-u.Lo, p.workers(), probeChunk, func(clo, chi int) {
			// Per-chunk scratch, identical to the monolithic pass loop
			// (see ProbePass's former body): one pooled query message, a
			// key buffer pre-filled with "probe/<pass>/<pop>/", the txid
			// hash's midstate over "cacheprobe/txid/probe/<pass>/<pop>/",
			// one re-stamped time carrier and one retry account. Chunk
			// boundaries carry no state, so splitting a PoP's tasks
			// across units changes nothing.
			q := dnswire.AcquireMessage()
			defer dnswire.ReleaseMessage(q)
			var kb [192]byte
			keyBuf := append(kb[:0], "probe/"...)
			keyBuf = strconv.AppendInt(keyBuf, int64(pass), 10)
			keyBuf = append(keyBuf, '/')
			keyBuf = append(keyBuf, pop...)
			keyBuf = append(keyBuf, '/')
			popLen := len(keyBuf)
			txid := p.txidMid(keyBuf)
			tctx := ctx
			var carrier *clockx.TimeCarrier
			if isSim {
				carrier = &clockx.TimeCarrier{Context: ctx}
				tctx = carrier
			}
			var hedge hedgeOption
			var acct retryAccount
			for i := clo; i < chi; i++ {
				// ti is the task's global index in the PoP's full list:
				// schedules, allowances and keys must not see the shard.
				ti := u.Lo + i
				tk := tasks[ti]
				pv := v
				r := &out[i]
				r.PoPIndex, r.TaskIndex = u.PoPIndex, ti
				acct = retryAccount{delays: delays}
				if plans != nil {
					rt := plans[u.PoPIndex].route(ti)
					if rt.kind == health.RouteLost {
						continue // no in-radius fallback: not probed this pass
					}
					pv = rt.v
					hedge = plans[u.PoPIndex].hedgeFor(rt)
					acct.hedge = &hedge
				}
				offset := time.Duration(float64(passWindow) * float64(ti) / float64(len(tasks)+1))
				if carrier != nil {
					carrier.T = passStart.Add(offset)
				}
				acct.remaining = p.retryAllowance(allowScope, ti, len(tasks))
				key := append(keyBuf[:popLen], tk.domain...)
				key = append(key, '/')
				key = tk.scope.AppendTo(key)
				kLen := len(key)
				base := uint16(txid.Bytes(key[popLen:]).Sum64())
				for a := 0; a < p.cfg.Redundancy; a++ {
					ak := strconv.AppendInt(append(key[:kLen], '/'), int64(a), 10)
					hit, respScope := p.snoop(tctx, pv, q, txidAt(base, a), tk.domain, tk.scope, ak, &acct)
					r.Probes++
					if hit {
						r.Hit, r.RespScope = true, respScope
						r.At = clockx.NowIn(tctx, p.cfg.Clock)
						break
					}
				}
				r.RetrySpent, r.RetryRecovered, r.RetryExhausted = acct.spent, acct.recovered, acct.exhausted
				r.HedgeFired, r.HedgeWon = acct.hedgeFired, acct.hedgeWon
			}
		})
	})

	sr.Metrics = p.m.reg.SnapshotPrefix(LedgerPrefixes...).Sub(mBefore)
	sr.Faults = p.cfg.FaultCounters.Snapshot().Sub(fBefore)
	if p.cfg.Health != nil {
		sr.Windows = health.DiffWindows(p.cfg.Health.ExportWindows(), preWindows)
	}
	return sr
}

// GatherPass merges a pass's shard results into a PassDelta and applies
// it to camp — the deterministic gather step. The shards may come from
// this process or be decoded from other runners' snapshots; either way
// the merge replays the monolithic pass's sequential fold in (sorted
// PoP, task index) order, so the applied campaign is byte-identical to
// the single-process pass. It reads the outcomes where the shards hold
// them, walking their units in that order, without copying them into a
// per-PoP layout first. Errors if the shards do not cover the assignment
// exactly once or break ShardResult's Tasks/Units layout.
func (p *Prober) GatherPass(pops map[string]*Vantage, asg *Assignments, pass int, start time.Time, camp *Campaign, results []*ShardResult) (*PassDelta, error) {
	popNames := asg.popNames
	passWindow := p.cfg.Duration / time.Duration(p.cfg.Passes)
	passStart := start.Add(time.Duration(pass) * passWindow)

	p.execMu.Lock()
	defer p.execMu.Unlock()

	delta := &PassDelta{Pass: pass, Passes: p.cfg.Passes, PassTime: passStart}
	// Record the per-PoP assignment sizes BuildAssignments stamped onto
	// the campaign: the delta is the only thing a restored chain replays,
	// and the assignment is never rebuilt there.
	for pi, pop := range popNames {
		if _, ok := camp.PoPs[pop]; ok {
			if delta.Assigned == nil {
				delta.Assigned = make(map[string]int, len(popNames))
			}
			delta.Assigned[pop] = len(asg.tasks[pi])
		}
	}

	// Snapshot before planning: the plan's failover-distance observations
	// belong to this pass's ledger delta, and the gather step is where
	// they are counted (exactly once — shards exclude theirs).
	fBefore := p.cfg.FaultCounters.Snapshot()
	mBefore := p.m.reg.SnapshotPrefix(LedgerPrefixes...)
	p.healthSync(camp, passStart)
	plans := p.planPass(pops, asg, camp, pass, passStart)

	spans, hits, err := coverage(pass, asg, results)
	if err != nil {
		return nil, err
	}
	if hits > 0 {
		delta.Hits = make([]DeltaHit, 0, hits)
	}

	// Replay the sequential merge, accumulating into the delta instead of
	// the campaign; Apply below folds it in — the same code path a
	// restored delta checkpoint takes.
	passProbes, passHits := p.m.passProbes(pass), p.m.passHits(pass)
	cov := health.PassCoverage{Pass: pass}
	for pi, pop := range popNames {
		tasks := asg.tasks[pi]
		// Touch the per-PoP retry-delay histogram: the monolithic pass
		// resolves it for every PoP, shards only for the PoPs they ran,
		// and the fold's key set must not depend on the shard split.
		p.m.popDelay(pop)
		var popProbes, popHits, popSpent int64
		// The PoP's units, in task order, cover its list exactly once.
		for ; len(spans) > 0 && spans[0].popIndex == pi; spans = spans[1:] {
			for i := range spans[0].tasks {
				r := &spans[0].tasks[i]
				ti := r.TaskIndex
				acct := r.account()
				hitPoP := pop
				if plans != nil {
					rt := plans[pi].route(ti)
					cov.Assigned++
					switch rt.kind {
					case health.RoutePrimary:
						cov.Primary++
					case health.RouteTrial:
						cov.Trial++
					case health.RouteAlternate:
						cov.Alternate++
						delta.Health.FailOver(pop)
						p.m.failoverVantage.Inc()
					case health.RouteFallback:
						cov.Fallback++
						delta.Health.FailOver(pop)
						p.m.failoverPoP.Inc()
						hitPoP = rt.pop // hits belong to the PoP that served them
					case health.RouteLost:
						cov.Lost++
						delta.Health.LoseTask(pop, ti)
						p.m.failoverLost.Inc()
						continue // the slot holds no probe to account
					}
					delta.Health.AddHedges(int64(r.HedgeFired), int64(r.HedgeWon))
					p.m.countHedges(&acct)
				}
				sent := int64(r.Probes + r.RetrySpent + r.HedgeFired)
				delta.ProbesSent += int(sent)
				popProbes += sent
				popSpent += int64(r.RetrySpent)
				delta.Faults.addRetries(&acct)
				p.m.countRetries(&acct)
				if r.Hit {
					popHits++
					delta.Hits = append(delta.Hits, DeltaHit{
						Domain:     tasks[ti].domain,
						QueryScope: tasks[ti].scope,
						RespScope:  r.RespScope,
						PoP:        hitPoP,
						At:         r.At,
					})
				}
			}
		}
		p.m.probeProbes.Add(popProbes)
		p.m.probeHits.Add(popHits)
		p.m.probeMisses.Add(int64(len(tasks)) - popHits)
		passProbes.Add(popProbes)
		passHits.Add(popHits)
		p.m.popProbes(pop).Add(popProbes)
		p.m.popHits(pop).Add(popHits)
		p.cfg.Trace.Emit(metrics.Span{
			Time: passStart, Stage: fmt.Sprintf("probe-pass-%d", pass), Pass: pass, PoP: pop, Event: "probed",
			Fields: map[string]int64{
				"tasks": int64(len(tasks)), "probes": popProbes,
				"hits": popHits, "retries_spent": popSpent,
			},
		})
	}

	// The shards' injected-fault deltas partition the pass's injections
	// (faults only fire while probes exchange); the gather step itself
	// injects nothing, but its window is summed for uniformity.
	delta.Faults.addInjected(p.cfg.FaultCounters.Snapshot().Sub(fBefore))
	for _, sr := range results {
		delta.Faults.addInjected(sr.Faults)
	}

	if plans != nil {
		delta.Health.Coverage = []health.PassCoverage{cov}
		// Fold the shards' window deltas over the pre-pass checkpoint —
		// reconstructing exactly the windows the monolithic pass's tracker
		// held — then advance to the pass end so the pass's observations
		// replay into transitions. The transition timeline is a
		// prefix-monotone pure function of the windows, so the tail
		// beyond the checkpoint is this pass's contribution.
		sum := map[string][]health.WindowSum{}
		for _, sr := range results {
			sum = health.FoldWindows(sum, sr.Windows)
		}
		delta.Health.Windows = sum
		t := p.cfg.Health
		t.Restore(health.FoldWindows(camp.Health.Windows, sum))
		t.Advance(passStart.Add(passWindow))
		trs := t.Transitions()
		tail := trs[min(len(camp.Health.Transitions), len(trs)):]
		delta.Health.Transitions = append([]health.Transition(nil), tail...)
		for _, tr := range tail {
			switch tr.To {
			case health.Open:
				p.m.breakerOpened.Inc()
			case health.HalfOpen:
				p.m.breakerHalfOpened.Inc()
			case health.Closed:
				p.m.breakerClosed.Inc()
			}
		}
	}

	delta.Metrics = p.m.reg.SnapshotPrefix(LedgerPrefixes...).Sub(mBefore)
	if delta.Metrics == nil {
		delta.Metrics = metrics.Ledger{}
	}
	for _, sr := range results {
		delta.Metrics.Merge(sr.Metrics)
	}

	delta.Apply(camp)
	return delta, nil
}

// account returns the task's retry and hedge counts as the retryAccount
// the ledger folds take.
func (t *ShardTaskResult) account() retryAccount {
	return retryAccount{
		spent:      t.RetrySpent,
		recovered:  t.RetryRecovered,
		exhausted:  t.RetryExhausted,
		hedgeFired: t.HedgeFired,
		hedgeWon:   t.HedgeWon,
	}
}

// unitSpan is one executed unit's slice of its shard's task outcomes.
type unitSpan struct {
	popIndex, lo, hi int
	tasks            []ShardTaskResult
}

// coverage checks that the shards hold the pass's outcomes for every
// task of asg exactly once, and returns their non-empty units sorted by
// (PoPIndex, Lo), each with its outcomes, and the number of hits they
// hold (to size the delta's hit list once). Coverage is checked on unit
// intervals; each outcome's (PoPIndex, TaskIndex) must match its
// position in its unit (ShardResult's layout invariant), which also
// catches a decoded shard whose tasks were shuffled or mislabeled.
// Per-shard errors come in shard order, then overlaps, then gaps.
func coverage(pass int, asg *Assignments, results []*ShardResult) (spans []unitSpan, hits int, err error) {
	outside := func(pi, ti int) error {
		return fmt.Errorf("cacheprobe: gather pass %d: task (%d,%d) outside the assignment", pass, pi, ti)
	}
	for _, sr := range results {
		if sr == nil {
			return nil, 0, fmt.Errorf("cacheprobe: gather pass %d: missing shard result", pass)
		}
		if sr.Pass != pass {
			return nil, 0, fmt.Errorf("cacheprobe: gather pass %d: shard result is for pass %d", pass, sr.Pass)
		}
		if n := unitsLen(sr.Units); n != len(sr.Tasks) {
			return nil, 0, fmt.Errorf("cacheprobe: gather pass %d: shard holds %d task outcomes for units of %d tasks", pass, len(sr.Tasks), n)
		}
		off := 0
		for _, u := range sr.Units {
			if u.PoPIndex < 0 || u.PoPIndex >= len(asg.tasks) || u.Lo < 0 {
				return nil, 0, outside(u.PoPIndex, u.Lo)
			}
			if n := len(asg.tasks[u.PoPIndex]); u.Hi > n {
				return nil, 0, outside(u.PoPIndex, max(u.Lo, n))
			}
			ts := sr.Tasks[off : off+u.Hi-u.Lo]
			off += len(ts)
			for i := range ts {
				if ts[i].Hit {
					hits++
				}
				if ts[i].PoPIndex != u.PoPIndex || ts[i].TaskIndex != u.Lo+i {
					return nil, 0, fmt.Errorf("cacheprobe: gather pass %d: task (%d,%d) sits in the slot of task (%d,%d)",
						pass, ts[i].PoPIndex, ts[i].TaskIndex, u.PoPIndex, u.Lo+i)
				}
			}
			if len(ts) > 0 {
				spans = append(spans, unitSpan{popIndex: u.PoPIndex, lo: u.Lo, hi: u.Hi, tasks: ts})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].popIndex != spans[j].popIndex {
			return spans[i].popIndex < spans[j].popIndex
		}
		return spans[i].lo < spans[j].lo
	})
	var gap error
	missing := func(pi, ti int) {
		if gap == nil {
			gap = fmt.Errorf("cacheprobe: gather pass %d: task %d of PoP %s missing from the shards", pass, ti, asg.popNames[pi])
		}
	}
	k := 0
	for pi, tasks := range asg.tasks {
		next := 0
		for ; k < len(spans) && spans[k].popIndex == pi; k++ {
			s := spans[k]
			if s.lo < next {
				return nil, 0, fmt.Errorf("cacheprobe: gather pass %d: task (%d,%d) covered twice", pass, pi, s.lo)
			}
			if s.lo > next {
				missing(pi, next)
			}
			next = s.hi
		}
		if next < len(tasks) {
			missing(pi, next)
		}
	}
	return spans, hits, gap
}

// unitsLen is the number of tasks the units span, or -1 if a unit is
// malformed (Hi < Lo): no outcome count matches it.
func unitsLen(units []ShardUnit) int {
	n := 0
	for _, u := range units {
		if u.Hi < u.Lo {
			return -1
		}
		n += u.Hi - u.Lo
	}
	return n
}
