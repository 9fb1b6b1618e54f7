package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"clientmap/internal/churn"
	"clientmap/internal/experiments"
	"clientmap/internal/world"
)

// streamRuns is how many times a run streams the same seed: identical
// streams on a shared host differ by a tenth from run to run, and each
// hour's cost is taken from its cheaper run (see perOp).
const streamRuns = 2

// runStream measures the continuous mode: set-up (three times) and two
// 24-hour runs over a churning world, through experiments.RunStream.
func runStream(b *bench, res *result) error {
	if b.traced {
		return traceStream(b, res)
	}
	var setups []float64
	for i := streamRuns; i < setupReps; i++ {
		var s streamOut
		if err := b.sample("setup", func(dir string) error {
			_, err := b.decodeChild("stream", streamArgs{Seed: b.seed, Dir: dir, SetupOnly: true}, &s)
			return err
		}); err != nil {
			return err
		}
		setups = append(setups, s.SetupS)
	}
	runs := make([]streamOut, streamRuns)
	var rss int64
	var wall float64
	var probes int64
	var hours []float64
	var hourS [][]float64
	var hourProbes [][]int64
	for i := range runs {
		run := &runs[i]
		if err := b.sample("state", func(dir string) error {
			r, err := b.decodeChild("stream", streamArgs{Seed: b.seed, Dir: dir}, run)
			rss = max(rss, r.maxRSS)
			return err
		}); err != nil {
			return err
		}
		setups = append(setups, run.SetupS)
		wall += run.WallS
		probes += run.Probes
		hours = append(hours, run.HourS...)
		hourS, hourProbes = append(hourS, run.HourS), append(hourProbes, run.HourProbes)
	}

	sd, po, hd := newDist(setups), perOp(hourS, hourProbes), newDist(hours)
	res.add("setup_s", "s", sd.median(), len(sd))
	res.add("op_p50_us", "us", po.median(), len(po))
	res.add("probes_per_s", "1/s", float64(probes)/wall, len(runs))
	res.add("stream_s", "s", wall/float64(len(runs)), len(runs))
	res.add("hour_p50_ms", "ms", hd.median()*1000, len(hd))
	res.add("peak_rss_mb", "MB", float64(rss)/1e6, len(runs))
	res.add("probes", "count", float64(runs[0].Probes), 1)
	res.add("input_24s", "count", float64(runs[0].Input24s), 1)
	res.attempted = int64(streamHours * len(runs))
	res.failed = int64(streamHours*len(runs) - len(hours))

	for i, run := range runs {
		res.check(fmt.Sprintf("run%d_hours_timed", i), len(run.HourS) == streamHours && run.Hours == streamHours,
			"%d of %d hours timed, state at hour %d", len(run.HourS), streamHours, run.Hours)
		res.check(fmt.Sprintf("run%d_artifact_on_disk", i), run.FileHash == run.FinalHash,
			"file %.12s, final %.12s", run.FileHash, run.FinalHash)
	}
	res.check("runs_identical", runs[0].FinalHash == runs[len(runs)-1].FinalHash && runs[0].Probes == runs[len(runs)-1].Probes,
		"final artifacts %.12s and %.12s", runs[0].FinalHash, runs[len(runs)-1].FinalHash)
	checkReference(res, b.seed, "stream", runs[0].FinalHash)
	return nil
}

// traceStream runs the untraced stream for reference and the traced
// composition, and checks that they agree.
func traceStream(b *bench, res *result) error {
	var u streamOut
	if err := b.sample("untraced", func(dir string) error {
		_, err := b.decodeChild("stream", streamArgs{Seed: b.seed, Dir: dir}, &u)
		return err
	}); err != nil {
		return err
	}
	var t tracedOut
	if err := b.sample("traced", func(dir string) error {
		spans := filepath.Join(b.root, ".bench_build", fmt.Sprintf("spans-stream-%d-composed", b.seed))
		_, err := b.decodeChild("stream-traced", tracedArgs{Seed: b.seed, Dir: dir, Spans: spans}, &t)
		return err
	}); err != nil {
		return err
	}
	addLayers(res, t.Metrics)
	res.add("trace.overhead_frac", "ratio", t.PipelineS/u.PipelineS-1, 1)
	res.attempted = int64(streamHours)
	res.check("traced_probes", t.Probes == u.Probes, "traced %d, untraced %d", t.Probes, u.Probes)
	res.check("traced_artifact", t.Payload == u.FinalHash, "traced %.12s, untraced %.12s", t.Payload, u.FinalHash)
	return nil
}

// childStreamTraced runs the traced composition of the 24-hour stream.
func childStreamTraced(a tracedArgs) (tracedOut, error) {
	ch, err := churn.Parse(streamChurn)
	if err != nil {
		return tracedOut{}, err
	}
	tr := newTracer()
	c := newComposer(tr, a.Seed, world.ScaleSmall, a.Dir)
	run, err := c.composeStream(ch, filepath.Join(a.Dir, "rolling.snap"))
	if err != nil {
		return tracedOut{}, err
	}
	spans := tr.snapshot()
	if err := writeSpans(a.Spans+".jsonl", spans); err != nil {
		return tracedOut{}, err
	}
	ss := newSpanSet(spans)
	m := scanLayers(ss)
	ms := func(name string) float64 { return ss.durs(name, time.Millisecond).median() }
	m["stream.begin_hour_ms"] = ms("stream.begin_hour")
	m["cacheprobe.subset_pass_ms"] = ms("cacheprobe.subset_pass")
	m["stream.dnstick_ms"] = ms("stream.dnstick")
	m["stream.finish_hour_ms"] = ms("stream.finish_hour")
	m["serve.export_ms"] = ms("serve.export")
	m["snapshot.hour_encode_ms"] = ms("snapshot.hour_encode")
	var hourWrites []time.Duration
	for _, s := range ss.named("statefs.write") {
		if strings.HasPrefix(s.Note, experiments.StageStreamHour) {
			hourWrites = append(hourWrites, s.dur())
		}
	}
	m["statefs.hour_write_ms"] = durDist(hourWrites, time.Millisecond).median()
	var probes, fresh int
	for _, v := range run.views {
		probes += v.Probes
		fresh += v.FreshScopes
	}
	m["stream.probes_per_hour"] = float64(probes) / float64(max(len(run.views), 1))
	m["stream.fresh_hit_ratio"] = float64(fresh) / float64(max(probes, 1))
	return tracedOut{PipelineS: run.pipeline.Seconds(), Probes: run.probes, Payload: run.finalHash, Metrics: m}, nil
}
