package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"clientmap/internal/experiments"
	"clientmap/internal/world"
)

// runCampaign measures the batch evaluation: set-up (three times), one
// checkpointed run, then a full resume of its state directory in a new
// process, each through clientmap.Run.
func runCampaign(b *bench, res *result) error {
	if b.traced {
		return traceCampaign(b, res)
	}
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		var s campaignOut
		if err := b.sample("setup", func(dir string) error {
			_, err := b.decodeChild("campaign", campaignArgs{Seed: b.seed, Dir: dir, SetupOnly: true}, &s)
			return err
		}); err != nil {
			return err
		}
		setups = append(setups, s.SetupS)
	}
	dir, err := b.dir("state")
	if err != nil {
		return err
	}
	var run, resumed campaignOut
	r1, err := b.decodeChild("campaign", campaignArgs{Seed: b.seed, Dir: dir}, &run)
	if err != nil {
		return err
	}
	r2, err := b.decodeChild("campaign", campaignArgs{Seed: b.seed, Dir: dir, Resume: true}, &resumed)
	if err != nil {
		return err
	}
	setups = append(setups, run.SetupS)

	sd, po := newDist(setups), perOp([][]float64{run.PassS}, [][]int64{run.PassProbes})
	res.add("setup_s", "s", sd.median(), len(sd))
	res.add("op_p50_us", "us", po.median(), len(po))
	res.add("probes_per_s", "1/s", float64(run.Probes)/run.WallS, 1)
	res.add("campaign_s", "s", run.WallS, 1)
	res.add("resume_s", "s", resumed.WallS, 1)
	res.add("peak_rss_mb", "MB", float64(r1.maxRSS)/1e6, 1)
	res.add("resume_peak_rss_mb", "MB", float64(r2.maxRSS)/1e6, 1)
	res.add("pass_p50_s", "s", newDist(run.PassS).median(), len(run.PassS))
	res.add("input_24s", "count", float64(run.Input24s), 1)
	res.attempted, res.failed = run.Probes, run.Failed

	res.check("passes_timed", len(run.PassS) == 9, "%d of 9 probing passes ran", len(run.PassS))
	res.check("resume_probed_nothing", len(resumed.PassS) == 0 && resumed.Probes == run.Probes,
		"resume ran %d passes, restored %d of %d probes", len(resumed.PassS), resumed.Probes, run.Probes)
	res.check("resume_artifact_identical", resumed.ArtifactSHA == run.ArtifactSHA,
		"run %.12s, resume %.12s", run.ArtifactSHA, resumed.ArtifactSHA)
	checkReference(res, b.seed, "campaign", run.Payload)
	return nil
}

// checkReference compares an artifact payload hash with the one recorded
// for the default seed; other seeds have no recorded reference.
func checkReference(res *result, seed uint64, workload, payload string) {
	want := referenceHashes[workload]
	if seed != defaultSeed {
		res.check("reference_hash", payload != "", "no reference recorded for seed %d (payload %.12s)", seed, payload)
		return
	}
	res.check("reference_hash", payload == want, "payload %s, recorded %s", payload, want)
}

// sample runs f in a fresh directory that is removed afterwards.
func (b *bench) sample(name string, f func(dir string) error) error {
	dir, err := b.dir(name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return f(dir)
}

type tracedArgs struct {
	Seed  uint64
	Dir   string
	Spans string
}

// tracedOut is a traced composition's outputs and per-layer metrics.
type tracedOut struct {
	// PipelineS is the time to the end of the composition's last stage.
	PipelineS     float64
	Probes        int64
	Payload, SHA  string
	ResumePayload string
	Metrics       map[string]float64
}

// traceCampaign runs the untraced campaign for reference, the traced
// composition, and the worker-count comparison, and checks that the
// traced composition reproduced the untraced outputs.
func traceCampaign(b *bench, res *result) error {
	var u campaignOut
	if err := b.sample("untraced", func(dir string) error {
		_, err := b.decodeChild("campaign", campaignArgs{Seed: b.seed, Dir: dir}, &u)
		return err
	}); err != nil {
		return err
	}
	var t tracedOut
	if err := b.sample("traced", func(dir string) error {
		spans := filepath.Join(b.root, ".bench_build", fmt.Sprintf("spans-campaign-%d-composed", b.seed))
		_, err := b.decodeChild("campaign-traced", tracedArgs{Seed: b.seed, Dir: dir, Spans: spans}, &t)
		return err
	}); err != nil {
		return err
	}
	var sp speedupOut
	if _, err := b.decodeChild("speedup", speedupArgs{Seed: b.seed}, &sp); err != nil {
		return err
	}
	addLayers(res, t.Metrics)
	res.add("cacheprobe.pass_speedup_x", "x", sp.SequentialS/sp.ParallelS, 1)
	res.add("trace.overhead_frac", "ratio", t.PipelineS/u.PipelineS-1, 1)
	res.attempted, res.failed = t.Probes, 0
	res.check("traced_probes", t.Probes == u.Probes, "traced %d, untraced %d", t.Probes, u.Probes)
	res.check("traced_artifact", t.SHA == u.ArtifactSHA && t.Payload == u.Payload,
		"traced %.12s, untraced %.12s", t.Payload, u.Payload)
	res.check("traced_resume_artifact", t.ResumePayload == t.Payload,
		"resume %.12s, run %.12s", t.ResumePayload, t.Payload)
	return nil
}

// addLayers reports a traced child's per-layer metrics with their
// declared units, in declaration order.
func addLayers(res *result, m map[string]float64) {
	for _, l := range perLayer {
		if v, ok := m[l.name]; ok {
			res.add(l.name, l.unit, v, 1)
		}
	}
}

// childCampaignTraced runs the traced composition of the checkpointed
// campaign, then a traced full resume of its state directory.
func childCampaignTraced(a tracedArgs) (tracedOut, error) {
	tr := newTracer()
	c := newComposer(tr, a.Seed, world.ScaleMedium, a.Dir)
	run, err := c.composeCampaign(false)
	if err != nil {
		return tracedOut{}, err
	}
	rtr := newTracer()
	rc := newComposer(rtr, a.Seed, world.ScaleMedium, a.Dir)
	if err := rc.repair(); err != nil {
		return tracedOut{}, err
	}
	resumed, err := rc.composeCampaign(true)
	if err != nil {
		return tracedOut{}, err
	}
	if err := writeSpans(a.Spans+".jsonl", tr.snapshot()); err != nil {
		return tracedOut{}, err
	}
	if err := writeSpans(a.Spans+"-resume.jsonl", rtr.snapshot()); err != nil {
		return tracedOut{}, err
	}

	ss, rs := newSpanSet(tr.snapshot()), newSpanSet(rtr.snapshot())
	m := scanLayers(ss)
	passes := ss.named("cacheprobe.pass")
	sort.Slice(passes, func(i, j int) bool { return passes[i].Start < passes[j].Start })
	// Mallocs are counted process-wide, so allocs_per_probe takes only
	// the passes that started after the DITL and baselines chains ended.
	var quiet time.Duration
	for _, name := range []string{experiments.StageDNSLogs, experiments.StageBaselines} {
		for _, s := range ss.named("stage/" + name) {
			quiet = max(quiet, s.End)
		}
	}
	var busy time.Duration
	var probes, hits, quietProbes int
	var quietMallocs uint64
	for k, p := range passes {
		busy += p.dur()
		st := c.passes[k]
		probes += st.probes
		hits += st.hits
		if p.Start >= quiet {
			quietProbes += st.probes
			quietMallocs += st.mallocs
		}
	}
	if len(passes) > 0 {
		m["cacheprobe.pass0_s"] = passes[0].dur().Seconds()
	}
	m["cacheprobe.pass_p50_s"] = ss.durs("cacheprobe.pass", time.Second).median()
	m["cacheprobe.probes_per_s"] = float64(probes) / busy.Seconds()
	m["cacheprobe.allocs_per_probe"] = float64(quietMallocs) / float64(max(quietProbes, 1))
	m["cacheprobe.hit_ratio"] = float64(hits) / float64(max(probes, 1))
	m["roots.gen_s"] = ss.total("roots.gen", false)
	m["roots.trace_mb"] = float64(c.traceBytes) / 1e6
	crawl := ss.total("dnslogs.crawl", false)
	m["dnslogs.crawl_s"] = crawl
	m["dnslogs.records_per_s"] = float64(c.traceRecords) / crawl
	m["baselines.collect_s"] = ss.total("baselines.collect", false)
	m["pipeline.chain_probe_s"] = chain(ss, experiments.StageSetup, experiments.StageFinish)
	m["pipeline.chain_ditl_s"] = chain(ss, experiments.StageDNSLogs, experiments.StageDNSLogs)
	m["pipeline.chain_baselines_s"] = chain(ss, experiments.StageBaselines, experiments.StageBaselines)
	m["snapshot.encode_s"] = ss.total("snapshot.encode", false)
	m["snapshot.encode_mb"] = float64(ss.bytes("statefs.write")) / 1e6
	m["statefs.write_s"] = ss.total("statefs.write", false)
	m["statefsck.repair_s"] = rs.total("statefsck.repair", false)
	m["statefs.read_s"] = rs.total("statefs.read", false)
	m["snapshot.decode_s"] = rs.total("snapshot.decode", true)
	return tracedOut{
		PipelineS: run.pipeline.Seconds(), Probes: run.probes, Payload: run.payload, SHA: run.sha,
		ResumePayload: resumed.payload, Metrics: m,
	}, nil
}

// scanLayers reports the set-up layers both probing workloads share.
func scanLayers(ss spanSet) map[string]float64 {
	return map[string]float64{
		"world.build_s":          ss.total("world.build", false),
		"cacheprobe.prescan_s":   ss.total("cacheprobe.prescan", false),
		"cacheprobe.calibrate_s": ss.total("cacheprobe.calibrate", false),
		"cacheprobe.assign_s":    ss.total("cacheprobe.assign", false),
	}
}

// chain is the wall time from the start of stage first to the end of
// stage last, as the pipeline ran them concurrently with the others.
func chain(ss spanSet, first, last string) float64 {
	a, z := ss.named("stage/"+first), ss.named("stage/"+last)
	if len(a) == 0 || len(z) == 0 {
		return 0
	}
	return (z[len(z)-1].End - a[0].Start).Seconds()
}
