package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"clientmap"
	"clientmap/internal/churn"
	"clientmap/internal/clockx"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/experiments"
	"clientmap/internal/metrics"
	"clientmap/internal/randx"
	"clientmap/internal/serve"
	"clientmap/internal/sim"
	"clientmap/internal/world"
)

// The workloads' fixed parameters. The campaign is the paper's: medium
// scale, 120 h, 9 passes, 48 h of DITL traces.
const (
	campaignScale = clientmap.ScaleMedium
	streamHours   = 24
	streamChurn   = "realloc=3@5h,drift=0.15@9h,pop=fra@6h+5h,chromium=off@12h"
)

func init() {
	role("campaign", childCampaign)
	role("stream", childStream)
	role("campaign-traced", childCampaignTraced)
	role("stream-traced", childStreamTraced)
	role("speedup", childSpeedup)
}

// stageLog turns the pipeline's progress lines, as the public Log
// callback delivers them, into per-stage wall times: a stage runs from
// its "running" line to its "done" line.
type stageLog struct {
	t0      time.Time
	mu      sync.Mutex
	started map[string]time.Time
	ended   map[string]time.Time
	took    map[string]time.Duration
	// first is the stage whose "running" line ends set-up; at it, onFirst
	// fires once with the time since t0.
	first   string
	onFirst func(time.Duration)
}

var stageLine = regexp.MustCompile(`^stage (\S+): (running|done)`)

func newStageLog(first string, onFirst func(time.Duration)) *stageLog {
	return &stageLog{
		t0: time.Now(), started: map[string]time.Time{}, ended: map[string]time.Time{},
		took: map[string]time.Duration{}, first: first, onFirst: onFirst,
	}
}

func (l *stageLog) logf(format string, args ...any) {
	now := time.Now()
	m := stageLine.FindStringSubmatch(fmt.Sprintf(format, args...))
	if m == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch m[2] {
	case "running":
		l.started[m[1]] = now
		if m[1] == l.first && l.onFirst != nil {
			l.onFirst(now.Sub(l.t0))
			l.onFirst = nil
		}
	case "done":
		l.ended[m[1]] = now
		if s, ok := l.started[m[1]]; ok {
			l.took[m[1]] = now.Sub(s)
		}
	}
}

// until is the time from t0 to the end of the named stage, in s.
func (l *stageLog) until(stage string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.ended[stage]; ok {
		return e.Sub(l.t0).Seconds()
	}
	return 0
}

// series lists the wall times of stages prefix+0 … prefix+(n-1), in s.
func (l *stageLog) series(prefix string, n int) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for k := 0; k < n; k++ {
		if d, ok := l.took[fmt.Sprintf("%s%d", prefix, k)]; ok {
			out = append(out, d.Seconds())
		}
	}
	return out
}

// setupOnly reports set-up and ends the process: the rest of the run is
// not needed for a set-up sample.
func setupOnly(d time.Duration) {
	printResult(map[string]float64{"SetupS": d.Seconds()})
	os.Exit(0)
}

type campaignArgs struct {
	Seed uint64
	// Dir is the checkpoint directory; Resume restarts from it.
	Dir    string
	Resume bool
	// SetupOnly stops the process when the first probing pass starts.
	SetupOnly bool
	// Passes and TraceHours override the paper defaults (0 keeps them);
	// Artifact, when set, receives the serving artifact.
	Passes, TraceHours int
	Artifact           string
}

type campaignOut struct {
	SetupS, WallS float64
	// PipelineS ends when the probing chain's last stage does, before
	// the dataset views and result assembly: the span a traced
	// composition is compared over.
	PipelineS float64
	// PassS and PassProbes are each probing pass's wall time and probes.
	PassS      []float64
	PassProbes []int64
	Probes     int64
	// Input24s is the world's announced /24 count, the input's size.
	Input24s int
	Failed   int64
	// ArtifactSHA is the SHA-256 of the encoded serving artifact;
	// Payload is its payload hash (what clientmapd reports).
	ArtifactSHA, Payload string
}

// childCampaign runs the batch evaluation through the public entry
// point, exactly as a user would.
func childCampaign(a campaignArgs) (campaignOut, error) {
	var out campaignOut
	onFirst := func(d time.Duration) { out.SetupS = d.Seconds() }
	if a.SetupOnly {
		onFirst = setupOnly
	}
	log := newStageLog(experiments.ProbePassStage(0), onFirst)
	eval, err := clientmap.Run(clientmap.Config{
		Seed: a.Seed, Scale: campaignScale, StateDir: a.Dir, Resume: a.Resume,
		Passes: a.Passes, TraceHours: a.TraceHours, Log: log.logf,
	})
	if err != nil {
		return out, err
	}
	out.WallS = time.Since(log.t0).Seconds()
	out.PipelineS = log.until(experiments.StageFinish)
	res := eval.Results()
	out.PassS = log.series(experiments.StageProbePass, res.Cfg.Passes)
	out.PassProbes = make([]int64, res.Cfg.Passes)
	for _, sp := range res.Trace.Spans() {
		if sp.Event == "probed" && sp.Stage == experiments.ProbePassStage(sp.Pass) && sp.Pass < len(out.PassProbes) {
			out.PassProbes[sp.Pass] += sp.Fields["probes"]
		}
	}
	out.Probes = int64(res.Campaign.ProbesSent)
	out.Input24s = len(res.Sys.World.Prefixes)
	led := eval.Metrics()
	out.Failed = led["dnsnet/vantage/timeouts"] + led["dnsnet/vantage/errors"]
	data, payload := serve.Marshal(res.ClientMap())
	out.ArtifactSHA, out.Payload = bytesSHA(data), payload
	if a.Artifact != "" {
		if err := os.WriteFile(a.Artifact, data, 0o644); err != nil {
			return out, err
		}
	}
	return out, nil
}

type streamArgs struct {
	Seed      uint64
	Dir       string
	SetupOnly bool
}

type streamOut struct {
	SetupS, WallS float64
	// PipelineS ends with the stream's last stage, before the report.
	PipelineS float64
	// HourS and HourProbes are each hour's wall time and probes.
	HourS      []float64
	HourProbes []int64
	Hours      int
	Probes     int64
	Input24s   int
	// FinalHash is the last rolling artifact's payload hash as the run
	// reports it; FileHash is the payload hash of the file on disk.
	FinalHash, FileHash string
}

func streamConfig(seed uint64, dir string, log func(string, ...any)) (experiments.StreamConfig, error) {
	ch, err := churn.Parse(streamChurn)
	if err != nil {
		return experiments.StreamConfig{}, err
	}
	return experiments.StreamConfig{
		Seed: randx.Seed(seed), Scale: world.ScaleSmall, Hours: streamHours, Churn: ch,
		EmitEvery: 1, ArtifactPath: filepath.Join(dir, "rolling.snap"), StateDir: dir, Log: log,
	}, nil
}

// childStream runs the continuous mode through experiments.RunStream.
func childStream(a streamArgs) (streamOut, error) {
	var out streamOut
	onFirst := func(d time.Duration) { out.SetupS = d.Seconds() }
	if a.SetupOnly {
		onFirst = setupOnly
	}
	log := newStageLog(experiments.StreamHourStage(0), onFirst)
	cfg, err := streamConfig(a.Seed, a.Dir, log.logf)
	if err != nil {
		return out, err
	}
	res, err := experiments.RunStream(cfg)
	if err != nil {
		return out, err
	}
	out.WallS = time.Since(log.t0).Seconds()
	out.PipelineS = log.until(experiments.StageStreamFinish)
	out.HourS = log.series(experiments.StageStreamHour, streamHours)
	out.Hours = res.State.Hour
	for _, v := range res.State.Views {
		out.HourProbes = append(out.HourProbes, int64(v.Probes))
	}
	out.Probes = int64(res.Campaign.ProbesSent)
	out.Input24s = len(res.Sys.World.Prefixes)
	out.FinalHash = res.FinalHash
	if _, h, err := serve.ReadFile(cfg.ArtifactPath); err == nil {
		out.FileHash = h
	}
	return out, nil
}

type speedupArgs struct{ Seed uint64 }

type speedupOut struct{ ParallelS, SequentialS float64 }

// childSpeedup times one probing pass with one worker per CPU and one
// with a single worker, on the same calibrated medium world after pass
// 0 has paid the lazy cache fill.
func childSpeedup(a speedupArgs) (speedupOut, error) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	sys, err := sim.New(sim.Config{Seed: randx.Seed(a.Seed), Scale: world.ScaleMedium, Metrics: reg})
	if err != nil {
		return speedupOut{}, err
	}
	cfg := sys.ProberConfig()
	cfg.Duration, cfg.Passes, cfg.Metrics = 120*time.Hour, 9, reg
	par := sys.Prober(cfg)
	cfg.Workers = 1
	seq := sys.Prober(cfg)
	pops, err := par.DiscoverPoPs(ctx)
	if err != nil {
		return speedupOut{}, err
	}
	camp := cacheprobe.NewCampaign()
	if err := par.PreScan(ctx, camp); err != nil {
		return speedupOut{}, err
	}
	par.Calibrate(ctx, pops, camp)
	asg := par.BuildAssignments(pops, sys.PoPCoords(), camp)
	timed := func(p *cacheprobe.Prober, pass int) (float64, error) {
		t := time.Now()
		_, err := p.ProbePassDelta(ctx, pops, asg, pass, clockx.Epoch, camp)
		return time.Since(t).Seconds(), err
	}
	var out speedupOut
	if _, err := timed(par, 0); err != nil {
		return out, err
	}
	if out.ParallelS, err = timed(par, 1); err != nil {
		return out, err
	}
	out.SequentialS, err = timed(seq, 2)
	return out, err
}
