package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"clientmap/internal/apnic"
	"clientmap/internal/asdb"
	"clientmap/internal/cdn"
	"clientmap/internal/churn"
	"clientmap/internal/clockx"
	"clientmap/internal/core/cacheprobe"
	"clientmap/internal/core/dnslogs"
	"clientmap/internal/experiments"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/pipeline"
	"clientmap/internal/randx"
	"clientmap/internal/roots"
	"clientmap/internal/serve"
	"clientmap/internal/sim"
	"clientmap/internal/snapshot"
	"clientmap/internal/statefs"
	"clientmap/internal/statefsck"
	"clientmap/internal/stream"
	"clientmap/internal/world"
)

// The traced runs compose the campaign and the stream from each layer's
// public functions, wired in the same stage graph experiments.Run and
// experiments.RunStream register, with a span around every call. The
// composition leaves out the batch run's dataset-views stage, whose
// construction is internal to experiments; the serving artifact does not
// depend on it.

// tracedFS is the durable disk with a span around every checkpoint read
// and atomic write; the span's note is the file name.
type tracedFS struct {
	statefs.FS
	tr *tracer
}

func (f tracedFS) ReadFile(path string) ([]byte, error) {
	id := f.tr.begin("statefs.read", 0)
	data, err := f.FS.ReadFile(path)
	f.tr.note(id, filepath.Base(path))
	f.tr.endWith(id, int64(len(data)))
	return data, err
}

func (f tracedFS) WriteAtomic(path string, data []byte) error {
	id := f.tr.begin("statefs.write", 0)
	err := f.FS.WriteAtomic(path, data)
	f.tr.note(id, filepath.Base(path))
	f.tr.endWith(id, int64(len(data)))
	return err
}

// codec wraps a snapshot codec with encode/decode spans.
func codec[T any](tr *tracer, kind string, version uint16, enc func(*snapshot.Writer, T), dec func(*snapshot.Reader) (T, error)) *pipeline.Codec[T] {
	return &pipeline.Codec[T]{
		Kind: kind, Version: version,
		Encode: func(w *snapshot.Writer, v T) {
			id := tr.begin("snapshot.encode", 0)
			defer tr.end(id)
			enc(w, v)
		},
		Decode: func(r *snapshot.Reader) (T, error) {
			id := tr.begin("snapshot.decode", 0)
			defer tr.end(id)
			return dec(r)
		},
	}
}

// env is the probing chain's in-memory environment, as experiments
// builds it: the prober over the simulated network and its PoPs, with
// the probe plan built lazily by the first pass that needs it.
type env struct {
	sys    *sim.System
	prober *cacheprobe.Prober
	pops   map[string]*cacheprobe.Vantage

	asgOnce sync.Once
	asg     *cacheprobe.Assignments
}

func (e *env) assignments(tr *tracer, parent int, camp *cacheprobe.Campaign) *cacheprobe.Assignments {
	e.asgOnce.Do(func() {
		tr.do("cacheprobe.assign", parent, func(int) {
			e.asg = e.prober.BuildAssignments(e.pops, e.sys.PoPCoords(), camp)
		})
	})
	return e.asg
}

// passStat is one executed probing pass's work.
type passStat struct {
	probes, hits int
	mallocs      uint64
}

// composer builds one traced run.
type composer struct {
	tr    *tracer
	seed  randx.Seed
	scale world.Scale
	dir   string
	fs    tracedFS
	reg   *metrics.Registry

	mu     sync.Mutex
	passes map[int]passStat
	// traceBytes and records count the DITL traces roots generated.
	traceBytes   int64
	traceRecords int
}

func newComposer(tr *tracer, seed uint64, scale world.Scale, dir string) *composer {
	return &composer{
		tr: tr, seed: randx.Seed(seed), scale: scale, dir: dir,
		fs: tracedFS{statefs.Disk{}, tr}, reg: metrics.NewRegistry(), passes: map[int]passStat{},
	}
}

// stageEnd is the time from start to the end of the named stage.
func (c *composer) stageEnd(name string, start time.Time) time.Duration {
	for _, s := range c.tr.snapshot() {
		if s.Name == "stage/"+name {
			return c.tr.t0.Add(s.End).Sub(start)
		}
	}
	return 0
}

// stage runs a stage body inside a "stage/<name>" span.
func (c *composer) stage(name string, f func(id int) error) error {
	var err error
	c.tr.do("stage/"+name, 0, func(id int) { err = f(id) })
	return err
}

func (c *composer) runner(resume bool) *pipeline.Runner {
	return pipeline.New(pipeline.Options{
		Dir: c.dir, FS: c.fs, Resume: resume,
		Trace: metrics.NewTrace(), TraceTime: clockx.Epoch,
	})
}

func (c *composer) world(r *pipeline.Runner, base string) *pipeline.Stage[*sim.System] {
	return pipeline.AddStage(r, experiments.StageWorld, base, nil, nil,
		func(ctx context.Context) (sys *sim.System, err error) {
			err = c.stage(experiments.StageWorld, func(id int) error {
				c.tr.do("world.build", id, func(int) {
					sys, err = sim.New(sim.Config{Seed: c.seed, Scale: c.scale, Metrics: c.reg})
				})
				return err
			})
			return sys, err
		})
}

func (c *composer) prober(ctx context.Context, id int, sys *sim.System, d time.Duration, passes int) (*env, error) {
	pcfg := sys.ProberConfig()
	pcfg.Duration, pcfg.Passes = d, passes
	pcfg.Metrics, pcfg.Trace = c.reg, metrics.NewTrace()
	e := &env{sys: sys, prober: sys.Prober(pcfg)}
	var err error
	c.tr.do("cacheprobe.discover", id, func(int) { e.pops, err = e.prober.DiscoverPoPs(ctx) })
	return e, err
}

// scanChain registers pre-scan and calibration behind setup.
func (c *composer) scanChain(r *pipeline.Runner, fp string, world pipeline.Handle, setup func() *env, setupH pipeline.Handle) *pipeline.Stage[*cacheprobe.Campaign] {
	campCodec := codec(c.tr, snapshot.KindCampaign, snapshot.VersionCampaign, snapshot.EncodeCampaign, snapshot.DecodeCampaign)
	prescan := pipeline.AddStage(r, experiments.StagePreScan, fp, []pipeline.Handle{world, setupH}, campCodec,
		func(ctx context.Context) (camp *cacheprobe.Campaign, err error) {
			err = c.stage(experiments.StagePreScan, func(id int) error {
				camp = cacheprobe.NewCampaign()
				c.tr.do("cacheprobe.prescan", id, func(int) { err = setup().prober.PreScan(ctx, camp) })
				return err
			})
			return camp, err
		})
	return pipeline.AddStage(r, experiments.StageCalibrate, fp, []pipeline.Handle{setupH, prescan}, campCodec,
		func(ctx context.Context) (*cacheprobe.Campaign, error) {
			camp := prescan.Out()
			err := c.stage(experiments.StageCalibrate, func(id int) error {
				e := setup()
				c.tr.do("cacheprobe.calibrate", id, func(int) { e.prober.Calibrate(ctx, e.pops, camp) })
				return nil
			})
			return camp, err
		})
}

// passArtifact is a probing pass's output: the cumulative campaign and
// the pass's own delta, the only part that checkpoints.
type passArtifact struct {
	Camp  *cacheprobe.Campaign
	Delta *cacheprobe.PassDelta
	// hour is a stream hour's delta, in place of Delta.
	hour *stream.HourDelta
}

// passCodec decodes a pass delta and folds it into the upstream
// campaign; the fold is a cacheprobe call inside the decode span.
func (c *composer) passCodec(upCamp func() *cacheprobe.Campaign, upHash func() string) *pipeline.Codec[*passArtifact] {
	return &pipeline.Codec[*passArtifact]{
		Kind: snapshot.KindCampaignDelta, Version: snapshot.VersionCampaignDelta,
		Encode: func(w *snapshot.Writer, a *passArtifact) {
			id := c.tr.begin("snapshot.encode", 0)
			defer c.tr.end(id)
			snapshot.EncodePassDelta(w, a.Delta)
		},
		Decode: func(r *snapshot.Reader) (*passArtifact, error) {
			id := c.tr.begin("snapshot.decode", 0)
			defer c.tr.end(id)
			d, err := snapshot.DecodePassDelta(r)
			if err != nil {
				return nil, err
			}
			if base := upHash(); d.Base != base {
				return nil, fmt.Errorf("delta applies to base %.12s, upstream is %.12s", d.Base, base)
			}
			camp := upCamp()
			c.tr.do("cacheprobe.apply", id, func(int) { d.Apply(camp) })
			return &passArtifact{Camp: camp, Delta: d}, nil
		},
	}
}

type baselineArtifact struct {
	CDN   *cdn.Datasets
	APNIC *apnic.Estimates
	ASDB  *asdb.DB
}

// campaignOutputs is what a composed campaign produced.
type campaignOutputs struct {
	// pipeline is the time to the end of the probing chain's last stage.
	pipeline time.Duration
	probes   int64
	payload  string
	sha      string
}

// composeCampaign runs (or, with resume, restores) the batch evaluation.
func (c *composer) composeCampaign(resume bool) (campaignOutputs, error) {
	ctx := context.Background()
	start := time.Now()
	campStart := clockx.Epoch
	campDur, passes, traceDur := 120*time.Hour, 9, 48*time.Hour
	campEnd := campStart.Add(campDur)
	r := c.runner(resume)
	base := fmt.Sprintf("seed=%d scale=%s", c.seed, c.scale.Name)
	world := c.world(r, base)
	setup := pipeline.AddStage(r, experiments.StageSetup, base, []pipeline.Handle{world}, nil,
		func(ctx context.Context) (e *env, err error) {
			err = c.stage(experiments.StageSetup, func(id int) error {
				e, err = c.prober(ctx, id, world.Out(), campDur, passes)
				return err
			})
			return e, err
		})
	calibrate := c.scanChain(r, base, world, setup.Out, setup)

	upH := pipeline.Handle(calibrate)
	upCamp := calibrate.Out
	upHash := calibrate.ArtifactHash
	var last *pipeline.Stage[*passArtifact]
	for k := 0; k < passes; k++ {
		k, uc, uh := k, upCamp, upHash
		name := experiments.ProbePassStage(k)
		st := pipeline.AddStage(r, name, fmt.Sprintf("%s pass=%d", base, k), []pipeline.Handle{setup, upH}, c.passCodec(uc, uh),
			func(ctx context.Context) (a *passArtifact, err error) {
				err = c.stage(name, func(id int) error {
					e, camp := setup.Out(), uc()
					asg := e.assignments(c.tr, id, camp)
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					var d *cacheprobe.PassDelta
					c.tr.do("cacheprobe.pass", id, func(int) {
						d, err = e.prober.ProbePassDelta(ctx, e.pops, asg, k, campStart, camp)
					})
					runtime.ReadMemStats(&m1)
					if err != nil {
						return err
					}
					d.Base = uh()
					c.mu.Lock()
					c.passes[k] = passStat{probes: d.ProbesSent, hits: len(d.Hits), mallocs: m1.Mallocs - m0.Mallocs}
					c.mu.Unlock()
					a = &passArtifact{Camp: camp, Delta: d}
					return nil
				})
				return a, err
			})
		upH, upHash = st, st.ArtifactHash
		upCamp = func() *cacheprobe.Campaign { return st.Out().Camp }
		last = st
	}
	pipeline.AddStage(r, experiments.StageFinish, "", []pipeline.Handle{setup, last}, nil,
		func(ctx context.Context) (struct{}, error) {
			return struct{}{}, c.stage(experiments.StageFinish, func(int) error {
				setup.Out().prober.FinishProbing(campStart)
				return nil
			})
		})

	pipeline.AddStage(r, experiments.StageDNSLogs, base, []pipeline.Handle{world},
		codec(c.tr, snapshot.KindDNSLogs, snapshot.VersionDNSLogs, snapshot.EncodeDNSLogs, snapshot.DecodeDNSLogs),
		func(ctx context.Context) (res *dnslogs.Result, err error) {
			err = c.stage(experiments.StageDNSLogs, func(id int) error {
				res, err = c.dnsLogs(id, world.Out(), campEnd.Add(-traceDur), traceDur)
				return err
			})
			return res, err
		})

	baselines := pipeline.AddStage(r, experiments.StageBaselines, base, []pipeline.Handle{world},
		codec(c.tr, "experiments.Baselines", 1, encodeBaselines, decodeBaselines),
		func(ctx context.Context) (b *baselineArtifact, err error) {
			err = c.stage(experiments.StageBaselines, func(id int) error {
				sys := world.Out()
				c.tr.do("baselines.collect", id, func(int) {
					b = &baselineArtifact{
						CDN:   cdn.Collect(sys.Model, campEnd.Add(-24*time.Hour)),
						APNIC: apnic.Estimate(sys.World, apnic.Config{}),
						ASDB:  asdb.FromWorld(sys.World, asdb.DefaultCoverage),
					}
				})
				return nil
			})
			return b, err
		})

	if err := r.Run(ctx); err != nil {
		return campaignOutputs{}, err
	}
	sys, camp := world.Out(), last.Out().Camp
	cm := serve.Build(serve.BuildInput{
		Meta: serve.Meta{
			Seed: uint64(c.seed), Scale: c.scale.Name, Passes: camp.Passes,
			Source: "experiments", BuiltAt: sys.Clock.Now().UTC(),
		},
		Campaign:     camp,
		RV:           sys.RV,
		ClientVolume: clientVolume(baselines.Out().CDN),
	})
	data, payload := serve.Marshal(cm)
	return campaignOutputs{pipeline: c.stageEnd(experiments.StageFinish, start), probes: int64(camp.ProbesSent), payload: payload, sha: bytesSHA(data)}, nil
}

// clientVolume is the Microsoft-clients view's per-/24 request volume,
// the traffic model the serving artifact carries.
func clientVolume(d *cdn.Datasets) map[netx.Slash24]float64 {
	ps := make([]netx.Slash24, 0, len(d.Clients.Volume))
	for p := range d.Clients.Volume {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	out := make(map[netx.Slash24]float64, len(ps))
	for _, p := range ps {
		out[p] += float64(d.Clients.Volume[p])
	}
	return out
}

func encodeBaselines(w *snapshot.Writer, b *baselineArtifact) {
	snapshot.EncodeCDN(w, b.CDN)
	snapshot.EncodeAPNIC(w, b.APNIC)
	snapshot.EncodeASDB(w, b.ASDB)
}

func decodeBaselines(r *snapshot.Reader) (*baselineArtifact, error) {
	b := &baselineArtifact{}
	var err error
	if b.CDN, err = snapshot.DecodeCDN(r); err != nil {
		return nil, err
	}
	if b.APNIC, err = snapshot.DecodeAPNIC(r); err != nil {
		return nil, err
	}
	b.ASDB, err = snapshot.DecodeASDB(r)
	return b, err
}

// countingWriter counts the bytes roots writes into one trace file.
type countingWriter struct {
	io.WriteCloser
	c *composer
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.c.mu.Lock()
	w.c.traceBytes += int64(n)
	w.c.mu.Unlock()
	return n, err
}

// dnsLogs generates the DITL traces into the state directory and crawls
// them, as the batch run's DITL stage does.
func (c *composer) dnsLogs(parent int, sys *sim.System, from time.Time, d time.Duration) (*dnslogs.Result, error) {
	dir := filepath.Join(c.dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var stats roots.Stats
	var err error
	c.tr.do("roots.gen", parent, func(int) {
		stats, err = roots.NewGenerator(sys.Model).Generate(roots.GenConfig{Start: from, Duration: d, PerSourceHourCap: 8},
			func(letter string) (io.WriteCloser, error) {
				f, err := os.Create(filepath.Join(dir, "root-"+letter+".ditl"))
				return countingWriter{f, c}, err
			})
	})
	if err != nil {
		return nil, fmt.Errorf("trace generation: %w", err)
	}
	c.traceRecords = stats.Records
	var res *dnslogs.Result
	c.tr.do("dnslogs.crawl", parent, func(int) {
		res, err = dnslogs.Crawl(dnslogs.Config{}, func(letter string) (io.ReadCloser, error) {
			return os.Open(filepath.Join(dir, "root-"+letter+".ditl"))
		})
	})
	return res, err
}

// repair runs the resume-time state check the batch run performs.
func (c *composer) repair() error {
	var err error
	c.tr.do("statefsck.repair", 0, func(int) {
		_, err = statefsck.Repair(statefs.Disk{}, c.dir, statefsck.Options{MinTmpAge: time.Minute})
	})
	return err
}

// streamOutputs is what a composed stream produced.
type streamOutputs struct {
	pipeline  time.Duration
	probes    int64
	finalHash string
	views     []stream.HourView
}

// streamEnv adds the stream state machine, built at the first hour.
type streamEnv struct {
	*env
	scfg     stream.Config
	exporter *serve.RollingExporter
	once     sync.Once
	st       *stream.State
	senv     *stream.Env
}

func (e *streamEnv) stream(tr *tracer, parent int, camp *cacheprobe.Campaign) (*stream.State, *stream.Env) {
	e.once.Do(func() {
		asg := e.assignments(tr, parent, camp)
		plan := e.scfg.Churn.Plan(e.scfg.Hours, e.sys.World)
		e.st = stream.NewState(e.scfg, plan, asg)
		e.senv = &stream.Env{World: e.sys.World, Model: e.sys.Model, Asg: asg, Epoch: clockx.Epoch}
		if lf := e.sys.Google.LazyFill(); lf != nil {
			e.senv.InvalidateRates = lf.Invalidate
		}
	})
	return e.st, e.senv
}

// composeStream runs the continuous mode hour by hour.
func (c *composer) composeStream(ch churn.Config, artifact string) (streamOutputs, error) {
	ctx := context.Background()
	start := time.Now()
	campStart := clockx.Epoch
	ch.Seed = c.seed
	scfg := stream.Config{Seed: c.seed, Scale: c.scale.Name, Hours: streamHours, EmitEvery: 1, Churn: ch}.WithDefaults()
	r := c.runner(false)
	base := fmt.Sprintf("seed=%d scale=%s stream{%s}", c.seed, c.scale.Name, scfg.Fingerprint())
	world := c.world(r, base)
	setup := pipeline.AddStage(r, "stream-setup", base, []pipeline.Handle{world}, nil,
		func(ctx context.Context) (se *streamEnv, err error) {
			err = c.stage("stream-setup", func(id int) error {
				e, err := c.prober(ctx, id, world.Out(), streamHours*time.Hour, streamHours)
				se = &streamEnv{env: e, scfg: scfg, exporter: &serve.RollingExporter{Path: artifact, FS: c.fs}}
				return err
			})
			return se, err
		})
	calibrate := c.scanChain(r, base, world, func() *env { return setup.Out().env }, setup)

	upH := pipeline.Handle(calibrate)
	upCamp := calibrate.Out
	upHash := calibrate.ArtifactHash
	var last *pipeline.Stage[*passArtifact]
	for k := 0; k < streamHours; k++ {
		k, uc, uh := k, upCamp, upHash
		name := experiments.StreamHourStage(k)
		hourCodec := &pipeline.Codec[*passArtifact]{
			Kind: snapshot.KindStreamDelta, Version: snapshot.VersionStreamDelta,
			Encode: func(w *snapshot.Writer, a *passArtifact) {
				id := c.tr.begin("snapshot.hour_encode", 0)
				defer c.tr.end(id)
				stream.EncodeHourDelta(w, a.hour)
			},
			Decode: func(*snapshot.Reader) (*passArtifact, error) {
				return nil, fmt.Errorf("the traced stream never restores")
			},
		}
		st := pipeline.AddStage(r, name, fmt.Sprintf("%s hour=%d", base, k), []pipeline.Handle{setup, upH}, hourCodec,
			func(ctx context.Context) (a *passArtifact, err error) {
				err = c.stage(name, func(id int) error {
					e, camp := setup.Out(), uc()
					st, senv := e.stream(c.tr, id, camp)
					var hp *stream.HourPlan
					c.tr.do("stream.begin_hour", id, func(int) { hp = st.BeginHour(senv) })
					var pass *cacheprobe.PassDelta
					c.tr.do("cacheprobe.subset_pass", id, func(int) {
						pass, err = e.prober.ProbePassDelta(ctx, e.pops, hp.Sub, k, campStart, camp)
					})
					if err != nil {
						return err
					}
					pass.Base = uh()
					d := &stream.HourDelta{Hour: k, Events: hp.Events, Pass: pass}
					c.tr.do("stream.dnstick", id, func(int) { d.DNS = stream.DNSTick(senv, st.Cfg, k) })
					var out *stream.ClientMapOut
					c.tr.do("stream.finish_hour", id, func(int) { _, out = st.FinishHour(hp, d, senv) })
					if out != nil {
						c.tr.do("serve.export", id, func(int) { _, _, err = e.exporter.Export(out.Map) })
					}
					a = &passArtifact{Camp: camp, hour: d}
					return err
				})
				return a, err
			})
		upH, upHash = st, st.ArtifactHash
		upCamp = func() *cacheprobe.Campaign { return st.Out().Camp }
		last = st
	}
	pipeline.AddStage(r, experiments.StageStreamFinish, "", []pipeline.Handle{setup, last}, nil,
		func(ctx context.Context) (struct{}, error) {
			return struct{}{}, c.stage(experiments.StageStreamFinish, func(int) error {
				setup.Out().prober.FinishProbing(campStart)
				return nil
			})
		})
	if err := r.Run(ctx); err != nil {
		return streamOutputs{}, err
	}
	se := setup.Out()
	st, senv := se.stream(c.tr, 0, last.Out().Camp)
	out := streamOutputs{probes: int64(last.Out().Camp.ProbesSent), views: st.Views}
	if fm := st.FinalMap(senv); fm != nil {
		out.finalHash = fm.Hash
		if _, _, err := se.exporter.Export(fm.Map); err != nil {
			return out, err
		}
	}
	out.pipeline = c.stageEnd(experiments.StageStreamFinish, start)
	return out, nil
}
