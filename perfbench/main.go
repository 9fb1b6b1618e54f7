package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// Gated metric names. They must match BENCHMARK.json: every untraced
// run reports each end-to-end metric, every traced run each per-layer
// metric (0 where the workload does not run that layer).
var endToEnd = []string{"setup_s", "op_p50_us"}

var perLayer = []struct{ name, unit string }{
	{"world.build_s", "s"},
	{"cacheprobe.prescan_s", "s"},
	{"cacheprobe.calibrate_s", "s"},
	{"cacheprobe.assign_s", "s"},
	{"cacheprobe.pass0_s", "s"},
	{"cacheprobe.pass_p50_s", "s"},
	{"cacheprobe.probes_per_s", "1/s"},
	{"cacheprobe.allocs_per_probe", "count"},
	{"cacheprobe.hit_ratio", "ratio"},
	{"cacheprobe.pass_speedup_x", "x"},
	{"roots.gen_s", "s"},
	{"roots.trace_mb", "MB"},
	{"dnslogs.crawl_s", "s"},
	{"dnslogs.records_per_s", "1/s"},
	{"baselines.collect_s", "s"},
	{"pipeline.chain_probe_s", "s"},
	{"pipeline.chain_ditl_s", "s"},
	{"pipeline.chain_baselines_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.encode_mb", "MB"},
	{"statefs.write_s", "s"},
	{"statefsck.repair_s", "s"},
	{"statefs.read_s", "s"},
	{"snapshot.decode_s", "s"},
	{"stream.begin_hour_ms", "ms"},
	{"cacheprobe.subset_pass_ms", "ms"},
	{"stream.dnstick_ms", "ms"},
	{"stream.finish_hour_ms", "ms"},
	{"serve.export_ms", "ms"},
	{"snapshot.hour_encode_ms", "ms"},
	{"statefs.hour_write_ms", "ms"},
	{"stream.probes_per_hour", "count"},
	{"stream.fresh_hit_ratio", "ratio"},
	{"serve.decode_ms", "ms"},
	{"serve.index_build_ms", "ms"},
	{"serve.lookup_ns", "ns"},
	{"serve.dns_handler_ns", "ns"},
	{"serve.dns_handler_allocs", "count"},
	{"serve.http_handler_ns", "ns"},
	{"serve.http_handler_allocs", "count"},
	{"serve.dns_cache_hit_ratio", "ratio"},
	{"serve.http_cache_hit_ratio", "ratio"},
	{"serve.cpu_us_per_query", "us"},
	{"dnsnet.dns_wire_overhead_x", "x"},
	{"dnsnet.http_wire_overhead_x", "x"},
	{"serve.dns_p99_us", "us"},
	{"serve.http_p99_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

const defaultSeed = 2021

// referenceHashes are artifact payload hashes recorded for the default
// seed: a run on that seed must reproduce them exactly.
var referenceHashes = map[string]string{
	"campaign": "3f021fe1c3379cd5a9fbd79cb39e71ac2c89b4710b9cc8711bb5bcffa842c5f5",
	"stream":   "87d2f49c0254988b97568aa1b01f14c21cb354376a2e404b750471bd83d4f3e6",
}

type metric struct {
	name, unit string
	value      float64
	n          int
}

type check struct {
	name   string
	ok     bool
	detail string
}

// result is everything one run reports.
type result struct {
	metrics           []metric
	checks            []check
	attempted, failed int64
}

func (r *result) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// bench is one invocation's context.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	// root is the checkout the benchmark runs in; work is this run's
	// working directory under it, removed at exit.
	root, work string
	self       string
	tr         *tracer
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2], os.Args[3:]))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	var (
		workload = flag.String("workload", "", "campaign, stream or serve")
		seed     = flag.Uint64("seed", defaultSeed, "seed every input is derived from")
		seconds  = flag.Int("seconds", 10, "measurement length of the serve open loop")
		trace    = flag.Int("trace", 0, "1 runs the traced composition and reports per-layer metrics")
	)
	flag.Parse()
	run := map[string]func(*bench, *result) error{
		"campaign": runCampaign,
		"stream":   runStream,
		"serve":    runServe,
	}[*workload]
	if run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload campaign|stream|serve [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, root: root, self: self}
	b.work = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	// Children put their temporary files (DITL traces of unpersisted
	// runs) in the run's working directory too.
	os.Setenv("TMPDIR", b.work)
	if b.traced {
		b.tr = newTracer()
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", b.workload, b.seed, b.seconds, *trace)
	fmt.Printf("provenance %s\n", provenance(b))
	var res result
	if err := run(b, &res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.traced {
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))
		if err := writeSpans(path, b.tr.snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans %s\n", path)
	}
	out, err := report(b, &res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	fmt.Println(out)
	if !res.correct() {
		return 1
	}
	return 0
}

// report prints every metric and check by name and returns the final
// JSON line: the gated metrics of this kind of run.
func report(b *bench, res *result) (string, error) {
	byName := map[string]metric{}
	for _, m := range res.metrics {
		fmt.Printf("metric %-30s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		byName[m.name] = m
	}
	for _, c := range res.checks {
		state := "ok"
		if !c.ok {
			state = "FAIL"
		}
		fmt.Printf("check %-24s %-4s %s\n", c.name, state, c.detail)
	}
	fmt.Printf("ops attempted=%d failed=%d\n", res.attempted, res.failed)

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	gated := map[string]jm{}
	if b.traced {
		for _, l := range perLayer {
			m, ok := byName[l.name]
			if ok && m.unit != l.unit {
				return "", fmt.Errorf("metric %s measured in %s, declared in %s", l.name, m.unit, l.unit)
			}
			gated[l.name] = jm{m.value, l.unit}
		}
	} else {
		for _, name := range endToEnd {
			m, ok := byName[name]
			if !ok {
				return "", fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			gated[name] = jm{m.value, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, gated})
	return string(line), err
}

// provenance identifies the host, toolchain and source a result came
// from.
func provenance(b *bench) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	p, _ := json.Marshal(map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceID(b.root),
		"seed":       b.seed,
	})
	return string(p)
}

// sourceID names the source the benchmark built: the git commit when the
// checkout is a repository, otherwise a hash over the module's Go
// sources and go.mod files.
func sourceID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// childRun is what a finished child process left behind.
type childRun struct {
	out    json.RawMessage
	maxRSS int64 // bytes
}

// child runs one role of the benchmark binary as its own process, so
// every measured workload starts from a fresh heap and its peak memory
// can be read from outside. args are passed as JSON; the child's last
// "result" line is returned.
func (b *bench) child(role string, args any) (childRun, error) {
	a, err := json.Marshal(args)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(b.self, "child", role, string(a))
	cmd.Dir = b.root
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err = cmd.Run()
	var run childRun
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.maxRSS = ru.Maxrss * 1024
	}
	if err != nil {
		return run, fmt.Errorf("child %s: %w", role, err)
	}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "result "); ok {
			run.out = json.RawMessage(rest)
		}
	}
	if run.out == nil {
		return run, fmt.Errorf("child %s printed no result", role)
	}
	return run, nil
}

// decodeChild runs a child and decodes its result into out.
func (b *bench) decodeChild(role string, args, out any) (childRun, error) {
	run, err := b.child(role, args)
	if err != nil {
		return run, err
	}
	if err := json.Unmarshal(run.out, out); err != nil {
		return run, fmt.Errorf("child %s: %w", role, err)
	}
	return run, nil
}

// dir returns a fresh directory under the run's working directory.
func (b *bench) dir(name string) (string, error) {
	d := filepath.Join(b.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// childMain dispatches a child role and prints its result.
func childMain(role string, args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench child: want one JSON argument")
		return 2
	}
	f := childRoles[role]
	if f == nil {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown role %q\n", role)
		return 2
	}
	out, err := f([]byte(args[0]))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", role, err)
		return 1
	}
	return printResult(out)
}

func printResult(out any) int {
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	fmt.Printf("result %s\n", line)
	return 0
}

// childRoles maps a role to its entry point; each decodes its own args.
var childRoles = map[string]func(args []byte) (any, error){}

func role[A any, R any](name string, f func(A) (R, error)) {
	childRoles[name] = func(raw []byte) (any, error) {
		var a A
		if err := json.Unmarshal(raw, &a); err != nil {
			return nil, err
		}
		return f(a)
	}
}

func bytesSHA(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
