package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
	"clientmap/internal/serve"
)

// The serve workload's fixed shape.
const (
	// closedQueries is the closed loop's fixed amount of work.
	closedQueries = 60000
	// openRate is the open loop's offered load, in queries per second;
	// the open loop lasts half of --seconds.
	openRate = 4000
	// The artifact is a medium campaign cut to one probing pass and two
	// hours of DITL traces, so building it fits the run; it still has
	// more active /24s than the daemon's response caches hold.
	artifactPasses, artifactTraceHours = 1, 2
)

// runServe measures clientmapd serving a medium artifact.
func runServe(b *bench, res *result) error {
	art := filepath.Join(b.work, "map.snap")
	if _, err := b.decodeChild("campaign", campaignArgs{
		Seed: b.seed, Passes: artifactPasses, TraceHours: artifactTraceHours, Artifact: art,
	}, &campaignOut{}); err != nil {
		return err
	}
	// Open-loop DNS IDs must stay unique: at most 2^16 queries.
	nOpen := min(openRate*b.seconds/2, 60000)
	qs, want, hw, active24s, err := planServe(b, art, closedQueries+nOpen)
	if err != nil {
		return err
	}
	closedQs, openQs := qs[:closedQueries], qs[closedQueries:]
	closedWant, openWant := want[:closedQueries], want[closedQueries:]
	// Set-up ends when the daemon answers the plan's first DNS and first
	// HTTP query correctly.
	d0, h0 := firstOf(qs, true), firstOf(qs, false)
	probe, probeWant := []query{qs[d0], qs[h0]}, []answer{want[d0], want[h0]}

	// Each set-up starts a daemon with cold caches and runs the closed
	// loop once; the last daemon then runs the open loop. The host only
	// ever slows a loop down, so op_p50_us is the fastest loop's median
	// (as the stream takes each hour's cheaper run).
	var setups, loopP50, loopQPS []float64
	var d *daemon
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var closed []answer
	var wall time.Duration
	var cpu0, cpu1 time.Duration
	var before map[string]int64
	cFailed, cBad := 0, ""
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		if d, err = startDaemon(b, art, probe, probeWant); err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
		if i == reps-1 {
			if before, err = d.counters(); err != nil {
				return err
			}
			cpu0 = d.cpu()
		}
		if closed, wall, err = closedLoop(d.dnsAddr, d.httpAddr, closedQs, nil); err != nil {
			return err
		}
		failed, bad := verify(closedQs, closed, closedWant)
		cFailed += failed
		if cBad == "" {
			cBad = bad
		}
		all, _, _ := latencies(closedQs, closed)
		loopP50 = append(loopP50, all.median()*1000)
		loopQPS = append(loopQPS, float64(len(closedQs))/wall.Seconds())
	}
	defer func() { d.stop() }()
	cpu1 = d.cpu()
	open, due, sent, err := openLoop(d.dnsAddr, d.httpAddr, openQs, openRate)
	if err != nil {
		return err
	}
	after, err := d.counters()
	if err != nil {
		return err
	}
	hwm := d.peakRSS()
	if err := d.stop(); err != nil {
		return err
	}

	oFailed, oBad := verify(openQs, open, openWant)
	res.attempted = int64(reps*len(closedQs) + len(openQs))
	res.failed = int64(cFailed + oFailed)
	res.check("closed_loop_answers", cFailed == 0, "%d of %d failed%s", cFailed, reps*len(closedQs), cBad)
	res.check("open_loop_answers", oFailed == 0, "%d of %d failed%s", oFailed, len(openQs), oBad)

	openAll, openDNS, openHTTP := latencies(openQs, open)
	_, closedDNS, closedHTTP := latencies(closedQs, closed)
	late := lateStats(due, sent)
	sd := newDist(setups)
	if !b.traced {
		res.add("setup_s", "s", sd.median(), len(sd))
		res.add("op_p50_us", "us", slices.Min(loopP50), len(loopP50))
		res.add("serve_qps", "1/s", newDist(loopQPS).median(), len(loopQPS))
		res.add("peak_rss_mb", "MB", float64(hwm)/1e6, 1)
		res.add("active_24s", "count", float64(active24s), 1)
		res.add("open_p50_us", "us", openAll.median()*1000, len(openAll))
		res.add("dns_p50_us", "us", openDNS.median()*1000, len(openDNS))
		res.add("http_p50_us", "us", openHTTP.median()*1000, len(openHTTP))
		p, v := openDNS.tail()
		res.add(fmt.Sprintf("dns_p%g_us", p), "us", v*1000, len(openDNS))
		p, v = openHTTP.tail()
		res.add(fmt.Sprintf("http_p%g_us", p), "us", v*1000, len(openHTTP))
		res.add("loadgen_late_p50_us", "us", float64(late.P50)/1e3, late.N)
		res.add(fmt.Sprintf("loadgen_late_p%g_us", late.TailP), "us", float64(late.Tail)/1e3, late.N)
		res.add("loadgen_late_max_us", "us", float64(late.Max)/1e3, late.N)
		res.add("loadgen_behind_1ms", "count", float64(late.Behind), late.N)
		return nil
	}

	// Traced: the layers below the wire, in process, then the same
	// closed loop against a fresh daemon with a span per query.
	res.add("serve.decode_ms", "ms", b.timed("serve.decode", 3, func() { serve.ReadFile(art) }), 3)
	cm, hash, err := serve.ReadFile(art)
	if err != nil {
		return err
	}
	res.add("serve.index_build_ms", "ms", b.timed("serve.index_build", 3, func() { serve.NewIndex(cm, 1, hash) }), 3)
	ns, lookups := lookupNs(b, serve.NewIndex(cm, 1, hash), closedQs)
	res.add("serve.lookup_ns", "ns", ns, lookups)
	res.add("serve.dns_handler_ns", "ns", hw.dnsNs, hw.dnsN)
	res.add("serve.dns_handler_allocs", "count", hw.dnsAllocs, hw.dnsN)
	res.add("serve.http_handler_ns", "ns", hw.httpNs, hw.httpN)
	res.add("serve.http_handler_allocs", "count", hw.httpAllocs, hw.httpN)
	ratio := func(hits, total string) float64 {
		return float64(after[hits]-before[hits]) / float64(max(after[total]-before[total], 1))
	}
	res.add("serve.dns_cache_hit_ratio", "ratio", ratio("serve.dns.cache_hits", "serve.dns.queries"), int(after["serve.dns.queries"]-before["serve.dns.queries"]))
	res.add("serve.http_cache_hit_ratio", "ratio", ratio("serve.http.cache_hits", "serve.http.queries"), int(after["serve.http.queries"]-before["serve.http.queries"]))
	res.add("serve.cpu_us_per_query", "us", (cpu1-cpu0).Seconds()*1e6/float64(len(closedQs)-cFailed), len(closedQs))
	res.add("dnsnet.dns_wire_overhead_x", "x", closedDNS.median()*1e6/hw.dnsNs, len(closedDNS))
	res.add("dnsnet.http_wire_overhead_x", "x", closedHTTP.median()*1e6/hw.httpNs, len(closedHTTP))
	res.add("serve.dns_p99_us", "us", openDNS.pct(99)*1000, len(openDNS))
	res.add("serve.http_p99_us", "us", openHTTP.pct(99)*1000, len(openHTTP))
	res.add("loadgen.late_p99_us", "us", float64(late.P99)/1e3, late.N)

	if d, err = startDaemon(b, art, probe, probeWant); err != nil {
		return err
	}
	traced, twall, err := closedLoop(d.dnsAddr, d.httpAddr, closedQs, func(q query, f func()) {
		name := "loadgen.http_query"
		if q.dns {
			name = "loadgen.dns_query"
		}
		b.tr.do(name, 0, func(int) { f() })
	})
	if err != nil {
		return err
	}
	tFailed, tBad := verify(closedQs, traced, closedWant)
	res.check("traced_closed_loop_answers", tFailed == 0, "%d of %d failed%s", tFailed, len(closedQs), tBad)
	res.add("trace.overhead_frac", "ratio", twall.Seconds()/wall.Seconds()-1, len(closedQs))
	return nil
}

// timed runs f n times, each inside a span, and returns the median in ms.
func (b *bench) timed(name string, n int, f func()) float64 {
	var ds []time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		b.tr.do(name, 0, func(int) { f() })
		ds = append(ds, time.Since(t))
	}
	return durDist(ds, time.Millisecond).median()
}

// lookupNs is the mean index lookup time over the plan's /24 targets,
// median of five rounds, and the number of targets.
func lookupNs(b *bench, ix *serve.Index, qs []query) (float64, int) {
	var addrs []netx.Addr
	for _, q := range qs {
		if q.hasAddr {
			addrs = append(addrs, q.addr)
		}
	}
	var rounds []float64
	for r := 0; r < 5; r++ {
		b.tr.do("serve.lookup", 0, func(int) {
			t := time.Now()
			for _, a := range addrs {
				ix.LookupAddr(a)
			}
			rounds = append(rounds, float64(time.Since(t).Nanoseconds())/float64(max(len(addrs), 1)))
		})
	}
	return newDist(rounds).median(), len(addrs)
}

// firstOf is the index of the first DNS (or HTTP) query.
func firstOf(qs []query, dns bool) int {
	for i, q := range qs {
		if q.dns == dns {
			return i
		}
	}
	return 0
}

// handlerWork is the in-process replay's per-query cost.
type handlerWork struct {
	dnsNs, httpNs         float64
	dnsAllocs, httpAllocs float64
	dnsN, httpN           int
}

// planServe builds the serve.PlanLoad query mix over the artifact and
// every expected answer, by replaying the plan through an in-process
// daemon's handlers (the replay is also the handler-cost measurement).
func planServe(b *bench, art string, n int) (qs []query, want []answer, hw handlerWork, active24s int, err error) {
	d := serve.NewDaemon(serve.Config{ArtifactPath: art, RateLimit: serve.LimiterConfig{Rate: -1}})
	if err := d.Start(); err != nil {
		return nil, nil, hw, 0, err
	}
	defer d.Close()
	active24s = d.Store().Current().Stats().Active24s
	plan := serve.PlanLoad(d.Store().Current(), serve.LoadConfig{Seed: randx.Seed(b.seed), Queries: n})
	qs = make([]query, len(plan.Queries))
	msgs := make([]*dnswire.Message, len(qs))
	reqs := make([]*http.Request, len(qs))
	for i, p := range plan.Queries {
		q := query{dns: p.Transport == "dns", id: uint16(i), addr: p.Target.AddrAt(1), hasAddr: p.Kind != "as"}
		if q.dns {
			name := serve.FormatReverseName(q.addr, serve.DefaultZone)
			if p.Kind == "as" {
				name = serve.FormatASName(p.ASN, serve.DefaultZone)
			}
			qtype := dnswire.TypeA
			if i%4 == 3 {
				qtype = dnswire.TypeTXT
			}
			wire, err := dnswire.NewQuery(q.id, name, qtype).Marshal()
			if err != nil {
				return nil, nil, hw, 0, err
			}
			q.wire = wire
			// The server parses the datagram before its handler runs.
			if msgs[i], err = dnswire.Unmarshal(wire); err != nil {
				return nil, nil, hw, 0, err
			}
		} else {
			q.path = "/v1/ip/" + q.addr.String()
			if p.Kind == "as" {
				q.path = fmt.Sprintf("/v1/as/%d", p.ASN)
			}
			var err error
			if reqs[i], err = http.NewRequest(http.MethodGet, q.path, nil); err != nil {
				return nil, nil, hw, 0, err
			}
			reqs[i].RemoteAddr = "127.0.0.1:1"
		}
		qs[i] = q
	}

	want = make([]answer, len(qs))
	ctx := context.Background()
	from := netx.AddrFrom4(127, 0, 0, 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i, q := range qs {
		if q.dns {
			body, err := d.DNSHandler().ServeDNS(ctx, from, msgs[i]).Marshal()
			want[i] = answer{ok: err == nil, body: body}
			hw.dnsN++
		}
	}
	hw.dnsNs = float64(time.Since(t).Nanoseconds()) / float64(max(hw.dnsN, 1))
	runtime.ReadMemStats(&m1)
	hw.dnsAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(max(hw.dnsN, 1))
	w := &bodyWriter{h: http.Header{}}
	runtime.ReadMemStats(&m0)
	t = time.Now()
	for i, q := range qs {
		if !q.dns {
			w.code, w.body = http.StatusOK, nil
			clear(w.h)
			d.HTTPHandler().ServeHTTP(w, reqs[i])
			want[i] = answer{ok: true, code: w.code, body: w.body}
			hw.httpN++
		}
	}
	hw.httpNs = float64(time.Since(t).Nanoseconds()) / float64(max(hw.httpN, 1))
	runtime.ReadMemStats(&m1)
	hw.httpAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(max(hw.httpN, 1))
	return qs, want, hw, active24s, nil
}

// bodyWriter is the least http.ResponseWriter the handler can answer
// into.
type bodyWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *bodyWriter) Header() http.Header  { return w.h }
func (w *bodyWriter) WriteHeader(code int) { w.code = code }
func (w *bodyWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// verify compares every answer with the in-process handler's, byte for
// byte. Timeouts, REFUSED, SERVFAIL, non-200 answers and mismatches
// fail; the first failure is described.
func verify(qs []query, got, want []answer) (failed int, first string) {
	for i, q := range qs {
		g := got[i]
		var why string
		switch {
		case !g.ok:
			why = "no answer"
		case q.dns && (len(g.body) < 4 || g.body[3]&0xf == byte(dnswire.RCodeServFail) || g.body[3]&0xf == byte(dnswire.RCodeRefused)):
			why = "REFUSED or SERVFAIL"
		case !q.dns && g.code != http.StatusOK:
			why = fmt.Sprintf("HTTP %d", g.code)
		case !bytes.Equal(g.body, want[i].body) || g.code != want[i].code:
			why = "answer differs from the in-process handler's"
		}
		if why != "" {
			failed++
			if first == "" {
				first = fmt.Sprintf("; first: query %d (%s%s): %s", i, q.path, dnsName(q), why)
			}
		}
	}
	return failed, first
}

func dnsName(q query) string {
	if !q.dns {
		return ""
	}
	if m, err := dnswire.Unmarshal(q.wire); err == nil && len(m.Questions) > 0 {
		return m.Questions[0].Name
	}
	return "?"
}

// latencies splits answered queries' latencies, in ms.
func latencies(qs []query, as []answer) (all, dns, http dist) {
	var a, d, h []time.Duration
	for i, q := range qs {
		if !as[i].ok {
			continue
		}
		a = append(a, as[i].lat)
		if q.dns {
			d = append(d, as[i].lat)
		} else {
			h = append(h, as[i].lat)
		}
	}
	return durDist(a, time.Millisecond), durDist(d, time.Millisecond), durDist(h, time.Millisecond)
}

// daemon is one running clientmapd process.
type daemon struct {
	cmd                         *exec.Cmd
	dnsAddr, httpAddr, debugURL string
	setup                       time.Duration
	done                        chan struct{}
}

// startDaemon execs clientmapd on ephemeral loopback ports with the
// limiter and reload off, and returns once it has answered the probe
// queries correctly; setup is the time from exec to that moment.
func startDaemon(b *bench, art string, probe []query, want []answer) (*daemon, error) {
	bin := filepath.Join(b.root, ".bench_build", "clientmapd")
	cmd := exec.Command(bin, "-artifact", art, "-http", "127.0.0.1:0", "-dns", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0", "-rate=-1", "-reload=0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrs := make(chan [3]string, 1)
	go func() {
		defer close(d.done)
		var got [3]string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			for i, prefix := range []string{"clientmapd: dns on ", "clientmapd: http api on ", "clientmapd: debug mux on "} {
				if rest, ok := strings.CutPrefix(line, prefix); ok {
					got[i], _, _ = strings.Cut(rest, " ")
				}
			}
			if got[0] != "" && got[1] != "" && got[2] != "" {
				addrs <- got
				got = [3]string{}
			}
		}
	}()
	select {
	case a := <-addrs:
		d.dnsAddr, d.httpAddr, d.debugURL = a[0], a[1], "http://"+a[2]+"/metrics"
	case <-d.done:
		cmd.Wait()
		return nil, fmt.Errorf("clientmapd exited before listening")
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("clientmapd did not listen within a minute")
	}
	for deadline := start.Add(60 * time.Second); ; {
		got, _, err := closedLoop(d.dnsAddr, d.httpAddr, probe, nil)
		if err == nil {
			if failed, _ := verify(probe, got, want); failed == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("clientmapd gave no correct answer within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// stop asks the daemon to drain and waits for it to exit.
func (d *daemon) stop() error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	t := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	defer t.Stop()
	<-d.done
	err := d.cmd.Wait()
	if err != nil {
		return fmt.Errorf("clientmapd: %w", err)
	}
	return nil
}

// counters reads the daemon's serve.* counters from its debug mux.
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := http.Get(d.debugURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// cpu is the daemon's user plus system CPU time so far.
func (d *daemon) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks (100 Hz).
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(u+st) * 10 * time.Millisecond
}

// peakRSS is the daemon's peak resident set (VmHWM), in bytes.
func (d *daemon) peakRSS() int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024
		}
	}
	return 0
}
