// Command perfbench is clientmap's benchmark: fixed, seeded workloads run
// against the public entry points — clientmap.Run, experiments.RunStream
// and the shipped clientmapd binary — with every output checked. Run it
// from the root of a checkout; perfbench/run.sh builds it and clientmapd
// from that checkout's sources into .bench_build and starts it:
//
//	sh perfbench/run.sh --workload campaign|stream|serve --seed 2021 --seconds 10 --trace 0|1
//
// Every line before the last names one metric (with unit and sample
// count) or one output check; the last line is a JSON object with
// "correct", "attempted", "failed" and the gated "metrics". The command
// exits non-zero when any output check fails. Each workload runs its
// measured work in child processes (the benchmark binary re-executed in
// a child role, or clientmapd), so every run starts from a fresh heap and
// peak memory is read from outside the process. Working state lives in
// .bench_build/work and is removed at exit.
//
// # Workloads
//
// The seed is the benchmark's argument (default 2021); every input — the
// simulated Internet, the churn, the query plan — derives from it.
//
//   - campaign: the paper's batch evaluation at medium scale with paper
//     defaults (120 h, 9 passes, 48 h of DITL traces), checkpointed into a
//     fresh state directory, then fully resumed from it in a new process.
//     Probe passes are the critical path; roots (DITL generation) and the
//     baselines run concurrently and compete for the cores. The resume
//     probes nothing: it is state-directory repair plus checkpoint decode.
//   - stream: continuous mode at small scale for 24 sim-hours with churn
//     realloc=3@5h,drift=0.15@9h,pop=fra@6h+5h,chromium=off@12h, emitting
//     the rolling artifact and checkpointing every hour, twice per run
//     (the two must end on the same artifact). Probing runs only budgeted
//     subsets and roots never runs, so scheduler, fold/decay, export and
//     per-hour checkpoint writes carry more of the work.
//   - serve: clientmapd, in its own process with the limiter and reload
//     off, serves a medium artifact built for the seed (one probing pass
//     and two hours of DITL traces, so building it fits the run; it keeps
//     more active /24s than the 65,536-entry response caches, so hits and
//     misses both occur). One generator process replays the
//     serve.PlanLoad mix (half DNS, a fifth misses, a tenth AS queries, a
//     quarter of DNS queries TXT) over one UDP socket and one keep-alive
//     HTTP connection: a closed loop of 60,000 queries with one DNS and
//     one HTTP client, run once against each of the three daemons the
//     set-ups start (each with cold caches), then an open loop at 4,000
//     queries/s for half of --seconds against the last. In the open loop one pacing goroutine sends each query at
//     its due time (HTTP requests pipelined on the connection) and two
//     readers collect answers, each timed from its due time; the pacer
//     blocks its own thread in nanosleep with 1µs timer slack rather than
//     sleeping on the runtime's millisecond timers, sends whatever is
//     overdue at once, and reports its lateness.
//
// # End-to-end metrics (untraced runs, gated)
//
// Every workload reports the same two, so a change is gated on each:
//
//   - setup_s: campaign and stream, time from calling Run until the first
//     probe-pass-0 / stream-hour-0 "running" line reaches Config.Log; serve,
//     time from exec of clientmapd until its first DNS and HTTP answers
//     match the in-process handlers'. Median of three set-ups per run.
//   - op_p50_us: median cost of one operation. Campaign and stream: over
//     the probing passes (hours), the pass (hour) wall time from its
//     running→done Log lines divided by the probes it sent — for the
//     stream, each hour's cheaper run, since the host only ever slows a
//     run down. Serve: the lowest of the three closed loops' median
//     query latencies, for the same reason.
//
// The cost is per operation because the seed changes the size of the
// simulated Internet by about a fifth, and raw wall times spread with it.
// Also printed, not gated: campaign_s, resume_s, stream_s, hour_p50_ms,
// probes_per_s, serve_qps, peak_rss_mb (rusage of the child, or
// clientmapd's VmHWM), the open-loop dns_p50_us and http_p50_us with their
// tails, the generator's lateness, and the input size. On a 2-vCPU
// virtual machine whose neighbours share its caches, these spread by
// 10-35% across ten seeds — closed-loop throughput most, as rare
// multi-millisecond stalls weigh on a mean but not on a median — too much
// to gate a change on.
//
// Output checks: the campaign's run and resume produce byte-identical
// serving artifacts, and on seed 2021 the payload hash equals the
// recorded reference; the stream's final artifact hash equals its
// recorded reference and the file on disk; every query the daemon
// answered equals, byte for byte, the in-process handler's answer for
// the same query, and timeouts, REFUSED, SERVFAIL, non-200 answers and
// mismatches fail.
//
// # Traced runs and per-layer metrics
//
// With --trace 1 the campaign and the stream are composed again from the
// public functions of each layer, in the stage graph experiments
// registers, with a span (name, start, end, parent) around every call,
// kept in memory and written to .bench_build/spans-*.jsonl at exit. A
// layer's self time is its span minus the part its child spans cover.
// The traced composition must reproduce the untraced run (same probes,
// same artifact hash), and trace.overhead_frac is its wall time to the
// end of the last pipeline stage over the untraced run's, minus one. The
// serve traced run measures the layers below the wire in process and
// replays the closed loop with a span per query. Every traced run prints
// every per-layer metric; a layer the workload does not run reads 0.
//
// Layers, by module, and the end-to-end metric each should move:
//
//   - world+sim: world.build_s → setup_s (campaign, stream).
//   - cacheprobe: prescan_s, calibrate_s → setup_s; assign_s (paid lazily
//     in pass 0) and pass0_s (pays the gpdns lazy fill) → campaign_s;
//     pass_p50_s, probes_per_s, allocs_per_probe (mallocs ÷ probes over
//     the passes that run after the DITL and baselines chains ended) →
//     op_p50_us, strongly on campaign, weakly on stream, not on serve; hit_ratio is a useful-work sentinel a
//     pure speed change leaves unchanged; pass_speedup_x times one pass at
//     one worker against one per CPU.
//   - roots, dnslogs, baselines: gen_s, trace_mb, crawl_s, records_per_s,
//     collect_s → campaign_s only through CPU contention, since they run
//     concurrently with probing.
//   - pipeline: chain_probe_s, chain_ditl_s, chain_baselines_s, each chain's
//     wall time as the runner interleaves them → campaign_s.
//   - snapshot, statefs, statefsck: encode_s, encode_mb, write_s (atomic
//     write with fsync) → campaign_s (slightly); repair_s, read_s,
//     decode_s (self time, without the fold into the campaign) → resume_s.
//   - stream+churn: begin_hour_ms, cacheprobe.subset_pass_ms, dnstick_ms,
//     finish_hour_ms, serve.export_ms, snapshot.hour_encode_ms,
//     statefs.hour_write_ms → stream op_p50_us and stream_s;
//     probes_per_hour and fresh_hit_ratio (fresh ledger scopes ÷ probes)
//     are useful work per attempt.
//   - serve: decode_ms and index_build_ms → serve setup_s; lookup_ns,
//     dns/http_handler_ns and _allocs (the plan replayed through
//     Daemon.DNSHandler and HTTPHandler) and the daemon's cache hit ratios
//     → op_p50_us; cpu_us_per_query → serve_qps; dns_p99_us,
//     http_p99_us and loadgen.late_p99_us are open-loop diagnostics.
//   - dnsnet: dns_wire_overhead_x, http_wire_overhead_x, closed-loop p50
//     over in-process handler time: the share of a query spent outside
//     the handlers → serve op_p50_us and serve_qps.
//
// Every result starts with its provenance: CPU model, nproc, GOMAXPROCS,
// Go version, the commit (or, outside a git checkout, a hash of the Go
// sources) and the seed. The legacy BENCH_*.json records at the root were
// assembled by hand on a 1-core host in four schemas; they are not
// comparable with these numbers.
package main
