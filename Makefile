GO ?= go

.PHONY: build test race vet bench bench-smoke check cover fuzz-smoke golden-update serve-smoke

# Packages whose coverage is gated in CI: the random streams every golden
# corpus is drawn from, the wire/transport layer, the measurement cores,
# the stage runner, the snapshot codecs, the metrics registry, the
# degradation layer, and the simulated world + traffic models, where an
# untested branch is a silently wrong result.
COVER_PKGS = ./internal/randx/... ./internal/dnsnet/... ./internal/core/... ./internal/pipeline/... ./internal/snapshot/... ./internal/metrics/... ./internal/health/... ./internal/serve/... ./internal/world/... ./internal/traffic/... ./internal/statefs/... ./internal/statefsck/...
COVER_FLOOR = 70
# The metrics registry, the health layer, the snapshot codecs, the
# stage runner, the serving layer, the world/traffic substrate, and the
# state-durability layer (statefs fault injection, statefsck repair)
# back the determinism guarantees of every exported ledger, every
# breaker/failover decision, every shard/delta checkpoint, every answer
# handed to a client and every downstream measurement, so they carry a
# higher floor.
COVER_FLOOR_METRICS = 80

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the whole suite under the race detector; the campaign tests run
# at ScaleTiny, so this covers the parallel probing engine end to end. The
# chaos determinism pair runs several small-scale campaigns each, which
# puts internal/experiments past go test's default 10m binary timeout
# under the race detector — hence the explicit bound.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench . -benchmem ./...

# bench-smoke runs every benchmark exactly once: cheap enough for CI, and
# it keeps the benchmarks (and the alloc-regression gates that live next
# to them) compiling and passing as the code moves.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# cover enforces a per-package statement-coverage floor on the gated
# packages. Per-package (not aggregate) so a well-tested neighbour can't
# mask an untested one.
cover:
	@$(GO) test -count=1 -coverprofile=coverage.out -covermode=atomic $(COVER_PKGS) | \
	awk -v floor=$(COVER_FLOOR) -v mfloor=$(COVER_FLOOR_METRICS) ' \
		{ print } \
		/coverage:/ { \
			f = floor; if ($$2 ~ /internal\/(metrics|health|snapshot|pipeline|serve|world|traffic|statefs|statefsck)/) f = mfloor; \
			pct = $$5; sub(/%.*/, "", pct); \
			if (pct + 0 < f) { bad = 1; print "FAIL: " $$2 " below " f "% floor" } \
		} \
		END { exit bad }'

# fuzz-smoke replays the seeded corpora and runs each fuzz target briefly —
# enough to catch a framing or parser regression without a long campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzReadTCP -fuzztime=10s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/health
	$(GO) test -run='^$$' -fuzz=FuzzChurnParse -fuzztime=10s ./internal/churn
	$(GO) test -run='^$$' -fuzz=FuzzReverseName -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzHTTPQuery -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/statefs
	$(GO) test -run='^$$' -fuzz=FuzzSourceMatchesMathRand -fuzztime=10s ./internal/randx

# golden-update regenerates the golden regression corpus (the headline
# statistics of a fixed small-scale campaign, the degraded-mode stats of
# the same campaign under the chaos matrix, and the streaming corpus:
# rolling-view headline stats plus the coverage-lag table of a fixed
# 24-sim-hour churn scenario). Run after an intentional behaviour change
# and review the diff: every moved number is a semantic change to the
# reproduction.
golden-update:
	CLIENTMAP_UPDATE_GOLDEN=1 $(GO) test -count=1 -run 'TestGolden' ./internal/experiments/ ./internal/serve/

# check is the pre-merge gate: static analysis plus the race-enabled suite.
check: vet race

# serve-smoke boots the full serving path end to end: export a tiny
# deterministic artifact, start clientmapd on ephemeral ports, replay a
# loadgen burst over both transports, and fail on any query error or a
# p99 above 50ms. The limiter is off — loadgen blasts from one client.
SMOKE_DIR = /tmp/clientmap-smoke
serve-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) build -o $(SMOKE_DIR)/experiments ./cmd/experiments
	$(GO) build -o $(SMOKE_DIR)/clientmapd ./cmd/clientmapd
	$(GO) build -o $(SMOKE_DIR)/loadgen ./cmd/loadgen
	$(SMOKE_DIR)/experiments -scale tiny -seed 2021 -serve-artifact $(SMOKE_DIR)/map.snap
	$(SMOKE_DIR)/clientmapd -artifact $(SMOKE_DIR)/map.snap \
		-http 127.0.0.1:18053 -dns 127.0.0.1:15353 -rate=-1 & pid=$$!; \
	trap 'kill $$pid' EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:18053/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	$(SMOKE_DIR)/loadgen -artifact $(SMOKE_DIR)/map.snap \
		-http http://127.0.0.1:18053 -dns 127.0.0.1:15353 \
		-n 1000 -workers 8 -p99-max 50ms -json $(SMOKE_DIR)/BENCH_serve.json
