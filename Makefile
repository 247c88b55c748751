# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Release identity stamped into server binaries (hyperdom_build_info on
# /metrics). Defaults to the git describe of the checkout; override with
# `make hyperdomd VERSION=v1.2.3`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS  = -ldflags "-X hyperdom/internal/buildinfo.Version=$(VERSION)"

.PHONY: all build check orphans loc test test-short bench bench-all bench-parallel bench-quant bench-smoke fuzz experiments examples serve serve-sharded hyperdomd trace cover clean

all: build check

build:
	$(GO) build ./...

# Static analysis, formatting and the full suite under the race detector —
# the gate a change must pass before it ships. staticcheck runs when
# installed (CI installs it; locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
check:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race ./...

# Fails when an internal package is imported by nothing the module ships:
# the root package, the commands and the benchmark harness.
orphans:
	@deps=$$($(GO) list -deps . ./cmd/... ./bench/...); \
	for p in $$($(GO) list ./internal/...); do \
		echo "$$deps" | grep -qxF "$$p" || { echo "orphan package: $$p"; bad=1; }; \
	done; [ -z "$$bad" ]

# Non-test Go lines per package — the table simplicity PRs and ROADMAP
# re-anchors quote (comments and blank lines included: it is `wc -l`).
loc:
	@for d in . internal/* cmd/* bench; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		[ $$n -gt 0 ] && printf '%6d  %s\n' $$n $$d; total=$$((total+n)); \
	done; printf '%6d  total\n' $$total

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The hot-kernel benchmarks (dominance criteria, prepared-pair, kNN
# traversals) plus the machine-readable BENCH_knn.json snapshot.
bench:
	$(GO) test -bench=. -benchmem ./internal/dominance ./internal/knn
	$(GO) run ./cmd/benchkernel -o BENCH_knn.json

# One testing.B benchmark per paper table/figure plus the package micro-benches.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# The fuzz targets, package:Target — the one list; CI's fuzz-smoke job runs
# `make fuzz FUZZTIME=10s`.
FUZZTIME ?= 30s
FUZZ_TARGETS = \
	internal/poly:FuzzQuartic \
	internal/dominance:FuzzHyperbolaVsExact2D \
	internal/dominance:FuzzPreparedPairAgree \
	internal/tree:FuzzTreeOps \
	internal/packed:FuzzPackedMinDist \
	internal/packed:FuzzQuantizedLowerBound \
	internal/packed:FuzzBoxLowerBound \
	internal/packed:FuzzSnapshotOpen \
	internal/server:FuzzKNNResponseEncode \
	internal/server:FuzzKNNRequest \
	internal/shard:FuzzForestVsBruteForce \
	internal/dataset:FuzzLoadCSV

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "== $$t ($(FUZZTIME))"; \
		$(GO) test ./$${t%%:*} -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# The frozen benchmark harness end to end, twice and quickly: a change that
# breaks what bench/ drives (names, flags, endpoints, answers) fails here
# before the pipeline runs it. The two workloads whose -quick runs pass
# their own sample-size checks; each prints one JSON line. A -quick request
# is cheap enough that the harness's own "load generator used > 0.60 of a
# core" abort trips about one run in ten on a 2-core box, so a failed run is
# tried once more: a broken harness fails twice.
bench-smoke:
	@for w in fat_d10 mixed_snap; do \
		echo "== bench/run.sh -quick -workload $$w"; \
		for try in 1 2; do \
			out=$$(bash bench/run.sh -quick -workload $$w 2>&1) && \
				echo "$$out" | tail -n 1 | grep -q '"failed":0' && continue 2; \
			echo "$$out"; echo "bench-smoke: $$w, try $$try: non-zero exit or no \"failed\":0"; \
		done; exit 1; \
	done

# Batch-engine worker scaling over a frozen SS-tree: queries/s at pool
# widths 1/2/4/8 (scaling tops out at GOMAXPROCS).
bench-parallel:
	$(GO) run ./cmd/knnbench -parallel 1,2,4,8 -scale 0.05

# The quantized coarse-filter comparison: Fig 13 once per tier (exact
# packed baseline, float32, int8) on the same workload.
bench-quant:
	$(GO) run ./cmd/knnbench -fig 13 -scale 0.05 -quant none
	$(GO) run ./cmd/knnbench -fig 13 -scale 0.05 -quant f32
	$(GO) run ./cmd/knnbench -fig 13 -scale 0.05 -quant i8

# Regenerate the paper's figures at a moderate scale.
experiments:
	$(GO) run ./cmd/dombench -scale 0.2 -timing 100ms
	$(GO) run ./cmd/knnbench -scale 0.05
	$(GO) run ./cmd/knnbench -fig 17 -scale 0.05

# Run the kNN figures with counters enabled and the observability server
# up for local profiling: /metrics, /debug/slow and /debug/pprof stay
# served on :6060 after the figures finish, until Ctrl-C.
serve:
	$(GO) run ./cmd/knnbench -serve :6060 -metrics

# Start the sharded kNN server on a synthetic corpus —
# the HTTP layer of DESIGN.md §13. See README "Running the server".
serve-sharded:
	$(GO) run $(LDFLAGS) ./cmd/hyperdomd -shards 4 -addr :8080

# Build the version-stamped server binary into ./bin/hyperdomd.
hyperdomd:
	$(GO) build $(LDFLAGS) -o bin/hyperdomd ./cmd/hyperdomd

# Record per-query execution traces from a Fig 13 run into trace.json —
# load it in chrome://tracing or https://ui.perfetto.dev. See README
# "Tracing a slow query".
trace:
	$(GO) run ./cmd/knnbench -fig 13 -scale 0.01 -trace trace.json -trace-every 8

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/uncertain_gis
	$(GO) run ./examples/image_retrieval
	$(GO) run ./examples/rknn_pruning
	$(GO) run ./examples/moving_objects

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -20

clean:
	rm -f cover.out trace.json
	rm -rf bin
