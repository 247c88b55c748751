# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Release identity stamped into server binaries (hyperdom_build_info on
# /metrics). Defaults to the git describe of the checkout; override with
# `make hyperdomd VERSION=v1.2.3`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS  = -ldflags "-X hyperdom/internal/buildinfo.Version=$(VERSION)"

.PHONY: all build check orphans loc test test-short bench bench-all bench-scaling bench-smoke fuzz experiments examples serve-sharded hyperdomd cover clean

all: build check

build:
	$(GO) build ./...

# Static analysis, formatting, the full suite under the race detector, and
# the allocation and overhead gates, which skip themselves under -race and
# so run once more without it — the gate a change must pass before it
# ships. The allocation gates run five times, so a flake that trips one run
# in thirty shows; the timing gates run once. staticcheck runs when installed (CI installs it; locally: go
# install honnef.co/go/tools/cmd/staticcheck@latest). The two GOARCH lines
# keep the non-amd64 build of the leaf select and the child keys honest:
# arm64 must vet, and the Go fallbacks must answer the kernel and search
# tests (386 binaries run on an amd64 host).
check:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) test -short ./internal/vec ./internal/packed ./internal/knn ./internal/shard
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race ./...
	$(GO) test -count=5 -run Allocs ./...
	$(GO) test -count=1 -run Overhead ./...

# Fails when an internal package is imported by nothing the module ships:
# the root package, the commands and the benchmark harness.
orphans:
	@deps=$$($(GO) list -deps . ./cmd/... ./bench/...); \
	for p in $$($(GO) list ./internal/...); do \
		echo "$$deps" | grep -qxF "$$p" || { echo "orphan package: $$p"; bad=1; }; \
	done; [ -z "$$bad" ]

# Non-test Go lines per package — the table simplicity PRs and ROADMAP
# re-anchors quote (comments and blank lines included: it is `wc -l`) —
# plus the search kernel's subtotal (knn + packed + vec), the figure
# ROADMAP states its line-count aims in, and on a row of its own the
# assembly (*.s) lines, which none of the Go rows counts.
loc:
	@for d in . internal/* cmd/* bench; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		[ $$n -gt 0 ] && printf '%6d  %s\n' $$n $$d; total=$$((total+n)); \
		case $$d in internal/knn|internal/packed|internal/vec) kernel=$$((kernel+n));; esac; \
		asm=$$((asm+$$(find $$d -maxdepth 1 -name '*.s' -exec cat {} + | wc -l))); \
	done; printf '%6d  internal/knn + internal/packed + internal/vec\n%6d  total\n%6d  assembly (*.s), not in the rows above\n' $$kernel $$total $$asm

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
# `make fuzz FUZZTIME=10s`. -run names the target too, so each run replays
# that target's seeds and corpus and none of its package's other tests.
FUZZTIME ?= 30s
FUZZ_TARGETS = \
	internal/poly:FuzzQuartic \
	internal/dominance:FuzzHyperbolaVsExact2D \
	internal/dominance:FuzzPreparedPairAgree \
	internal/dominance:FuzzCertificateVsQuartic \
	internal/tree:FuzzTreeOps \
	internal/packed:FuzzPackedMinDist \
	internal/packed:FuzzQuantizedLowerBound \
	internal/packed:FuzzBoxLowerBound \
	internal/packed:FuzzSnapshotOpen \
	internal/vec:FuzzSelectKernelsAgree \
	internal/vec:FuzzChildKeysKernelsAgree \
	internal/server:FuzzKNNResponseEncode \
	internal/server:FuzzKNNRequest \
	internal/shard:FuzzForestVsBruteForce \
	internal/dataset:FuzzLoadCSV

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "== $$t ($(FUZZTIME))"; \
		$(GO) test ./$${t%%:*} -run "^$${t##*:}\$$" -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# The frozen benchmark harness end to end, three times and quickly: a change
# that breaks what bench/ drives (names, flags, endpoints, answers) fails
# here before the pipeline runs it. Two -quick runs, on the workloads whose
# -quick runs pass their own sample-size checks, and one short traced run
# on thin_d4 — the traced layer pass compares the answers of every tier,
# the flat scan, the pointer walk and BruteForce, which -quick skips, and
# -quick cannot be traced (its samples are too few for the trace's p90
# checks). Each prints one JSON line. A cheap request can trip the
# harness's own "load generator used > 0.60 of a core" abort (about one
# -quick run in ten on a 2-core box), so a failed run is tried once more: a
# broken harness fails twice.
bench-smoke:
	@for args in "-quick -workload fat_d10" "-quick -workload mixed_snap" \
		"-workload thin_d4 -seconds 3 -trace 1"; do \
		echo "== bench/run.sh $$args"; \
		for try in 1 2; do \
			out=$$(bash bench/run.sh $$args 2>&1) && \
				echo "$$out" | tail -n 1 | grep -q '"failed":0' && continue 2; \
			echo "$$out"; echo "bench-smoke: $$args, try $$try: non-zero exit or no \"failed\":0"; \
		done; exit 1; \
	done

# The two scaling tables CI's throughput-scaling job gates: queries/s of the
# batch engine at 1/2/4/8 workers (tops out at GOMAXPROCS) and of the
# sharded index at 1/2/4 shards, written to scaling.json.
bench-scaling:
	$(GO) run ./cmd/benchkernel -scaling-only -o scaling.json

# Regenerate the paper's figures at a moderate scale.
experiments:
	$(GO) run ./cmd/dombench -scale 0.2 -timing 100ms
	$(GO) run ./cmd/knnbench -scale 0.05
	$(GO) run ./cmd/knnbench -fig 17 -scale 0.05

# Start the sharded kNN server on a synthetic corpus —
# the HTTP layer of DESIGN.md §13. See README "Running the server".
serve-sharded:
	$(GO) run $(LDFLAGS) ./cmd/hyperdomd -shards 4 -addr :8080

# Build the version-stamped server binary into ./bin/hyperdomd.
hyperdomd:
	$(GO) build $(LDFLAGS) -o bin/hyperdomd ./cmd/hyperdomd

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
	rm -f cover.out scaling.json
	rm -rf bin
