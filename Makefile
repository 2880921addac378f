# Everest reproduction — development targets.

GO ?= go

.PHONY: build test testbuild vet race chaos crash guarantee guarantee-holds fuzz bench bench-diff bench-smoke follow experiments loc api

build:
	$(GO) build ./...

# go vet, plus formatting as a gate: any file gofmt would rewrite fails.
# On amd64, vet's asmdecl check covers internal/nn's assembly frames; the
# arm64 line vets the portable kernels that every other architecture
# builds instead (the standard library compiles from GOROOT, offline).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/nn ./internal/cmdn
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l . is not empty:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Compile every package's test binary without running any test: catches
# _test.go files that no longer build (go build ./... does not compile
# them, and a broken test file fails the whole tier-1 gate). The
# guarantee sweep is built behind its tag, so it is compiled on its own.
testbuild:
	$(GO) test -run '^$$' -count=1 ./...
	$(GO) test -tags guarantee -run '^$$' -count=1 ./internal/metrics/

# Race-check the concurrency packages (internal/video among them: every
# worker renders into and releases to its sources' buffer pools;
# internal/simclock, whose clock every worker charges; internal/uncertain,
# whose accumulators every Phase 2 start builds from a live mask) and
# the engine determinism tests; the full suite under -race is too slow
# for a quick gate. Under -race internal/nn builds its portable Go
# kernels, not the amd64 assembly the detector cannot see, so the weight
# reads that inference clones share stay checked. internal/eql is not listed: it has no goroutines of its own,
# and under -race its suite still takes ~16 min here (969 s; ~45 s
# without), past go test's 10-minute timeout — every ingest pays the
# same fixed labelling and CMDN-training bill however short the video.
race:
	$(GO) test -race ./internal/workpool/ ./internal/labelstore/ ./internal/engine/ ./internal/oraclemux/ ./internal/faultinject/ ./internal/durable/ ./internal/cmdn/ ./internal/phase1/ ./internal/nn/ ./internal/diffdet/ ./internal/windows/ ./internal/core/ ./internal/stream/ ./internal/video/ ./internal/simclock/ ./internal/uncertain/
	$(GO) test -race -run 'ProcsBitIdentical|GoldenConcurrent|GoldenCoalesced|SessionConcurrent|QueryBatch|SharedSession|AdmissionLimit|Coalesced|OracleMux|DroppedIndexAndStreamHoldNoGoroutines' .

# The fault-tolerance suite under the race detector: chaos-injected
# oracle failures through the full serving pipeline (retry convergence,
# typed panic recovery, graceful degradation, admission-slot and
# goroutine leak audits, concurrent cancellation) plus the scheduler's
# and mux's cancellation tests and the faultinject package itself.
chaos:
	$(GO) test -race -run 'TestChaos' .
	$(GO) test -race -run 'Cancel|Withdraw' ./internal/engine/ ./internal/oraclemux/ ./internal/labelstore/
	$(GO) test -race ./internal/faultinject/

# The crash-injection suite under the race detector: kill the process at
# every mutating filesystem op of a durable workload (and at every op of
# every recovery from every one of those crashes), then assert the
# recovered label cache is always a consistent prefix of the publish
# history — plus the golden test that a crash/recover cycle leaves query
# results bit-identical to a run that never crashed.
crash:
	$(GO) test -race -run 'TestCrash' .
	$(GO) test -race ./internal/durable/ ./internal/faultinject/
	$(GO) test -race -run 'Durable|Recovery|Evict' ./internal/labelstore/

# The paper's guarantee, measured end to end against ground truth:
# oneshot_run's query (Threshold 0.9) on 40 fresh videos per counting
# dataset in each cell of the grid — K 10 on 4,000 frames, K 10 on 640
# frames (tiny n), K 50 on 4,000 frames (heavy ties), and K 5 over
# 30-frame windows of 4,000 frames, tumbling, every 15 frames (union
# bound) and tumbling with one sampled frame per window
# (WindowSampleFrac 0.02) — a one-sided binomial test of each row's
# exact rate against 0.9 at α = 0.01, and a check that the mean reported
# confidence stays inside the exact rate's binomial band. About seven
# minutes on two cores. It fails today (ROADMAP item 2), so it is in
# neither tier-1 nor CI.
guarantee:
	$(GO) test -tags guarantee -run '^TestGuarantee(Windows)?$$' -count=1 -timeout 30m -v ./internal/metrics/

# The ratchet over that grid: exactly the rows that hold, as listed in
# internal/metrics/testdata/guarantee_holds.txt (cell and dataset), each
# on the same videos and judged by the same two checks. A listed row
# that fails either check fails the target. Its own CI job; a couple of
# minutes on two cores.
guarantee-holds:
	$(GO) test -tags guarantee -run '^TestGuaranteeHolds$$' -count=1 -timeout 30m -v ./internal/metrics/

# Short-budget fuzz of the workpool determinism contract, the engine
# plan compiler's normalize/validate invariants, the oracle mux's
# batch-consolidation splitter, the fault-schedule DSL round-trip, the
# durable store's WAL-replay and checkpoint decoders (never panic,
# recover exactly the checksum-valid prefix), the label map's set and
# delete batches against a Go map and the per-key fold, the label
# cache's eviction cap under random publish / tighten / snapshot
# sequences (within the cap, the newest batch and pre-cap labels kept,
# one version bump per publish and per eviction pass, none per
# snapshot), Phase 2's start under random overrides (an error
# exactly on malformed input, else the run over the materialized
# relation), the D0 memo across random Appends (extended in place,
# its relations and answers equal to a fresh build's, every view and
# base taken before an Append unchanged), and the index file loader
# (never panics, fails only typed, and what it accepts is valid and
# re-saves to bytes that load and save again unchanged), and the
# trainer's amd64 kernels against the portable Go kernels (the same bits
# on every output, NaN for NaN).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzKernels -fuzztime 30s ./internal/nn/
	$(GO) test -run '^$$' -fuzz FuzzMapOrdering -fuzztime 30s ./internal/workpool/
	$(GO) test -run '^$$' -fuzz FuzzStartOverrides -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzPlanNormalize -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzArtifactAppend -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzMemoExtend -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzLoadIndex -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzConsolidate -fuzztime 30s ./internal/oraclemux/
	$(GO) test -run '^$$' -fuzz FuzzFaultSchedule -fuzztime 30s ./internal/faultinject/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 30s ./internal/durable/
	$(GO) test -run '^$$' -fuzz FuzzMapBatch -fuzztime 30s ./internal/labelstore/
	$(GO) test -run '^$$' -fuzz FuzzCachePolicy -fuzztime 30s ./internal/labelstore/
	$(GO) test -run '^$$' -fuzz FuzzParseEQL -fuzztime 30s ./internal/eql/

# Capture the engine benchmark suite into BENCH_engine.json so future
# changes have a perf trajectory to compare against.
bench:
	$(GO) run ./cmd/bench

# Re-run the suite and print per-benchmark deltas against the committed
# BENCH_engine.json (fails if a committed benchmark went missing).
bench-diff:
	$(GO) run ./cmd/bench -compare BENCH_engine.json

# One-iteration serving-path smoke run: catches regressions that compile
# but explode allocations (also the CI benchmark smoke job, which
# additionally runs bench-diff against the committed baseline). The
# first line includes one segment close at two stream ages (a close
# costs what its segment adds, so the B/op stay near each other). The
# internal/eql line is a script's bind at two video lengths (equal B/op
# means bind reads no frame) and a warm execution; the core/engine line
# is Phase 2's start — preparing D0, starting a run with and without an
# overlay, and a frame and a window query's Execute, uncached and under
# an overlay (the window one also with its quantization memo emptied
# first) — and a warm window relation under an overlay; the next is the frame-level kernels — a Fit at 5 and
# 35 epochs, one grid point, one proxy prediction from a decoded frame
# (features, then the model's Predict: what every retained frame pays at
# ingest), one decoded frame (0 allocs) and one counting-oracle call over
# 32 frames (1 alloc: its output); the next is the batch ingest's Phase 1
# tables — one mixture quantized into its Dist (1 alloc), the labelled
# samples featurized into one block, the detector pass with its fused
# inference, the DisableDiff inference sweep into a caller's table, and
# the frame relation built and copied; the last is
# the label cache's write path — a capped, durable publish plus its
# eviction — and a recovery from a checkpoint and a WAL tail.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SessionConcurrent|SessionSharedCache|SessionCoalesced|OracleMux|StreamingIngest|FollowDeltas|SegmentClose|EQLScript' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BindScript|ExecWarm' -benchtime 1x -benchmem ./internal/eql
	$(GO) test -run '^$$' -bench 'Prepare|Start|Execute|WindowRelation' -benchtime 1x -benchmem ./internal/core ./internal/engine
	$(GO) test -run '^$$' -bench 'Fit$$|TrainGridPoint|ProxyPredict|Render$$|CountUDFScore' -benchtime 1x -benchmem ./internal/nn ./internal/cmdn ./internal/video ./internal/vision
	$(GO) test -run '^$$' -bench 'Quantize|FeaturizeSamples|ClipPass|InferMixtures|FrameRelation' -benchtime 1x -benchmem ./internal/uncertain ./internal/phase1 ./internal/engine
	$(GO) test -run '^$$' -bench 'Publish|Recover' -benchtime 1x -benchmem ./internal/labelstore ./internal/durable

# Live-camera smoke run: replay a bounded feed through the streaming
# ingestor with a continuous top-K follower and print the answer deltas
# — exercises the chunked ingest, warm CMDN refresh, and delta paths
# end to end from the CLI.
follow:
	$(GO) run ./cmd/everest -dataset Archie -k 5 -frames 3600 -follow -segment 1200 -chunk 300 -drift 3

experiments:
	$(GO) run ./cmd/experiments

# Non-test and test Go lines (wc -l) per package directory outside
# benchmark/, and the total — the before/after numbers a refactor PR
# quotes, from one command on each side.
loc:
	@printf '%-28s %8s %8s\n' package non-test test
	@find . -name '*.go' -not -path './benchmark/*' | xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); if ($$2 ~ /_test\.go$$/) t[d] += $$1; else n[d] += $$1; seen[d] = 1 } END { for (d in seen) { printf "%-28s %8d %8d\n", d, n[d], t[d] | "sort"; N += n[d]; T += t[d] }; close("sort"); printf "%-28s %8d %8d\n", "total", N, T }'

# Exported identifiers in non-test Go files outside benchmark/ —
# top-level declarations, struct fields and interface methods — the
# second number a refactor PR quotes before/after, beside `make loc`.
api:
	@$(GO) run internal/tools/apicount.go
