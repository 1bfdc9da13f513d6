GO ?= go

.PHONY: check fmt vet build test race obs serve-chaos crash-chaos shard-chaos reshard-chaos triage-chaos template-diff fuzz trace-demo bench-gate bench-baseline bench-selftest

# check is the tier-1 verification gate: formatting, static analysis, a
# full build, the full test suite, the race-detector pass (the chaos
# suite asserts its no-panic/no-hang containment contract there), a
# focused race-detector pass over the observability primitives, the
# serving-layer soak, the journal kill -9 crash-recovery harness, the
# sharded-fleet shard-kill harness, the live-resharding rebalance
# harness, the fidelity-ladder overload soak, the template-cache
# differential-oracle suite, the benchmark regression gates, and the
# end-to-end benchmark's own tests.
check: fmt vet build test race obs serve-chaos crash-chaos shard-chaos reshard-chaos triage-chaos template-diff bench-gate bench-selftest

# fmt fails when gofmt would change any tracked Go file.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The statistical sweeps in internal/eval and the integration floors are
# ~20x slower under the race detector and carry testing.Short() guards;
# -short keeps the race pass focused on concurrency (chaos suite, fault
# harness, unit tests) and inside go test's default timeout.
race:
	$(GO) test -race -short ./...

# obs race-checks the tracing and metrics primitives specifically: every
# counter, gauge, histogram and span is hit from concurrent goroutines.
obs:
	$(GO) test -run TestObs -race ./internal/obs

# serve-chaos soaks the serving layer under the race detector: 200+
# documents through a 4-worker pool with per-document fault injection
# (invalid documents, transient and persistent search failures, panics,
# slow segmenters), a deterministic circuit-breaker trip/recovery
# sequence, and a saturation burst against a full queue. Asserted
# invariants: no panics, no deadlocks, zero leaked goroutines
# (before/after goroutine counts with a settle loop), every shed or
# failed document carries a structured error, and breaker transitions
# are visible in the metrics snapshot. (The `race` target skips it via
# -short so the soak runs exactly once per check.)
serve-chaos:
	$(GO) test -race -run TestServeChaosSoak -count=1 -timeout 15m .

# crash-chaos exercises the durability layer's crash-recovery contract
# end to end: a real vs2serve child process is SIGKILLed at 20+
# randomized write-ahead-journal offsets and resumed with -resume; the
# resumed stdout must be byte-identical to an uninterrupted run's, and a
# journal with a garbage tail must recover by dropping only the torn
# frame. (The `race` target skips it via -short, like serve-chaos.)
crash-chaos:
	$(GO) test -race -run TestCrashChaos -count=1 -timeout 10m .

# shard-chaos generalizes crash-chaos to the sharded topology: a real
# vs2d front end fans a batch across supervised worker shard child
# processes, and the harness SIGKILLs a random shard at 20+ randomized
# journal offsets (and, separately, the front end itself, resuming with
# -resume). In every case the merged stdout must be byte-identical to an
# uninterrupted run.
shard-chaos:
	$(GO) test -race -run TestShardChaos -count=1 -timeout 15m .

# reshard-chaos drives live fleet reconfiguration under fire: a real
# vs2d front end serves a batch while the harness scales the fleet
# 3 -> 5 -> 2 through POST /admin/scale (odd iterations also roll it
# via SIGHUP) and SIGKILLs a random shard inside the transition window
# at randomized offsets. The merged stdout must stay byte-identical to
# an undisturbed 3-shard run with every document emitted exactly once,
# the retired shards' journals must hand off to live successors, and
# the epoch-stamped shard.reconfig.* series must appear in the final
# /metrics scrape (saved to VS2_CHAOS_ARTIFACTS for CI upload).
reshard-chaos:
	$(GO) test -race -run TestReshardChaos -count=1 -timeout 20m .

# triage-chaos soaks the adaptive fidelity ladder under the race
# detector: a saturating 150-document burst against a deliberately
# undersized server, once with the ladder off (the control: most of the
# burst sheds with ErrOverloaded) and once adaptive (the controller
# shifts the triage thresholds and the cheap path drains the queue).
# Asserted invariants: the adaptive run sheds strictly fewer documents
# than the control, at least one up-shift fires, recovery back to full
# fidelity is monotone, a ladder-off server renders byte-identical
# output to one without the subsystem, and no goroutines leak. With
# VS2_CHAOS_ARTIFACTS set, before/during/after /metrics snapshots land
# there for CI upload.
triage-chaos:
	$(GO) test -race -run TestTriageChaosOverloadSoak -count=1 -timeout 15m .

# template-diff runs the layout-template cache's differential oracle
# under the race detector: golden corpora plus 8 seeded synthetic
# templates with jittered geometry, asserting warm (cache-hit) output is
# byte-identical to the cold path — including explanation Reports and
# degradation notes — plus a concurrent Server eviction-churn soak
# against a deliberately undersized cache. (The `race` target runs the
# same tests with -short, which trims the per-template instance count;
# this target runs the full matrix.)
template-diff:
	$(GO) test -race -run TestTemplateDiff -count=1 -timeout 15m .

# trace-demo runs the full observability path end to end: generate one
# tax form, extract with tracing + metrics + explanation on, then
# validate the span tree (structure, phase coverage, 10% wall-clock
# accounting) with vs2trace.
trace-demo:
	$(GO) run ./cmd/vs2gen -dataset d1 -n 1 -seed 7 -out - > /tmp/vs2-demo-form.json
	$(GO) run ./cmd/vs2 -in /tmp/vs2-demo-form.json -task tax \
		-trace /tmp/vs2-demo-trace.json -metrics -explain > /dev/null
	$(GO) run ./cmd/vs2trace -in /tmp/vs2-demo-trace.json

# bench-gate re-measures the segmentation benchmark matrix (reference /
# sequential / parallel at GOMAXPROCS 1, 4, 8) and fails on a >10%
# ns/op regression against the committed BENCH_segment.json baseline.
# The comparison uses within-run ratios against the reference
# implementation, so it holds across machines of different speeds.
# It then re-measures the telemetry overhead (metrics + tracing vs
# neither) and fails if observability costs more than 5% ns/op, and the
# template-cache hit path, which must stay >= 5x faster than a cold
# VS2-Segment (-benchgate runs the template gate itself).
bench-gate:
	$(GO) run ./cmd/vs2bench -benchgate
	$(GO) run ./cmd/vs2bench -obsgate

# bench-selftest vets and tests the end-to-end benchmark (e2ebench/).
# It is its own Go module, so the root `go test ./...` never reaches it.
bench-selftest:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# bench-baseline regenerates BENCH_segment.json, BENCH_obs.json and
# BENCH_template.json after an intentional performance change. Commit
# the results.
bench-baseline:
	$(GO) run ./cmd/vs2bench -segbench
	$(GO) run ./cmd/vs2bench -obsbench
	$(GO) run ./cmd/vs2bench -templatebench

# fuzz smoke-runs the five fuzz targets (decoder, full pipeline,
# parallel segmenter determinism, journal replay, template
# fingerprinting under forced digest collisions).
fuzz:
	$(GO) test -run FuzzDecode -fuzz FuzzDecode -fuzztime 30s ./internal/doc
	$(GO) test -run FuzzExtract -fuzz FuzzExtract -fuzztime 30s .
	$(GO) test -run FuzzParallelSegment -fuzz FuzzParallelSegment -fuzztime 30s .
	$(GO) test -run FuzzJournalReplay -fuzz FuzzJournalReplay -fuzztime 30s ./internal/journal
	$(GO) test -run FuzzFingerprint -fuzz FuzzFingerprint -fuzztime 30s ./internal/template
