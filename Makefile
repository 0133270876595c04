# The pre-PR gate. `make check` is what CI (and a careful human) runs:
# build everything, run the stock vet, run the domain-aware vet, then the
# tests under the race detector.

GO ?= go

.PHONY: check build fmt-check vet altovet test race bench-smoke fuzz-smoke determinism-check cluster-seeds crash-check perf-check fmt

check: build fmt-check vet altovet determinism-check cluster-seeds crash-check perf-check race bench-smoke fuzz-smoke

build:
	$(GO) build ./...

# fmt-check fails when any Go file is not gofmt-clean, naming the files;
# `make fmt` rewrites them.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt: not formatted:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# altovet fails (exit 1) on any finding of the domain-aware analyzers, and
# prints the per-analyzer finding/allow counts so drift is visible in every
# run's log.
altovet:
	$(GO) run ./cmd/altovet -stats ./...

test:
	$(GO) test ./...

# race bounds each package's test binary at 4 minutes, about 5x the slowest
# package (internal/experiments, 51 s under -race while the other packages
# run beside it), so a run that stalls or crawls fails here instead of at
# go test's 10-minute default.
race:
	$(GO) test -race -timeout 4m ./...

# determinism-check is the replay contract: every experiment runs at
# worker-pool widths 1, 1, 2, 4, 8 and 8 with one flight recorder per
# simulated machine, and every machine's events, every recorder's metrics
# snapshot and every result metric must match the first run. A failure names
# the experiment, the two runs, the machine and the first differing event,
# with the events before it. The 10 s timeout is about 7x the test's 1.4 s:
# a replay that crawls fails too.
determinism-check:
	$(GO) test -count=1 -timeout 10s -run '^TestDeterminism$$' ./internal/experiments

# cluster-seeds checks that E15's claim does not rest on its published wire
# seed: altobench -seeds runs the full E15 on wire seeds 0-199 at workers 1
# and 2, and any error (a stalled daemon), lost file, corrupted byte or
# metric that differs between the two widths fails the gate. About 20 s per
# width.
cluster-seeds:
	$(GO) run ./cmd/altobench -seeds 0-199

# crash-check is the §3.5 gate: a sampled sweep of crash points (clean and
# torn) over the journaled directory workload, then every crash point of
# cluster-store (a replica dies mid-store; the rebooted group must re-audit
# to byte-identical copies on the fleet engine; 18 runs). altocrash exits
# non-zero if any crash point fails to recover to a pack fsck certifies
# violation-free.
crash-check:
	$(GO) run ./cmd/altocrash -workload journaled-insert -points 64 -workers 8 -torn
	$(GO) run ./cmd/altocrash -workload cluster-store -torn

# perf-check guards the benchmark's simulations: its own tests pass, and
# every workload's simulation digest is the same at workers 1 and 2, traced
# and untraced. A storage or scheduler refactor meant to change host cost
# only must keep this green.
perf-check:
	$(GO) -C perf test ./...
	$(GO) -C perf run . -workload all -check

# bench-smoke runs every layer benchmark under internal/ and the root
# package's experiment benchmarks (BenchmarkExperiment, BenchmarkE14FleetFanIn)
# once, so a broken benchmark fails the gate instead of waiting for someone
# to time it. It checks that they run, not what they measure.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/...

# fuzz-smoke searches with each native fuzz target for 10 s. Plain `go test`
# runs only their seed corpora; this makes the gate look for new inputs too.
# A failing input is written under the package's testdata/fuzz, where it
# becomes a seed case once checked in.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDirectoryPages$$' -fuzztime 10s ./internal/dir
	$(GO) test -run '^$$' -fuzz '^FuzzPupPacket$$' -fuzztime 10s ./internal/pup
	$(GO) test -run '^$$' -fuzz '^FuzzFileserverMessages$$' -fuzztime 10s ./internal/fileserver
	$(GO) test -run '^$$' -fuzz '^FuzzDriveTwin$$' -fuzztime 10s ./internal/disk
	$(GO) test -run '^$$' -fuzz '^FuzzHintLadder$$' -fuzztime 10s ./internal/file
	$(GO) test -run '^$$' -fuzz '^FuzzMemoryTwin$$' -fuzztime 10s ./internal/mem

fmt:
	gofmt -l -w .
