# The pre-PR gate. `make check` is what CI (and a careful human) runs:
# build everything, run the stock vet, run the domain-aware vet, then the
# tests under the race detector.

GO ?= go

.PHONY: check build vet altovet vet-stats vet-baseline test race bench bench-diff bench-smoke trace-check scope-check fleet-check cluster-check crash-check perf-check fmt

check: build vet altovet vet-stats trace-check scope-check fleet-check cluster-check crash-check perf-check race bench-diff bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# altovet compares against the checked-in baseline, so the gate fails only on
# findings *new* since the baseline (benchdiff-style). The tree is clean today
# — the baseline is empty — but the mechanism lets a future large-scale
# finding haul land incrementally without turning the gate off.
altovet:
	$(GO) run ./cmd/altovet -baseline vet_baseline.json ./...

# vet-stats prints the per-analyzer finding/allow counts against the baseline;
# informational, part of check so drift is visible in every run's log.
vet-stats:
	$(GO) run ./cmd/altovet -baseline vet_baseline.json -stats ./... || true

# vet-baseline refreshes the checked-in baseline to the current findings; run
# it (and commit the result) only when deliberately accepting a legacy haul.
vet-baseline:
	$(GO) run ./cmd/altovet -baseline vet_baseline.json -write-baseline ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# trace-check guards the observability contract: the tracing driver builds,
# and two runs of the same experiment export byte-identical traces.
trace-check:
	$(GO) build -o /dev/null ./cmd/altotrace
	$(GO) test -run TestTracesAreByteIdentical ./cmd/altotrace

# scope-check guards the fleet observability contract: altoscope builds, and
# the merged trace, collapsed profile and top table come out byte-identical
# across runs, merge input orders and worker counts. E10 covers the file
# server fleet; E13 covers the 26-machine saturation fleet (bounded ring so
# the two dozen recorders stay cheap).
scope-check:
	$(GO) build -o /dev/null ./cmd/altoscope
	$(GO) run ./cmd/altoscope -experiment e10 -check
	$(GO) run ./cmd/altoscope -experiment e13 -events 8192 -check

# fleet-check guards the parallel scheduler's contract: altofleet builds, and
# a 100-Alto fan-in produces byte-identical per-machine event streams and
# metrics across repeated runs and across worker-pool widths (1, 2 and 8).
fleet-check:
	$(GO) build -o /dev/null ./cmd/altofleet
	$(GO) run ./cmd/altofleet -check -machines 100 -events 16384

# cluster-check guards the replicated file service's contract: altocluster
# builds, and a reduced E15 run (4 shards x 3 replicas, 6 clients, 10% wire
# loss, seeded rot, distributed audit and heal) produces byte-identical
# per-machine event streams and metrics across repeated runs and across
# worker-pool widths (1, 2 and 8).
cluster-check:
	$(GO) build -o /dev/null ./cmd/altocluster
	$(GO) run ./cmd/altocluster -check -clients 6

# crash-check is the §3.5 gate: a sampled sweep of crash points (clean and
# torn) over the journaled directory workload; altocrash exits non-zero if
# any crash point fails to recover to a pack fsck certifies violation-free.
crash-check:
	$(GO) run ./cmd/altocrash -workload journaled-insert -points 64 -workers 8 -torn

# perf-check guards the benchmark's simulations: its own tests pass, and
# every workload's simulation digest is the same at workers 1 and 2, traced
# and untraced. A storage or scheduler refactor meant to change host cost
# only must keep this green.
perf-check:
	$(GO) -C perf test ./...
	$(GO) -C perf run . -workload all -check

# bench runs every experiment benchmark once and keeps the raw output as a
# timestamped snapshot, so regressions in the simulated quantities are
# diffable. (Timestamp, not just date: a same-day rerun must not overwrite
# the snapshot it would be compared against.)
bench:
	$(GO) test -bench . -benchtime 1x -benchmem . | tee BENCH_$$(date +%Y-%m-%d_%H%M%S).json

# bench-diff compares the two latest snapshots and fails on any regression
# in a simulated-time metric; host-dependent costs (ns/op, allocs/op) are
# ignored. With fewer than two snapshots there is nothing to compare and it
# passes.
bench-diff:
	$(GO) run ./cmd/benchdiff

# bench-smoke runs every layer benchmark under internal/ once, so a broken
# benchmark fails the gate instead of waiting for someone to time it. It
# checks that they run, not what they measure.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

fmt:
	gofmt -l -w .
