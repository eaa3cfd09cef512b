# Build-gate entry points.
#
# Local:  `make ci` is the full gate contributors run before pushing —
#         format check, vet, build, full tests (plain and -race: each
#         simulated process is a goroutine under a channel handoff, and
#         cmd/chaos runs seeds on concurrent worker goroutines),
#         the perfbench module's own short tests (`perfbench-test`),
#         and `bench-check`, the bench-regression gate: every experiment
#         harness (E1-E18) runs at -benchtime 3x -benchmem and FAILS the
#         build if any harness's ns/op regressed more than 25% against the
#         committed BENCH_baseline.json (alloc regressions warn; new
#         benches are allowed and reported). `make bench-smoke` is the
#         cheaper 1x-iteration harness check when you only want "does it
#         still run". `make telemetry-smoke` runs the E16 observability
#         experiment end-to-end and writes its telemetry export
#         (telemetry.json, Chrome trace-event JSON viewable in Perfetto);
#         CI archives it next to bench-report.json so a churn run's RPO
#         timelines and span trace can be inspected from the run page.
#         `make autopilot-smoke` runs the E17 SLO-autopilot experiment
#         end-to-end and writes its decision log (e17-decisions.log) —
#         the byte-exact audit trail of every reshard/derate/restore/
#         placement the control loop actuated; CI archives it too.
#         `make chaos-smoke` sweeps 25 seeded random fault schedules
#         against the invariant checkers under -race; failures print a
#         one-line repro and a shrunk minimal schedule, and the replay log
#         (chaos-repro.log) is archived. `make chaos` is the long sweep.
# CI:     .github/workflows/ci.yml runs exactly `make ci` on push/PR with
#         Go module caching, so the same gate holds outside laptops.
# Update: `make baseline` regenerates BENCH_baseline.json (ns/op, B/op,
#         allocs/op per harness) — rerun it, eyeball the diff, and commit
#         it whenever a PR intentionally moves the wall-cost needle.
#
# The committed baseline records absolute wall costs and is therefore
# machine-specific: the gate is meaningful on hardware comparable to
# where the baseline was recorded. On a slower runner class, either
# regenerate the baseline there or loosen the gate for that run with
# `make bench-check BENCH_THRESHOLD=0.5`.

GO ?= go
# Blocking ns/op regression threshold for bench-check (fraction over the
# committed baseline).
BENCH_THRESHOLD ?= 0.25

.PHONY: ci fmt vet build test test-race perfbench-test bench-smoke bench-check baseline telemetry-smoke autopilot-smoke chaos-smoke chaos

ci: fmt vet build test test-race perfbench-test bench-check telemetry-smoke autopilot-smoke chaos-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The system benchmark lives in its own module (perfbench/), so ./... above
# does not reach it. Its short tests check the workloads' determinism and
# that the reported metrics match BENCHMARK.json's declared names.
perfbench-test:
	cd perfbench && $(GO) test -short ./...

# One iteration of every experiment benchmark: catches harness regressions
# without paying for a statistically meaningful measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# The bench-regression gate: run the harnesses 3 times, then compare each
# harness's best (minimum ns/op) run against the committed baseline with
# cmd/benchcheck (fails >25% ns/op regressions, warns on alloc
# regressions). Two steps so a bench failure isn't masked by the pipe.
# The comparison is also written to bench-report.json — CI archives it as a
# build artifact so regressions can be inspected without re-running.
bench-check:
	@$(GO) test -run '^$$' -bench . -benchtime 3x -benchmem -count 3 . > bench.out || \
		{ cat bench.out; rm -f bench.out; exit 1; }
	@$(GO) run ./cmd/benchcheck -baseline BENCH_baseline.json -threshold $(BENCH_THRESHOLD) \
		-json bench-report.json < bench.out; \
		status=$$?; rm -f bench.out; exit $$status

# E16 smoke: run the observability experiment (churning fleet with the full
# telemetry plane on, probed RPO cross-validated against the fleet sampler)
# and write the telemetry export. Fails if the export or the cross-check
# fails; CI uploads telemetry.json as a build artifact.
telemetry-smoke:
	$(GO) run ./cmd/experiments -run e16 -quick -telemetry telemetry.json

# E17 smoke: run the SLO-autopilot experiment (diurnal load, closed loop
# from probed RPO to reshard/admission/placement) and write the decision
# log. The experiment's own acceptance shape — static violates, autopilot
# holds — is asserted inside the harness; CI uploads e17-decisions.log as a
# build artifact so the control loop's audit trail ships with every run.
autopilot-smoke:
	$(GO) run ./cmd/experiments -run e17 -decisions e17-decisions.log

# Chaos smoke: a fixed short sweep of seeded fault schedules against the
# global invariant checkers, under the race detector (the sweep fans seeds
# out across worker goroutines, each with its own kernel). Any failing seed
# prints a one-line repro (`go run ./cmd/chaos -steps short -seed N`), the
# shrunk minimal schedule, and writes the full deterministic replay log to
# chaos-repro.log — CI uploads it as a build artifact on failure.
chaos-smoke:
	$(GO) run -race ./cmd/chaos -steps short -seeds 25 -log chaos-repro.log

# The long sweep: not part of `make ci` — run it after changes to the
# replication engines, recovery paths, or the declarative surface.
chaos:
	$(GO) run ./cmd/chaos -steps medium -seeds 500 -log chaos-repro.log

# Record the bench numbers as JSON (one entry per harness, with -benchmem
# allocation columns; minimum ns/op over -count 3, matching what
# bench-check measures). cmd/benchcheck -update does the parsing and
# aggregation — the exact same code path bench-check compares with — so the
# recorded numbers are like-for-like by construction.
baseline:
	$(GO) test -run '^$$' -bench . -benchtime 3x -benchmem -count 3 . | \
		$(GO) run ./cmd/benchcheck -update -baseline BENCH_baseline.json
	@cat BENCH_baseline.json
