.PHONY: all build test bench-diff bench-baseline profile trace-smoke soak lint analyze check-fixture check clean

all: build

build:
	dune build @all

test:
	dune runtest

PERFBENCH_WORKLOADS = batch-easy batch-moldable batch-vector serve-deep serve-storm

# perfbench (BENCHMARK.json) at a tenth of its size, seed 1: every
# workload untraced, then traced, about 1.5 s a run.  Writes one JSON
# line per run to $(1): {"workload": W, "trace": T, "result": R} with R
# the run's last line.  A run that prints no result leaves a line the
# gate rejects.
define perfbench_runs
	: > $(1)
	for w in $(PERFBENCH_WORKLOADS); do for t in 0 1; do \
	  r=$$(python3 perfbench/run.py --workload $$w --seed 1 --scale 0.1 --seconds 1 \
	    --trace $$t | tail -n 1); \
	  printf '{"workload": "%s", "trace": %s, "result": %s}\n' $$w $$t "$$r" >> $(1); \
	done; done
endef

# The perf regression gate (CI runs the same recipe): fresh perfbench
# runs against the committed baseline.  Fails on a failed or missing
# run, on any change of an exact metric, and on an end-to-end timing
# worse than a fixed factor; a failing workload's report names the
# per-layer timing that moved most.
bench-diff:
	$(call perfbench_runs,perfbench_gate.jsonl)
	dune exec bin/psched.exe -- bench diff test/fixtures/perfbench_baseline.jsonl \
		perfbench_gate.jsonl

# Rewrite the committed baseline.  Its exact metrics are schedules and
# allocation counts, so run this only after a change meant to move one
# (or on a new machine, for the timings).
bench-baseline:
	$(call perfbench_runs,test/fixtures/perfbench_baseline.jsonl)

# Per-phase cost tables (spans: calls, total/self wall time, GC bytes)
# for the two most instrumented policies, plus flamegraph/Prometheus
# artifacts for the MRT run.
profile:
	dune exec bin/psched.exe -- profile --policy mrt -n 100 -m 64 --repeats 10 \
		--folded profile_mrt.folded --prometheus profile_mrt.prom
	dune exec bin/psched.exe -- profile --policy easy -n 200 -m 64 --rate 0.2 --repeats 10

# Traced EASY and MRT runs through the registry, then validate the
# JSONL traces against the closed event vocabulary (DESIGN.md section 10).
trace-smoke:
	dune exec bin/psched.exe -- trace simulate --policy easy -n 40 -m 32 \
		--rate 0.5 --trace trace_easy.jsonl --summary
	dune exec bin/psched.exe -- trace simulate --policy mrt -n 40 -m 32 \
		--trace trace_mrt.jsonl
	dune exec bin/psched.exe -- trace check trace_easy.jsonl trace_mrt.jsonl

# Crash-safety soak (DESIGN.md section 14): a throttled serve run under
# fault injection with live /metrics, SIGKILLed mid-run, recovered from
# the WAL + snapshot, and audited for job conservation across the crash.
soak:
	dune build @all
	sh tools/soak.sh

# AST analyzer over the project's own sources (`psched lint`, lib/lint:
# parsetree ports of every legacy grep gate, determinism audit,
# Domain-race heuristic, per-file invalid_arg ratchet against
# tools/lint_baseline.json) plus a strict -warn-error +a build of the
# whole tree (DESIGN.md sections 11 and 16).  tools/lint.sh builds and
# execs the binary; without dune it fails.
lint:
	sh tools/lint.sh
	dune build --profile strict @all

# Rule-based analyzer sweep: every registry policy x the check corpus,
# approximation-ratio certificates + structural + trace rules; writes
# the findings report and exits 1 on any Error finding.
analyze:
	dune exec bin/psched.exe -- check --all --json check_report.json

# Rewrite the committed analyzer report and tables that CI diffs fresh
# `check --all --json`, `tables multires`, `tables stretch` (the queue
# disciplines) and `ablations A-estimates` (non-clairvoyant EASY)
# output against.  All are seeded and carry no timings, so run this
# only after a change meant to alter a schedule, a certificate ratio
# or a finding.
check-fixture:
	dune exec bin/psched.exe -- check --all --json test/fixtures/check_all.json
	dune exec bin/psched.exe -- tables multires > test/fixtures/tables_multires.txt
	dune exec bin/psched.exe -- tables stretch > test/fixtures/tables_stretch.txt
	dune exec bin/psched.exe -- ablations A-estimates > test/fixtures/ablation_estimates.txt

# Everything CI runs except the timing gate, plus the robustness
# degradation grid (BENCH_2.json, deterministic at seed 42).
check: build test trace-smoke soak lint analyze
	dune exec bin/psched.exe -- fault -o BENCH_2.json

clean:
	dune clean
