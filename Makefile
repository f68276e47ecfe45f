.PHONY: all build test bench-smoke bench bench-fault bench-scale bench-scale-full bench-serve bench-multires bench-diff profile trace-smoke soak lint analyze check clean

all: build

build:
	dune build @all

test:
	dune runtest

# One reduced benchmark pair, enough to catch a broken bench harness or
# a grossly regressed profile engine without the full multi-minute run.
bench-smoke:
	dune exec bench/main.exe -- perf --json --quick

# Full micro-benchmarks; rewrites BENCH_1.json with per-test estimates
# and the profile-engine speedup table.
bench:
	dune exec bench/main.exe -- perf --json

# Robustness degradation grid (rate x recovery policy x backoff);
# rewrites BENCH_2.json deterministically at seed 42.
bench-fault:
	dune exec bench/main.exe -- fault-table --json

# Streaming-engine scaling smoke: first grid point of the scaling
# curve (time, peak live segments, memory high-water) plus the
# sequential-vs-sharded analyzer sweep; exits 1 if the sharded report
# is not byte-identical.  Rewrites BENCH_scale_quick.json.
bench-scale:
	dune exec bin/psched.exe -- bench scale --quick --json BENCH_scale_quick.json

# Full scaling curve up to a million jobs; rewrites BENCH_scale.json.
bench-scale-full:
	dune exec bin/psched.exe -- bench scale --json BENCH_scale.json

# Serve-daemon throughput and decision latency: steady Poisson load and
# a 2x storm against a bounded admission queue; exits 1 if the storm
# fails to engage shedding.  Rewrites BENCH_serve_quick.json.
bench-serve:
	dune exec bin/psched.exe -- bench serve --quick --json BENCH_serve_quick.json

# App-class communities (CPU-, memory- and I/O-bound) under the
# cores-only EASY baseline vs the multi-resource list/EASY policies;
# rewrites BENCH_4.json deterministically at seed 42.
bench-multires:
	dune exec bin/psched.exe -- bench multires --json BENCH_4.json

# Noise-aware regression gate: re-measure the quick pair and the quick
# scaling point, diff both against their committed baselines (exit 1
# past the threshold when the confidence intervals are disjoint).  CI
# runs the same recipe.
bench-diff:
	dune exec bench/main.exe -- perf --json --quick
	dune exec bin/psched.exe -- bench diff bench/baseline.json BENCH_quick.json \
		--threshold 0.5
	dune exec bin/psched.exe -- bench scale --quick --json BENCH_scale_quick.json
	dune exec bin/psched.exe -- bench diff bench/baseline_scale.json BENCH_scale_quick.json \
		--threshold 0.5

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

check: build test bench-smoke bench-fault bench-scale bench-serve bench-multires trace-smoke soak lint analyze

clean:
	dune clean
