# Developer entry points.  PYTHONPATH is injected so no install step is
# needed; see PERFORMANCE.md for the engine architecture and the two
# time axes the benchmarks measure.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-quick bench-checkopt bench-temporal bench-prove bench-diff ci api-smoke policy-smoke fuzz-smoke store-smoke obs-smoke prove-smoke serve-smoke serve fuzz tables profile

test:            ## tier-1 test suite
	$(PYTHON) -m pytest -x -q

bench:           ## full wall-clock benchmark; records BENCH_interp.json
	$(PYTHON) benchmarks/bench_wallclock.py

bench-quick:     ## quick wall-clock subset (no recording)
	$(PYTHON) benchmarks/bench_wallclock.py --quick

bench-checkopt:  ## loop-pass cost-model ablation; records BENCH_checkopt.json
	$(PYTHON) benchmarks/bench_checkopt.py

bench-temporal:  ## temporal-checking overhead sweep; records BENCH_temporal.json
	$(PYTHON) benchmarks/bench_temporal_overhead.py

bench-prove:     ## -O1 vs -O2 solver-backed check elimination; records BENCH_prove.json
	$(PYTHON) benchmarks/bench_prove.py

bench-diff:      ## compare the recorded BENCH_*.json reports (bench-v2 schema)
	$(PYTHON) scripts/bench_diff.py BENCH_checkopt.json BENCH_temporal.json

ci:              ## tier-1 tests + perf gates (wall-clock >20%, opt >5%, temporal >5%, prove >5% fail) + api/policy/fuzz/store/obs/prove/serve smoke legs
	$(PYTHON) scripts/ci.py

api-smoke:       ## one workload through every protection profile via repro.api + all examples
	$(PYTHON) scripts/ci.py --api-smoke

policy-smoke:    ## checker-policy extension point: conformance suite + plugin discovery + matrix row
	$(PYTHON) scripts/ci.py --policy-smoke

fuzz-smoke:      ## time-boxed differential fuzzing campaign + chaos drill + seeded-bug minimization
	$(PYTHON) scripts/ci.py --fuzz-smoke

store-smoke:     ## persistent artifact store: warm-start replay + torn-write/SIGKILL chaos drill + verify
	$(PYTHON) scripts/ci.py --store-smoke

obs-smoke:       ## observability: trace schema, both-engine profiler stability, obs-disabled overhead gate
	$(PYTHON) scripts/ci.py --obs-smoke

prove-smoke:     ## -O2 prove pass: certificate replay, O-level x engine identity, overhead gate
	$(PYTHON) scripts/ci.py --prove-smoke

serve-smoke:     ## serve daemon: status mapping, CLI parity, 503/504 degradation, worker-kill recovery, SIGINT drain
	$(PYTHON) scripts/ci.py --serve-smoke

serve:           ## run the safety-as-a-service daemon (HOST/PORT/WORKERS env or flags; see docs/SERVE.md)
	$(PYTHON) -m repro serve

profile:         ## check-site profile of a workload (W=name, default bisort)
	$(PYTHON) -m repro profile $(or $(W),bisort)

fuzz:            ## open-ended differential fuzzing campaign (corpus in .fuzz-corpus/)
	$(PYTHON) -m repro fuzz run --resume --chaos --seeds 200 --time-budget 600

tables:          ## regenerate the paper's tables and figures (REPRO_JOBS=N fans out)
	$(PYTHON) -m repro tables
