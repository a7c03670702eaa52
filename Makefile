# Developer entry points.  The test tiers mirror the root conftest.py:
# tier-1 must stay fast; everything slow hides behind --runslow.
#
#   make verify          tier-1 tests + docs/bench checkers (what CI gates on)
#   make verify-slow     everything, incl. paper-figure benches
#   make ci              strict verify, exactly what .github/workflows/ci.yml runs
#   make bench           regenerate BENCH_train.json + BENCH_serve.json
#   make bench-<suite>   regenerate one registry suite (train, serve, ann,
#                        latency, refresh, obs, faults, scale)
#                        via `repro bench <suite>`; see repro.experiments.bench
#   make bench-e2e       the repo benchmark declared in BENCHMARK.json: four
#                        workloads, every end-to-end metric, answers checked
#                        against the brute-force oracle; see bench/README.md
#   make bench-e2e-trace ... plus the traced pass: every per-layer metric
#   make docs-check      just the README/docs reference checker
#   make bench-check     just the benchmark JSON schema validator

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify verify-slow test ci docs-check bench-check bench bench-train bench-serve bench-ann bench-latency bench-refresh bench-obs bench-faults bench-scale bench-e2e bench-e2e-trace

verify: docs-check bench-check
	$(PYTHON) -m pytest -x -q

verify-slow: docs-check bench-check
	$(PYTHON) -m pytest -x -q --runslow

test: verify

ci:
	sh scripts/verify.sh --strict

docs-check:
	$(PYTHON) scripts/check_docs.py

bench-check:
	$(PYTHON) scripts/check_bench.py

bench: bench-train bench-serve

bench-train:
	$(PYTHON) -m repro.cli bench train --out BENCH_train.json

bench-serve:
	$(PYTHON) -m repro.cli bench serve --out BENCH_serve.json

bench-ann:
	$(PYTHON) -m repro.cli bench ann --out BENCH_ann.json

bench-latency:
	$(PYTHON) -m repro.cli bench latency --out BENCH_latency.json

bench-refresh:
	$(PYTHON) -m repro.cli bench refresh --out BENCH_refresh.json

bench-obs:
	$(PYTHON) -m repro.cli bench obs --out BENCH_obs.json

bench-scale:
	$(PYTHON) -m repro.cli bench scale --out BENCH_scale.json

bench-faults:
	$(PYTHON) -m repro.cli bench faults --out BENCH_faults.json

bench-e2e:
	$(PYTHON) bench/run.py --all

bench-e2e-trace:
	$(PYTHON) bench/run.py --all --trace
