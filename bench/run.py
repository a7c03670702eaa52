#!/usr/bin/env python3
"""The repo benchmark: four workloads, drift-calibrated medians, layer trace.

    python3 bench/run.py --all [--trace] [--seed S]     every metric, by name
    python3 bench/run.py --aa 3                         A/A control, two sets
    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

The last form is one pass of one workload in this process; its last
stdout line is the JSON result.  ``--all`` and ``--aa`` run that form in
a fresh subprocess per workload.  An untraced pass starts one more
process, the untimed memory pass (``--memory-pass``), so ``ru_maxrss``
is honest.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from pinned_env import MEMORY_ENV, PINNED_ENV, exec_pinned

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC_FILE = REPO_ROOT / "BENCHMARK.json"


def _spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def _child(args, workload: str, seed: int, trace: bool) -> dict:
    """One pass in a fresh process; returns its parsed result line."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(int(trace)), "--work-dir", str(args.work_dir),
           "--results-dir", str(args.results_dir)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_result(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed "
          f"{result['failed']}, fail_frac "
          f"{result['failed'] / result['attempted']:.4f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:38s} {metric['value']:14.4f} {metric['unit']}")


def run_all(args) -> int:
    """Every workload once (and once traced with ``--trace``); 0 if correct."""
    correct = True
    for workload in (w["name"] for w in _spec()["workloads"]):
        for trace in (False, True) if args.trace else (False,):
            result = _child(args, workload, args.seed, trace)
            _print_result(workload + (" [traced]" if trace else ""), result)
            correct = correct and result["correct"]
    return 0 if correct else 1


def run_aa(args) -> int:
    """Two sets of ``--aa`` full-suite runs of the same code; 0 if they agree.

    The sets interleave (A B A B ...), so slow drift of the box lands on
    both.  A metric passes when its set medians differ by no more than
    its bound, as a share of the first set's median.
    """
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    failed = 0
    for repeat in range(args.aa):
        for label in ("a", "b"):
            for workload in (w["name"] for w in spec["workloads"]):
                result = _child(args, workload, args.seed + repeat, False)
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), {"a": [], "b": []})[
                        label].append(metric["value"])
                print(f"aa {repeat + 1}/{args.aa} set {label} {workload}: "
                      + ", ".join(f"{k} {v['value']:.4f}" for k, v in
                                  result["metrics"].items()), flush=True)
    rows = []
    for (workload, name), sets in values.items():
        medians = {k: statistics.median(v) for k, v in sets.items()}
        delta = abs(medians["b"] - medians["a"]) / medians["a"]
        pooled = sets["a"] + sets["b"]
        rows.append({
            "workload": workload, "metric": name, "bound": bounds[name],
            "median_a": medians["a"], "median_b": medians["b"],
            "delta_frac": delta,
            "quartiles": statistics.quantiles(pooled, n=4),
            "values_a": sets["a"], "values_b": sets["b"],
            "verdict": "pass" if delta <= bounds[name] else "FAIL"})
        print(f"{workload:20s} {name:14s} a {medians['a']:10.4f}  b "
              f"{medians['b']:10.4f}  delta {100 * delta:5.2f} %  bound "
              f"{100 * bounds[name]:4.1f} %  {rows[-1]['verdict']}")
    ok = failed == 0 and all(r["verdict"] == "pass" for r in rows)
    args.results_dir.mkdir(parents=True, exist_ok=True)
    (args.results_dir / "aa.json").write_text(json.dumps(
        {"runs_per_set": args.aa, "seed": args.seed, "seconds": args.seconds,
         "failed_ops": failed, "verdict": "pass" if ok else "FAIL",
         "rows": rows}, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one pass of this workload")
    mode.add_argument("--all", action="store_true",
                      help="run every workload and print every metric")
    mode.add_argument("--aa", type=int, nargs="?", const=3, metavar="N",
                      help="A/A control: N full-suite runs per set, two sets")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sets the fixed op count (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        help="1: the traced pass that gives per-layer metrics")
    parser.add_argument("--memory-pass", action="store_true",
                        help="with --workload: only set-up and a few ops "
                             "under the memory pins, for peak_rss_mb")
    parser.add_argument("--tiny", action="store_true",
                        help="toy shapes for the self-tests")
    parser.add_argument("--work-dir", type=pathlib.Path,
                        default=BENCH_DIR / ".work",
                        help="generated shards, tables and snapshots")
    parser.add_argument("--results-dir", type=pathlib.Path,
                        default=BENCH_DIR / "results")
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        # Never fall back to an installed copy: the benchmark measures
        # the checkout it sits in.
        print(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.memory_pass and not args.workload:
        parser.error("--memory-pass needs --workload")
    if args.all:
        return run_all(args)
    if args.aa is not None:
        return run_aa(args)

    # before numpy loads
    exec_pinned(MEMORY_ENV if args.memory_pass else PINNED_ENV)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from harness import memory_pass, run_workload
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(WORKLOADS)}")
    if args.memory_pass:
        result = memory_pass(args.workload, args.seed, args.tiny,
                             args.work_dir)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.tiny, args.work_dir,
                              args.results_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
