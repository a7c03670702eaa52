#!/usr/bin/env python
"""Bench-schema validator: the checked-in benchmark JSONs must not rot.

Validates every committed ``BENCH_*.json`` against the schema its
generator declares.  The file list, expected schemas, required result
sections and per-row columns all come from the **suite registry**
(:mod:`repro.experiments.bench`) — the same registry that builds the
``repro bench`` CLI and the ``make bench-*`` targets — so adding a
suite there automatically extends this validator.  The rules per file:

* the top level must carry ``schema`` / ``created_unix`` / ``dataset`` /
  ``config`` / ``results`` and the schema string must match exactly;
* every required result section (``train_throughput`` +
  ``train_quality`` for the training frontier, where every throughput row must carry the
  grad_mode/num_items/ms_per_step columns; ``serve`` +
  ``serve_sharded`` for the serve file; ``ann`` + ``ann_baseline`` for
  the ANN frontier, where every ``ann`` row must carry the
  nlist/nprobe/recall/users_per_s columns; ``latency`` for the
  tail-latency frontier, where every row must carry the
  offered_qps/achieved_qps/p50_ms/p99_ms/shed_rate columns;
  ``refresh`` for the live-refresh churn sweep, where every row must
  carry the churn_fraction/rows_changed/delta_apply_ms/ivf_update_ms/
  ivf_rebuild_ms/swap_pause_ms/requests_during_swap/errors columns;
  ``scale`` for the out-of-core frontier, where every row must carry
  the level/num_users/num_items/ms_per_step/users_per_s/peak_rss_mb
  columns) must be present and its rows must carry the per-kind
  required fields;
* every number anywhere in the payload must be finite — a NaN or
  infinity in a throughput column means a broken timing run was
  committed.

Run directly (``python scripts/check_bench.py [files...]``) or via
``make verify`` / ``scripts/verify.sh``; the CI workflow runs the same
check on every push.  Exits non-zero on any problem.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    from repro.experiments.bench import expected_files, required_row_fields
except ImportError:  # run directly, without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.experiments.bench import expected_files, required_row_fields

#: filename -> (expected schema, required result kinds) — derived from
#: the suite registry so the validator can never drift from the
#: generators (``tests/test_bench_check.py`` pins the coverage both ways)
EXPECTED = expected_files()

#: result kind -> fields every row of that kind must carry
REQUIRED_FIELDS = required_row_fields()

_TOP_LEVEL = ("schema", "created_unix", "dataset", "config", "results")


def _walk_numbers(value, path: str):
    """Yield ``(json_path, number)`` for every numeric leaf."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path, value
    elif isinstance(value, dict):
        for key, child in value.items():
            yield from _walk_numbers(child, f"{path}.{key}")
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _walk_numbers(child, f"{path}[{i}]")


def check_payload(name: str, payload) -> list[str]:
    """Return human-readable problems for one parsed bench payload."""
    expected_schema, required_kinds = EXPECTED[name]
    problems = []
    if not isinstance(payload, dict):
        return [f"{name}: top level is not a JSON object"]
    for key in _TOP_LEVEL:
        if key not in payload:
            problems.append(f"{name}: missing top-level key {key!r}")
    if problems:
        return problems
    if payload["schema"] != expected_schema:
        problems.append(f"{name}: schema {payload['schema']!r} does not "
                        f"match expected {expected_schema!r}")
    results = payload["results"]
    if not isinstance(results, list) or not results:
        problems.append(f"{name}: results section is empty")
        return problems
    kinds_seen = set()
    for i, row in enumerate(results):
        if not isinstance(row, dict) or "kind" not in row:
            problems.append(f"{name}: results[{i}] has no 'kind'")
            continue
        kinds_seen.add(row["kind"])
        missing = REQUIRED_FIELDS.get(row["kind"], set()) - set(row)
        if missing:
            problems.append(f"{name}: results[{i}] ({row['kind']}) is "
                            f"missing fields {sorted(missing)}")
    for kind in sorted(required_kinds - kinds_seen):
        problems.append(f"{name}: no {kind!r} rows — required section "
                        f"missing")
    for path, number in _walk_numbers(payload, name):
        if not math.isfinite(number):
            problems.append(f"{path}: non-finite number {number!r}")
    return problems


def check_file(path: pathlib.Path) -> list[str]:
    """Load and validate one bench file; returns its problem list."""
    name = path.name
    if name not in EXPECTED:
        return [f"{name}: unknown bench file (expected one of "
                f"{sorted(EXPECTED)})"]
    if not path.is_file():
        return [f"{name}: file missing at {path}"]
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{name}: invalid JSON ({exc})"]
    return check_payload(name, payload)


def main(argv=None) -> int:
    """Validate the given bench files (default: every registry file)."""
    argv = sys.argv[1:] if argv is None else argv
    paths = ([pathlib.Path(a) for a in argv] if argv
             else [REPO_ROOT / name for name in sorted(EXPECTED)])
    problems = []
    for path in paths:
        problems.extend(check_file(path))
    for problem in problems:
        print(f"bench-check: {problem}", file=sys.stderr)
    if not problems:
        print(f"bench-check: {len(paths)} files OK "
              f"({', '.join(p.name for p in paths)})")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(min(main(), 1))
