"""Shared by the benchmark's self-tests: import path and one tiny suite run."""

import json
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))


def run_bench(*args, cwd=None):
    """``python bench/run.py args...``; the completed process."""
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd)


@pytest.fixture(scope="session")
def tiny_suite(tmp_path_factory):
    """``--all --tiny --trace`` once: stdout and every result file."""
    root = tmp_path_factory.mktemp("bench")
    proc = run_bench("--all", "--tiny", "--trace", "--work-dir",
                     str(root / "work"), "--results-dir",
                     str(root / "results"))
    assert proc.returncode == 0, proc.stderr
    files = {path.stem: json.loads(path.read_text())
             for path in (root / "results").glob("*.json")}
    return {"stdout": proc.stdout, "files": files, "work": root / "work"}
