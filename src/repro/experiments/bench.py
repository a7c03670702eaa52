"""Benchmark suite registry: one place that knows every bench.

A suite is one declaration (:class:`BenchSuite`): its config dataclass,
its ``run_*_suite`` function, its ``summarize_*`` function, its schema
and the result kinds / row columns its JSON must carry.  Everything
else derives from the registry instead of repeating the list:

* ``repro bench <suite>`` gets one flag per field of the suite's config
  dataclass, with the field's type, default and ``help`` metadata
  (:meth:`BenchSuite.configure`), builds the config back from the parsed
  flags (:meth:`BenchSuite.config_from`) and runs, writes and summarizes
  through one runner (:meth:`BenchSuite.main`);
* the ``--out`` default (``BENCH_<name>.json``) and the make target
  (``bench-<name>``) are properties of the suite's name;
* ``scripts/check_bench.py`` validates the committed ``BENCH_*.json``
  files against :func:`expected_files` / :func:`required_row_fields`;
* ``tests/test_bench_check.py`` / ``tests/test_ci.py`` assert the
  registry, the flag surface, the Makefile and the committed files stay
  in sync.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields
from typing import Callable

from repro.data import dataset_names
from repro.experiments import faults_perf, perf, scale_perf
from repro.losses import loss_names
from repro.models import model_names

__all__ = ["BenchSuite", "SUITES", "suite_names", "get_suite",
           "expected_files", "required_row_fields", "add_bench_subparsers"]

#: Config fields whose flag keeps a historical spelling that is not the
#: field name (``n_negatives`` is ``--negatives``).
FLAG_SPELLINGS = {"n_negatives": "negatives", "fault_rates": "rates"}

#: Config fields argparse validates against a closed set (exit 2 on an
#: unknown name, before anything is trained).
FLAG_CHOICES = {"dataset": dataset_names(), "model": model_names(),
                "loss": loss_names()}


def _tuple_of(kind: type):
    """argparse ``type`` for a comma-separated tuple flag ('' is ``()``)."""
    def parse(text: str) -> tuple:
        return tuple(kind(part) for part in text.split(",")) if text else ()
    return parse


@dataclass(frozen=True)
class BenchSuite:
    """One registered benchmark suite.

    ``row_fields`` lists every result kind the suite may emit with the
    columns each row must carry.
    """

    name: str
    help: str
    schema: str
    #: the suite's config dataclass: one ``repro bench`` flag per field
    config: type
    #: ``run_*_suite(config) -> payload``
    run: Callable[[object], dict]
    #: ``summarize_*(payload) -> text``
    summarize: Callable[[dict], str]
    #: result kinds the committed file must contain
    required_kinds: frozenset
    #: kind -> columns every row of that kind must carry
    row_fields: dict

    @property
    def output(self) -> str:
        """Repo-root JSON file the suite maintains (``--out`` default)."""
        return f"BENCH_{self.name}.json"

    @property
    def make_target(self) -> str:
        return f"bench-{self.name}"

    def configure(self, parser: argparse.ArgumentParser) -> None:
        """One flag per config field (``dest`` is the field name) + ``--out``.

        A ``bool`` field is a switch away from its ``False`` default
        (``--keep-work``), a ``tuple`` field takes comma-separated values
        of its default's element type, anything else parses with the
        type of its default.
        """
        for f in fields(self.config):
            flag = FLAG_SPELLINGS.get(f.name, f.name).replace("_", "-")
            options = {"dest": f.name, "default": f.default,
                       "help": f.metadata.get("help")}
            if f.default is False:
                options["action"] = "store_true"
            elif isinstance(f.default, tuple):
                options["type"] = _tuple_of(type(f.default[0]))
            else:  # only ``work_dir`` defaults to None: a path
                options["type"] = str if f.default is None else type(f.default)
                options["choices"] = FLAG_CHOICES.get(f.name)
            parser.add_argument(f"--{flag}", **options)
        parser.add_argument("--out", default=self.output)

    def config_from(self, args: argparse.Namespace):
        """The config dataclass a parsed ``repro bench <suite>`` line means."""
        return self.config(**{f.name: getattr(args, f.name)
                              for f in fields(self.config)})

    def main(self, args: argparse.Namespace) -> int:
        """Run the suite, write ``args.out``, print the summary."""
        payload = self.run(self.config_from(args))
        perf.write_report(payload, args.out)
        print(self.summarize(payload))
        print(f"wrote {args.out}")
        return 0


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
SUITES = {suite.name: suite for suite in (
    BenchSuite(
        name="ann",
        help="sweep the IVF recall/throughput frontier",
        schema=perf.ANN_SCHEMA,
        config=perf.AnnPerfConfig,
        run=perf.run_ann_suite,
        summarize=perf.summarize_ann,
        required_kinds=frozenset({"ann", "ann_baseline"}),
        row_fields={
            "ann": {"index", "nlist", "nprobe", "recall", "users_per_s",
                    "k", "batch_size", "candidates_mean",
                    "speedup_vs_exact"},
            "ann_baseline": {"index", "users_per_s", "k", "batch_size"},
        }),
    BenchSuite(
        name="latency",
        help="sweep offered load through the async serving runtime",
        schema=perf.LATENCY_SCHEMA,
        config=perf.LatencyPerfConfig,
        run=perf.run_latency_suite,
        summarize=perf.summarize_latency,
        required_kinds=frozenset({"latency"}),
        row_fields={
            "latency": {"index", "offered_qps", "achieved_qps", "p50_ms",
                        "p99_ms", "shed_rate", "k", "slo_ms",
                        "mean_queue_ms", "mean_service_ms"},
        }),
    BenchSuite(
        name="faults",
        help="availability and tail latency under injected shard "
             "faults, with and without hedging + circuit breakers",
        schema=faults_perf.FAULTS_SCHEMA,
        config=faults_perf.FaultsPerfConfig,
        run=faults_perf.run_faults_suite,
        summarize=faults_perf.summarize_faults,
        required_kinds=frozenset({"faults"}),
        row_fields={
            "faults": {"scenario", "policy", "fault_rate", "fault_kind",
                       "requests", "availability", "degraded_rate",
                       "error_rate", "p50_ms", "p99_ms", "retries",
                       "hedges", "hedge_wins", "shard_failures",
                       "breaker_open_skips", "k", "shards", "slo_ms",
                       "deadline_ms"},
        }),
    BenchSuite(
        name="scale",
        help="out-of-core million-scale pipeline: step time and peak "
             "RSS vs catalogue size",
        schema=scale_perf.SCALE_SCHEMA,
        config=scale_perf.ScalePerfConfig,
        run=scale_perf.run_scale_suite,
        summarize=scale_perf.summarize_scale,
        required_kinds=frozenset({"scale"}),
        row_fields={
            "scale": {"level", "num_users", "num_items", "catalogue",
                      "num_train", "dim", "batch_size", "n_negatives",
                      "steps", "ms_per_step", "users_per_s",
                      "peak_rss_mb", "est_dense_bytes", "shard_bytes"},
        }),
)}


def suite_names() -> list[str]:
    """Registered suite names, in registry order."""
    return list(SUITES)


def get_suite(name: str) -> BenchSuite:
    try:
        return SUITES[name]
    except KeyError:
        raise KeyError(f"unknown bench suite {name!r} "
                       f"(registered: {suite_names()})") from None


def expected_files() -> dict:
    """``filename -> (schema, required result kinds)`` for the validator."""
    return {suite.output: (suite.schema, set(suite.required_kinds))
            for suite in SUITES.values()}


def required_row_fields() -> dict:
    """``kind -> required columns`` merged across every suite."""
    return {kind: set(columns) for suite in SUITES.values()
            for kind, columns in suite.row_fields.items()}


def add_bench_subparsers(sub) -> None:
    """Attach one ``repro bench <suite>`` subcommand per registry entry."""
    for suite in SUITES.values():
        parser = sub.add_parser(
            suite.name,
            help=f"{suite.help} -> {suite.output} "
                 f"(`make {suite.make_target}`)")
        suite.configure(parser)
