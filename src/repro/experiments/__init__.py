"""Experiment harness, per-figure presets, report printers, bench suites.

The bench harnesses (:mod:`repro.experiments.perf`, ``faults_perf``,
``scale_perf``) and their registry (:mod:`repro.experiments.bench`, the
``repro bench <suite>`` verb) are not imported here; the CLI imports the
registry.
"""

from repro.experiments.harness import (ExperimentSpec, ExperimentResult,
                                       run_experiment, build_components,
                                       collect_negative_scores)
from repro.experiments import presets, report

__all__ = [
    "ExperimentSpec", "ExperimentResult", "run_experiment",
    "build_components", "collect_negative_scores", "presets", "report",
]
