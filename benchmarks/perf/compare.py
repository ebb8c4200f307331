"""``compare``: is a change better, worse, or indistinguishable from its parent?

Both files are ``run --out`` outputs: one JSON line per run.  Run ``i`` of
the parent pairs with run ``i`` of the change; alternate which side runs
first.  Per workload and end-to-end metric:

* **gain** — the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* **regression** — the change's median is worse than the parent's by more
  than the metric's bound;
* **loss** — the mirror of a gain within the bound: the change loses at
  least 9 of every 10 pairs and the medians differ by more than the
  parent's interquartile range.  The bounds are set for the noisiest
  workload, so a slowdown inside them can still be clear on a quiet one;
* **unresolved** — otherwise, when either side's spread (interquartile
  range over median) exceeds the bound and not every change run beats
  every parent run: the runs cannot tell "unchanged" apart from a
  regression the noise hides;
* **unchanged** — otherwise.

A gain does not count when the change's runs fail more records than the
parent's.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from benchmarks.perf.spec import BenchmarkSpec, Metric

MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    metric: str
    outcome: str
    parent_median: float
    change_median: float
    wins: int
    pairs: int


def _spread(values: Sequence[float]) -> tuple[float, float]:
    """(interquartile range, median)."""

    first, _, third = statistics.quantiles(values, n=4)
    return third - first, statistics.median(values)


def verdict(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> Verdict:
    """Judge one metric over paired runs (``parent[i]`` pairs with ``change[i]``)."""

    pairs = min(len(parent), len(change))
    if pairs < MIN_PAIRS:
        raise ValueError(f"{metric.name}: {pairs} pairs, at least {MIN_PAIRS} are needed")
    parent, change = list(parent[:pairs]), list(change[:pairs])
    wins = sum(metric.is_better(c, p) for p, c in zip(parent, change))
    losses = sum(metric.is_better(p, c) for p, c in zip(parent, change))
    parent_iqr, parent_median = _spread(parent)
    change_iqr, change_median = _spread(change)
    spread = max(
        parent_iqr / abs(parent_median) if parent_median else 0.0,
        change_iqr / abs(change_median) if change_median else 0.0,
    )
    every_run_better = all(metric.is_better(c, p) for c in change for p in parent)
    separated = abs(change_median - parent_median) > parent_iqr
    if wins >= WIN_SHARE * pairs and separated:
        outcome = "gain"
    elif metric.worse_by(change_median, parent_median) > metric.bound:
        outcome = "regression"
    elif losses >= WIN_SHARE * pairs and separated:
        outcome = "loss"
    elif spread > metric.bound and not every_run_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return Verdict(metric.name, outcome, parent_median, change_median, wins, pairs)


def load_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def compare(spec: BenchmarkSpec, parent_path: Path, change_path: Path) -> int:
    """Print one row per workload; exit status 1 on any regression."""

    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    workloads = [
        name
        for name in spec.workloads
        if all(name in run["workloads"] for run in parent_runs + change_runs)
    ]
    regressed = False
    for name in workloads:
        def failed(runs: list[dict]) -> int:
            return sum(run["workloads"][name]["failed"] for run in runs)

        # A gain does not count when the change fails more records.
        more_failures = failed(change_runs) > failed(parent_runs)
        cells = []
        for metric in spec.end_to_end:
            def values(runs: list[dict]) -> list[float]:
                return [run["workloads"][name]["metrics"][metric.name]["value"] for run in runs]

            result = verdict(metric, values(parent_runs), values(change_runs))
            outcome = "unchanged" if more_failures and result.outcome == "gain" else result.outcome
            regressed |= outcome == "regression"
            cells.append(
                f"{metric.name} {outcome} ({result.parent_median:.4g} -> "
                f"{result.change_median:.4g} {metric.unit}, {result.wins}/{result.pairs} wins)"
            )
        note = f"  [change failed {failed(change_runs) - failed(parent_runs)} more records]" if more_failures else ""
        print(f"{name:<14} " + " | ".join(cells) + note)
    return 1 if regressed else 0
