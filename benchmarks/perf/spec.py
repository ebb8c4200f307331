"""Where the benchmark lives and what it promises to measure.

``BENCHMARK.json`` at the checkout root is the single source of truth for
the metric names, units, directions and regression bounds; the harness,
``compare`` and the self-test all read it through :func:`load_spec`.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import dataclass
from pathlib import Path

#: The checkout root (``benchmarks/perf/spec.py`` → two levels up).
ROOT = Path(__file__).resolve().parents[2]
#: The program under test.
SRC = ROOT / "src"
#: Gitignored working space: prepared inputs, per-repeat files, traces.
ARTIFACTS = ROOT / "benchmarks" / "artifacts" / "perf"
#: Committed reference digests (seed 7, default corpus).
GOLDEN = Path(__file__).resolve().parent / "golden"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: The seed the golden digests were recorded at and ``run`` defaults to.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Metric:
    """One metric as ``BENCHMARK.json`` declares it."""

    name: str
    unit: str
    better: str
    bound: float | None = None

    def is_better(self, candidate: float, baseline: float) -> bool:
        """Whether ``candidate`` reads strictly better than ``baseline``."""

        return candidate > baseline if self.better == "higher" else candidate < baseline

    def worse_by(self, candidate: float, baseline: float) -> float:
        """How much worse ``candidate`` is, as a share of ``baseline`` (<0: better)."""

        if baseline == 0:
            return 0.0
        change = (candidate - baseline) / abs(baseline)
        return -change if self.better == "higher" else change


@dataclass(frozen=True)
class BenchmarkSpec:
    workloads: tuple[str, ...]
    #: How long one run of one workload keeps launching repeats.
    run_seconds: float
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]


def load_spec(path: Path = SPEC_PATH) -> BenchmarkSpec:
    """Parse ``BENCHMARK.json``."""

    data = json.loads(path.read_text(encoding="utf-8"))
    return BenchmarkSpec(
        workloads=tuple(entry["name"] for entry in data["workloads"]),
        run_seconds=float(data["run_seconds"]),
        end_to_end=tuple(Metric(**entry) for entry in data["end_to_end"]),
        per_layer=tuple(Metric(**entry) for entry in data["per_layer"]),
    )


class MissingSourceError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def ensure_source() -> None:
    """Put ``src/`` first on ``sys.path`` and check ``repro`` resolves there.

    The benchmark measures the program in *this* checkout; an installed
    copy elsewhere on the path must never stand in for a missing one.
    """

    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSourceError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("repro")
    origin = Path(found.origin).resolve() if found is not None and found.origin else None
    if origin is None or SRC not in origin.parents:
        raise MissingSourceError(f"'repro' resolves to {origin}, not under {SRC}")
