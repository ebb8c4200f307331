"""``run``: prepare the inputs, launch the repeats, check and summarise them.

The harness is a single closed-loop load generator: it launches one repeat at a
time and the next only after the previous one exits, each in a fresh
interpreter.  End-to-end metrics summarise the untraced repeats (see
:data:`BETTER_QUARTILE`); a traced repeat, run after them, supplies the
per-layer metrics and its overhead against the untraced median.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from benchmarks.perf.digest import first_mismatch, load_golden
from benchmarks.perf.spec import ARTIFACTS, DEFAULT_SEED, ROOT, SRC, BenchmarkSpec, Metric
from benchmarks.perf.workloads import WORKLOADS, load_reference, prepare

#: No new repeat starts once a workload has run this long...
WORKLOAD_BUDGET_S = 120.0
#: ...and a repeat still running at this point is killed with its process
#: group, so a run of one workload ends within three minutes.
WORKLOAD_DEADLINE_S = 170.0
#: ``trace.unattributed_share`` above this means the spans miss real work.
UNATTRIBUTED_LIMIT = 0.10
#: The timed call's speed reports the better quartile of a run's repeats;
#: every other end-to-end metric reports their median.  Other tenants of
#: a shared machine only ever slow a repeat down, in streaks of seconds,
#: so the median of a run moves with how many repeats a streak caught,
#: while the better quartile stays with the undisturbed ones.  Over ten
#: runs at ten seeds per workload this cut the largest run-to-run spread
#: of the two metrics from 7.1 % to 4.5 % (README, "Why these bounds").
BETTER_QUARTILE = frozenset({"records_per_s", "cpu_ms_per_record"})


class RepFailed(RuntimeError):
    """A repeat crashed, hung or wrote no result."""


def _stop_group(pgid: int) -> None:
    """Kill what is left of a repeat's process group and wait for it to go."""

    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def launch_rep(
    workload: str, seed: int, prep_dir: Path, index: int, *, trace: bool, tiny: bool, timeout: float
) -> dict[str, Any]:
    """Run one repeat in a fresh interpreter; its parsed result."""

    run_dir = ARTIFACTS / "reps" / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # String hashing follows the seed too: same seed, same process.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    command = [
        sys.executable, "-m", "benchmarks.perf.rep",
        "--workload", workload, "--seed", str(seed),
        "--prep", str(prep_dir), "--run-dir", str(run_dir),
    ]
    command += ["--trace"] * trace + ["--tiny"] * tiny
    log_path = run_dir / "rep.log"
    with log_path.open("wb") as log:
        proc = subprocess.Popen(
            command + ["--launched", repr(time.monotonic())],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code: int | None = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
        _stop_group(proc.pid)
    result_path = run_dir / "result.json"
    if code != 0 or not result_path.is_file():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        reason = "timed out" if code is None else f"exited with {code}"
        raise RepFailed(f"{workload} repeat {index} {reason}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if trace:
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        shutil.move(str(run_dir / "trace.json"), ARTIFACTS / f"trace-{workload}.json")
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def _end_to_end(result: dict[str, Any], expected: int) -> dict[str, float]:
    records = max(1, result["records"])
    healthy = min(result["records"], expected) - result["errors"]
    return {
        "records_per_s": result["records"] / result["wall_s"],
        "cpu_ms_per_record": 1000.0 * result["cpu_s"] / records,
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        # Error-marked, degraded and missing records count against it.  It
        # counts successes rather than errors so that it is never 0.
        "success_rate": healthy / expected,
    }


def _summarise(metric: Metric, values: list[float]) -> float:
    """One run's value of ``metric`` from its repeats."""

    # Below three repeats the quartiles would lie outside the values.
    if metric.name not in BETTER_QUARTILE or len(values) < 3:
        return statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return third if metric.better == "higher" else first


def run_workload(
    name: str, seed: int, spec: BenchmarkSpec, *, repeats: int, seconds: float, trace: bool, tiny: bool
) -> dict[str, Any]:
    """Every repeat of one workload, checked and summarised."""

    started = time.monotonic()
    input_set = WORKLOADS[name].input_set
    prep_dir = prepare(input_set, seed, tiny)
    reference = load_reference(prep_dir)
    expected = sum(len(rows) for rows in reference.values())
    problems: list[str] = []
    golden = load_golden(input_set.name) if seed == DEFAULT_SEED and not tiny else None
    if golden is not None and (mismatch := first_mismatch(golden, reference)):
        problems.append(f"the serial reference departs from the golden digests: {mismatch}")

    results: list[dict[str, Any]] = []
    attempted = failed = 0

    def attempt(index: int, traced: bool) -> dict[str, Any] | None:
        nonlocal attempted, failed
        attempted += expected
        timeout = max(5.0, WORKLOAD_DEADLINE_S - (time.monotonic() - started))
        try:
            result = launch_rep(name, seed, prep_dir, index, trace=traced, tiny=tiny, timeout=timeout)
        except RepFailed as exc:
            failed += expected
            problems.append(str(exc))
            return None
        failed += result["errors"] + max(0, expected - result["records"])
        if mismatch := first_mismatch(reference, result["hashes"]):
            problems.append(f"{name} repeat {index}: {mismatch}")
        return result

    measuring = time.monotonic()

    def another() -> bool:
        """Whether to launch one more untraced repeat."""

        if problems or time.monotonic() - started >= WORKLOAD_BUDGET_S:
            return False
        if len(results) < repeats:
            return True
        # Past the minimum count, a repeat starts only if it, and the traced
        # repeat still to come, would end within ``seconds`` at the average
        # length so far: the run measures for ``seconds``, not one repeat more.
        elapsed = time.monotonic() - measuring
        return elapsed * (len(results) + 1 + trace) / len(results) <= seconds

    while another():
        result = attempt(len(results), traced=False)
        if result is not None:
            results.append(result)
    traced = attempt(len(results), traced=True) if trace and results and not problems else None

    metrics: dict[str, dict[str, Any]] = {}
    if results:
        samples = [_end_to_end(result, expected) for result in results]
        for metric in spec.end_to_end:
            values = [sample[metric.name] for sample in samples]
            metrics[metric.name] = {
                "value": _summarise(metric, values),
                "unit": metric.unit,
                "min": min(values),
                "max": max(values),
                "n": len(values),
                "repeats": values,
            }
    layers: dict[str, dict[str, Any]] = {}
    if traced is not None:
        untraced_wall = statistics.median(result["wall_s"] for result in results)
        values = {**traced["layers"], "trace.overhead_share": traced["wall_s"] / untraced_wall - 1.0}
        layers = {metric.name: {"value": values[metric.name], "unit": metric.unit} for metric in spec.per_layer}
    return {
        "workload": name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
    }


def _print_summary(summary: dict[str, Any], spec: BenchmarkSpec) -> None:
    name = summary["workload"]
    print(f"\n== {name} (seed {summary['seed']}) ==")
    for metric in spec.end_to_end:
        entry = summary["metrics"].get(metric.name)
        if entry is not None:
            print(
                f"  {metric.name:<20} {entry['value']:>12.4f} {metric.unit:<10}"
                f" min {entry['min']:.4f}  max {entry['max']:.4f}  n={entry['n']}"
                f"  ({metric.better} is better, bound {metric.bound:.0%})"
            )
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}, correct {summary['correct']}")
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")
    if summary["layers"]:
        _print_layers(summary["layers"], spec.per_layer)


def _print_layers(layers: dict[str, dict[str, Any]], metrics: Sequence[Metric]) -> None:
    """Per-layer table: self times ranked, then every other metric."""

    timed = sorted(
        (metric for metric in metrics if metric.unit == "s"),
        key=lambda metric: layers[metric.name]["value"],
        reverse=True,
    )
    print("  per-layer self time (traced repeat), ranked:")
    for metric in timed:
        print(f"    {layers[metric.name]['value']:>10.4f} s   {metric.name}")
    print("  per-layer counts and ratios:")
    for metric in metrics:
        if metric.unit != "s":
            print(f"    {layers[metric.name]['value']:>14.4f} {metric.unit:<8} {metric.name}")
    unattributed = layers["trace.unattributed_share"]["value"]
    if unattributed > UNATTRIBUTED_LIMIT:
        print(
            f"  FLAG: trace.unattributed_share {unattributed:.3f} > {UNATTRIBUTED_LIMIT:.2f}:"
            " the spans miss part of the main thread's wall-clock"
        )


def run(
    spec: BenchmarkSpec,
    workloads: Sequence[str],
    *,
    seed: int,
    repeats: int,
    seconds: float,
    trace: bool,
    tiny: bool,
    out: Path | None,
) -> int:
    summaries = {
        name: run_workload(name, seed, spec, repeats=repeats, seconds=seconds, trace=trace, tiny=tiny)
        for name in workloads
    }
    for summary in summaries.values():
        _print_summary(summary, spec)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, "trace": trace, "workloads": summaries}) + "\n")

    def reported(summary: dict[str, Any]) -> dict[str, dict[str, Any]]:
        chosen = summary["layers"] if trace else summary["metrics"]
        return {name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in chosen.items()}

    if len(summaries) == 1:
        metrics = reported(next(iter(summaries.values())))
    else:
        metrics = {
            f"{workload}.{name}": entry
            for workload, summary in summaries.items()
            for name, entry in reported(summary).items()
        }
    correct = all(summary["correct"] for summary in summaries.values())
    line = {
        "correct": correct,
        "attempted": sum(summary["attempted"] for summary in summaries.values()),
        "failed": sum(summary["failed"] for summary in summaries.values()),
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1
