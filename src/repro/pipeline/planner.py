"""Shard planning: deciding *where* a run's requests are cut into shards.

The scheduler (:mod:`repro.pipeline.scheduler`) consumes a
:class:`ShardPlan` — a contiguous split of the request list — but how the
cut points are chosen is a policy, and this module is its seam:

* :class:`CountPlanner` reproduces the original behaviour bit-identically:
  shards hold (almost) equal numbers of requests
  (:meth:`ShardPlan.for_size`).
* :class:`CostPlanner` balances shards by *predicted seconds* instead.
  Problems are wildly heterogeneous — an Istio bookinfo problem pulls
  half a gigabyte of images while a bare Pod problem pulls nothing — so
  equal-count shards finish minutes apart and the whole run waits on the
  slowest one.  The planner prices every request with the Figure 5 model
  (:meth:`repro.evalcluster.cost.CostModel.predict_problem_seconds`),
  accounts warm registry-cache hits *within* a shard (an image pulled for
  one problem is free for the next), and picks the contiguous partition
  minimising the maximum predicted shard duration.

Both planners emit contiguous plans, which is the property the merge
layer relies on: concatenating per-shard results in shard order
reproduces the original request order, so the planner choice — like the
executor choice — can never change a ScoreCard.

:class:`BatchSizer` applies the same idea one level down: *within* a
shard, it cuts the stream of requests into contiguous batches of roughly
equal predicted seconds instead of equal counts, so a pipeline's
per-batch progress (checkpoints, steal decisions, fleet dispatch) ticks
at an even rhythm even when one batch's problems are 10x another's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Protocol, Sequence, TypeVar, runtime_checkable

from repro.evalcluster.cost import CostModel
from repro.kubesim.images import normalize_image

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.interface import GenerationRequest

__all__ = [
    "PLANNER_NAMES",
    "BATCH_BY_NAMES",
    "ShardPlan",
    "ShardPlanner",
    "CountPlanner",
    "CostPlanner",
    "BatchSizer",
    "resolve_planner",
]

T = TypeVar("T")

#: Planner specs accepted by ``BenchmarkConfig.shard_by``.
PLANNER_NAMES: tuple[str, ...] = ("count", "cost")

#: Batch-sizing specs accepted by ``BenchmarkConfig.batch_by``.
BATCH_BY_NAMES: tuple[str, ...] = ("count", "cost")

#: Bisection steps when searching for the minimal feasible shard duration.
#: Sixty halvings of the [max-item, total] interval put the cap within
#: machine precision of optimal for any realistic corpus.
_BISECTION_STEPS = 60


@dataclass(frozen=True)
class ShardPlan:
    """A contiguous split of ``total`` work units into shards.

    Contiguity is the property that makes merging trivial *and* exact:
    concatenating per-shard results in shard order reproduces the original
    request order, so a sharded run streams records in exactly the same
    sequence as an unsharded one.

    By default the split is balanced by count (sizes differ by at most
    one); a planner may instead supply ``explicit_sizes`` — arbitrary
    positive cut sizes, e.g. balanced by predicted cost.
    """

    total: int
    num_shards: int
    explicit_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ValueError("total must be >= 0")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.explicit_sizes is not None:
            if len(self.explicit_sizes) != self.num_shards:
                raise ValueError(
                    f"explicit_sizes has {len(self.explicit_sizes)} entries "
                    f"for {self.num_shards} shards"
                )
            if sum(self.explicit_sizes) != self.total:
                raise ValueError(
                    f"explicit_sizes sum to {sum(self.explicit_sizes)}, expected {self.total}"
                )
            if any(size < 1 for size in self.explicit_sizes):
                raise ValueError("explicit_sizes must all be >= 1 (empty shards are clamped away)")

    @classmethod
    def for_size(cls, total: int, num_shards: int) -> "ShardPlan":
        """A count-balanced plan over ``total`` units, clamping away empty shards."""

        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        return cls(total=total, num_shards=max(1, min(num_shards, total)))

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "ShardPlan":
        """A plan with explicit per-shard sizes; zero-size shards are dropped.

        An all-empty (or empty) size list degenerates to the same plan
        ``for_size(0, 1)`` produces, so downstream code sees one canonical
        empty shape.
        """

        cleaned = tuple(int(size) for size in sizes)
        if any(size < 0 for size in cleaned):
            raise ValueError("shard sizes must be >= 0")
        nonempty = tuple(size for size in cleaned if size > 0)
        if not nonempty:
            return cls(total=0, num_shards=1)
        return cls(total=sum(nonempty), num_shards=len(nonempty), explicit_sizes=nonempty)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Per-shard sizes; count-balanced unless the planner cut explicitly."""

        if self.explicit_sizes is not None:
            return self.explicit_sizes
        base, extra = divmod(self.total, self.num_shards)
        return tuple(base + (1 if index < extra else 0) for index in range(self.num_shards))

    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open ``(start, stop)`` index ranges of every shard."""

        out: list[tuple[int, int]] = []
        start = 0
        for size in self.sizes:
            out.append((start, start + size))
            start += size
        return tuple(out)

    @cached_property
    def _stops(self) -> tuple[int, ...]:
        """Cumulative end offsets of every shard (cached; the plan is frozen)."""

        stops: list[int] = []
        position = 0
        for size in self.sizes:
            position += size
            stops.append(position)
        return tuple(stops)

    def shard_of(self, index: int) -> int:
        """Which shard owns global work-unit ``index``.

        Binary search over the cumulative shard offsets — the schedulers
        ask this per batch, and a linear scan over the bounds made the
        lookup quadratic across a run.
        """

        if not 0 <= index < self.total:
            raise IndexError(f"index {index} out of range for {self.total} units")
        return bisect_right(self._stops, index)

    def split(self, items: Sequence[T]) -> list[list[T]]:
        """Slice ``items`` into per-shard lists."""

        if len(items) != self.total:
            raise ValueError(f"expected {self.total} items, got {len(items)}")
        return [list(items[start:stop]) for start, stop in self.bounds()]


@runtime_checkable
class ShardPlanner(Protocol):
    """Policy choosing the contiguous cut points of a sharded run."""

    def plan(
        self, requests: Sequence["GenerationRequest"], num_shards: int
    ) -> ShardPlan:  # pragma: no cover - protocol
        ...


class CountPlanner:
    """Balance shards by request count — the original contiguous split.

    Delegates to :meth:`ShardPlan.for_size`, so its plans are bit-identical
    to every pre-planner sharded run.
    """

    name = "count"

    def plan(self, requests: Sequence["GenerationRequest"], num_shards: int) -> ShardPlan:
        return ShardPlan.for_size(len(requests), num_shards)


class CostPlanner:
    """Balance shards by predicted wall-clock seconds (Figure 5 model).

    Every request is priced as its problem's predicted evaluation time —
    base execution seconds plus image-pull seconds, where an image already
    pulled by an earlier request *in the same shard* costs nothing (the
    warm registry-cache effect).  The planner then finds the contiguous
    partition minimising the maximum predicted shard duration, via
    bisection on the duration cap with a greedy feasibility scan.

    Contiguity is preserved, so the merged records — and every ScoreCard —
    are identical to a count-planned or unsharded run; only the shard
    *boundaries* move.
    """

    name = "cost"

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()

    # -- request pricing ----------------------------------------------------
    def _price(
        self, requests: Sequence["GenerationRequest"]
    ) -> tuple[
        list[float],
        list[tuple[object, ...]],
        list[tuple[object, ...]],
        dict[object, float],
    ]:
        """Per-request base seconds, charge/warm image keys, pull prices.

        Images are keyed by their normalized ``(repository, tag)`` so two
        spellings of one image ("nginx" / "nginx:latest") share a single
        cache slot, exactly as the registry-cache model treats them.  The
        *charge* list prices a request's pulls; the *warm* list is what
        the request leaves in the shard's cache — they differ only under
        calibration, where an observed problem's pulls are already inside
        its measured seconds but its images still warm the cache.
        """

        model = self.cost_model
        base: list[float] = []
        charges: list[tuple[object, ...]] = []
        warms: list[tuple[object, ...]] = []
        pull_seconds: dict[object, float] = {}
        for request in requests:
            problem = request.problem
            base.append(model.predict_base_seconds(problem))
            charge_keys = []
            for image in model.problem_charge_images(problem):
                key = normalize_image(image)
                charge_keys.append(key)
                if key not in pull_seconds:
                    pull_seconds[key] = model.image_pull_seconds(image)
            charges.append(tuple(charge_keys))
            warms.append(
                tuple(normalize_image(image) for image in model.problem_pull_images(problem))
            )
        return base, charges, warms, pull_seconds

    @staticmethod
    def _greedy_sizes(
        cap: float,
        base: Sequence[float],
        charges: Sequence[tuple[str, ...]],
        warms: Sequence[tuple[str, ...]],
        pull_seconds: dict[str, float],
    ) -> list[int]:
        """Contiguous shards whose predicted duration stays under ``cap``.

        A request that would push the current shard over the cap starts a
        new (cold-cache) shard; a single request always fits alone because
        the cap never drops below the most expensive cold request.
        """

        sizes: list[int] = []
        current = 0
        current_seconds = 0.0
        warm: set[str] = set()
        for index in range(len(base)):
            marginal = base[index] + sum(
                pull_seconds[image] for image in set(charges[index]) if image not in warm
            )
            if current and current_seconds + marginal > cap:
                sizes.append(current)
                current = 0
                current_seconds = 0.0
                warm = set()
                marginal = base[index] + sum(pull_seconds[image] for image in set(charges[index]))
            current += 1
            current_seconds += marginal
            warm.update(warms[index])
        if current:
            sizes.append(current)
        return sizes

    # -- planning -----------------------------------------------------------
    def plan(self, requests: Sequence["GenerationRequest"], num_shards: int) -> ShardPlan:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        total = len(requests)
        shards = max(1, min(num_shards, total))
        if total == 0 or shards == 1:
            return ShardPlan.for_size(total, shards)

        base, charges, warms, pull_seconds = self._price(requests)
        cold = [
            item + sum(pull_seconds[image] for image in set(pulls))
            for item, pulls in zip(base, charges)
        ]
        low = max(cold)  # below this, the most expensive request fits nowhere
        high = sum(cold)  # one shard holding everything is always feasible
        for _ in range(_BISECTION_STEPS):
            mid = (low + high) / 2.0
            if len(self._greedy_sizes(mid, base, charges, warms, pull_seconds)) <= shards:
                high = mid
            else:
                low = mid
        return ShardPlan.from_sizes(self._greedy_sizes(high, base, charges, warms, pull_seconds))

    def predicted_durations(
        self, requests: Sequence["GenerationRequest"], plan: ShardPlan
    ) -> tuple[float, ...]:
        """Predicted seconds of every shard of ``plan`` over ``requests``.

        Each shard starts with a cold image cache that stays warm across
        its problems — the same accounting the planner balances on.
        """

        return tuple(
            self.cost_model.predict_problems_seconds(request.problem for request in chunk)
            for chunk in plan.split(list(requests))
        )


class BatchSizer:
    """Cut a shard's requests into contiguous batches of equal *predicted
    seconds* instead of equal counts.

    The pipeline processes a shard batch by batch, and each batch is one
    unit of progress everywhere downstream: one checkpoint flush, one
    steal-policy decision point, one fleet dispatch wave.  Fixed-count
    batches make those units wildly uneven — a batch of 32 bare-Pod
    problems finishes in seconds while a batch of 32 Istio problems pulls
    gigabytes — so the scheduler's view of remaining work lurches.  This
    sizer prices every request exactly as :class:`CostPlanner` does
    (base seconds plus cold image pulls, with the image cache staying
    warm *across* the whole shard: batches run back-to-back on the same
    workers, so a later batch really does inherit earlier pulls) and
    closes a batch once it reaches the shard's per-batch target.

    Batches stay contiguous and cover the shard in order, so swapping
    this in for fixed slicing reorders *nothing* — every ScoreCard and
    the merged record stream are bit-identical; only the cut points move.
    The number of batches never exceeds ``ceil(len(requests) /
    batch_size)`` — the same count fixed slicing would produce.
    """

    def __init__(self, cost_model: CostModel | None = None, batch_size: int = 32) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._pricer = CostPlanner(cost_model=cost_model)

    @property
    def cost_model(self) -> CostModel:
        return self._pricer.cost_model

    def _marginals(self, requests: Sequence["GenerationRequest"]) -> list[float]:
        """Per-request marginal predicted seconds, cache warm across all."""

        base, charges, warms, pull_seconds = self._pricer._price(requests)
        marginals: list[float] = []
        warm: set[object] = set()
        for index in range(len(base)):
            marginals.append(
                base[index]
                + sum(pull_seconds[image] for image in set(charges[index]) if image not in warm)
            )
            warm.update(warms[index])
        return marginals

    def cut(self, requests: Sequence[T]) -> list[list[T]]:
        """Contiguous batches of roughly equal predicted duration.

        The batch budget is ``ceil(n / batch_size)`` — what fixed-count
        slicing would spend — and the target is the shard's total
        predicted seconds divided by that budget.  A batch closes when it
        reaches the target; whatever remains after the last cut forms the
        final batch (its predicted duration is at most one target by
        construction, since every earlier batch consumed at least one).
        """

        items = list(requests)
        if not items:
            return []
        budget = -(-len(items) // self.batch_size)  # ceil division
        if budget == 1:
            return [items]
        marginals = self._marginals(items)
        if sum(marginals) <= 0.0:
            # Degenerate pricing (an all-zero cost model): fall back to
            # the fixed-count cuts rather than emitting singleton batches.
            return [
                items[start : start + self.batch_size]
                for start in range(0, len(items), self.batch_size)
            ]
        # Dynamic target: each batch aims at (remaining seconds) /
        # (remaining batches), re-derived after every cut, so one
        # expensive request overshooting its batch automatically shrinks
        # the targets that follow instead of starving the final batch.
        # A request joins the current batch only when doing so lands
        # closer to the target than cutting before it would.
        batches: list[list[T]] = []
        position = 0
        remaining_seconds = sum(marginals)
        for batch_index in range(budget):
            if position >= len(items):
                break
            if batch_index == budget - 1:
                batches.append(items[position:])
                break
            target = remaining_seconds / (budget - batch_index)
            current = [items[position]]
            current_seconds = marginals[position]
            position += 1
            while position < len(items):
                marginal = marginals[position]
                overshoot = (current_seconds + marginal) - target
                if overshoot > 0 and overshoot > (target - current_seconds):
                    break
                current.append(items[position])
                current_seconds += marginal
                position += 1
            batches.append(current)
            remaining_seconds -= current_seconds
        return batches

    def predicted_seconds(self, batches: Sequence[Sequence["GenerationRequest"]]) -> tuple[float, ...]:
        """Predicted seconds of each batch under the sizer's accounting
        (one image cache warming across all batches in order) — the
        quantity :meth:`cut` balances, for spread guards and diagnostics."""

        flat = [request for batch in batches for request in batch]
        marginals = self._marginals(flat)
        out: list[float] = []
        position = 0
        for batch in batches:
            out.append(sum(marginals[position : position + len(batch)]))
            position += len(batch)
        return tuple(out)


def resolve_planner(
    planner: ShardPlanner | None,
    shard_by: str = "count",
    cost_model: CostModel | None = None,
) -> ShardPlanner:
    """Turn a config (explicit planner instance, else a ``shard_by`` spec)
    into a planner; ``cost_model`` seeds the cost planner's predictions."""

    if planner is not None:
        return planner
    if shard_by == "count":
        return CountPlanner()
    if shard_by == "cost":
        return CostPlanner(cost_model=cost_model)
    raise ValueError(f"unknown shard_by {shard_by!r} (expected one of {PLANNER_NAMES})")
