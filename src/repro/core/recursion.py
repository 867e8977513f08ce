"""Recursive queries (§5): δ₀, ∫, naïve and semi-naïve fixpoints.

A recursive (stratified) Datalog relation ``O = fix x. distinct(R(I, x))``
is evaluated by the paper's loop circuit: ``δ₀`` injects the input into a
fresh inner time domain, the lifted rule body iterates with a ``z⁻¹``
feedback edge, and ``∫`` sums the stream of per-iteration *changes* (which
is zero almost everywhere once the fixpoint is reached, so summing until
the first zero is exact — §5).

* :func:`naive_fixpoint` — circuit (pre-5.1): recompute ``distinct(R(I,x))``
  from scratch every iteration (Algorithm 1 of [11] / Datalog naïve
  evaluation).
* :func:`semi_naive_fixpoint` — circuit (5.1): the loop body is the
  *incremental* form of ``distinct∘R``, so each iteration only processes
  newly derived facts. Its correctness is exactly the cycle rule
  (Prop. 3.2), tested against :func:`naive_fixpoint`.

Both record per-iteration work (support sizes of the values flowing) so
the T6 experiment can print the naïve vs semi-naïve fact-count table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .backend import GroupOps
from .circuit import IncrementalDistinct, IncrementalJoin

#: Iteration bound of every fixpoint loop (here and in
#: :class:`repro.core.nested.IncrementalRecursive`): a body that is still
#: changing after this many iterations raises ``RuntimeError``.
MAX_ITER = 10_000


@dataclass
class FixpointStats:
    """Work accounting for one fixpoint run."""

    iterations: int = 0
    #: support size of the value produced at each iteration (naïve: the
    #: whole candidate relation; semi-naïve: the new-facts delta).
    facts_per_iteration: list[int] = field(default_factory=list)

    @property
    def total_facts(self) -> int:
        return sum(self.facts_per_iteration)


def naive_fixpoint(
    ops: GroupOps,
    body: Callable,
    zero,
    collect_stats: bool = False,
) -> tuple[object, FixpointStats]:
    """Naïve evaluation: ``o[k] = body(o[k-1])`` until ``o`` stops changing.

    ``body`` must be monotone and include the trailing ``distinct`` (the
    Datalog rule head), e.g. ``lambda x: distinct(R(I, x))``.
    Returns the fixpoint and per-iteration work (each iteration recomputes
    and re-touches the *entire* candidate relation).
    """
    stats = FixpointStats()
    prev = zero
    for _ in range(MAX_ITER):
        cur = ops.materialize(body(prev))
        stats.iterations += 1
        if collect_stats:
            stats.facts_per_iteration.append(ops.support_count(cur))
        if ops.equals(cur, prev):
            return cur, stats
        prev = cur
    raise RuntimeError(f"naive_fixpoint did not converge in {MAX_ITER} iterations")


class IncBody:
    """The incrementalized loop body ``(↑(distinct ∘ R))^Δ`` of circuit 5.1.

    For rule shapes ``O = distinct(base(I) + project(I ⋈ O))`` (which cover
    transitive closure, reachability, same-generation, ...):

    * ``base_fn``  — linear map from the input delta to O's schema;
    * ``join_fn``  — the bilinear join payload (projection fused);
    * the join becomes :class:`IncrementalJoin` (Thm 3.4), the distinct
      becomes :class:`IncrementalDistinct` (Prop 4.7), linear ops are their
      own incremental (Thm 3.3) — Algorithm 4.8 applied by hand.

    :func:`semi_naive_fixpoint` calls :meth:`reset` before each run, so one
    body can be evaluated many times.
    """

    def __init__(self, ops: GroupOps, base_fn: Callable, join_fn: Callable):
        self.ops = ops
        self.base_fn = base_fn
        self.join_fn = join_fn
        self.reset()

    def reset(self) -> None:
        """Fresh join and distinct nodes: the inner stream restarts at 0."""
        self.join = IncrementalJoin(self.ops, self.join_fn)
        self.dist = IncrementalDistinct(self.ops)

    def rec_zero(self, input_delta):
        """The zero of the recursive relation's schema (feedback seed)."""
        return self.ops.zero_like(self.base_fn(input_delta))

    def step(self, input_delta, rec_delta):
        j = self.join.step(input_delta, rec_delta)
        s = self.ops.add(self.base_fn(input_delta), j)
        return self.dist.step(s)


def semi_naive_fixpoint(
    ops: GroupOps,
    inc_body: IncBody,
    base,
    collect_stats: bool = False,
) -> tuple[object, FixpointStats]:
    """Semi-naïve evaluation — circuit (5.1).

    Feeds ``δ₀(base)`` into the incremental body with a ``z⁻¹`` feedback
    edge and returns ``∫`` of the delta stream (sum until the first zero).
    Per-iteration work is the size of the *new-facts* delta only: each
    delta is added to the total (no iteration reads the total), and the
    total is consolidated once, on return.
    """
    inc_body.reset()
    stats = FixpointStats()
    zero_in = ops.zero_like(base)
    zero_rec = inc_body.rec_zero(base)
    total = prev_out = zero_rec
    for i in range(MAX_ITER):
        x = base if i == 0 else zero_in  # δ₀(base)
        d = ops.materialize(inc_body.step(x, prev_out))
        stats.iterations += 1
        if collect_stats:
            stats.facts_per_iteration.append(ops.support_count(d))
        if ops.is_zero(d):
            return ops.consolidate(total), stats
        total = ops.add(total, d)
        prev_out = d
    raise RuntimeError(f"semi_naive_fixpoint did not converge in {MAX_ITER} iterations")


def while_loop(ops: GroupOps, q: Callable, start) -> object:
    """§7.7's while-relational program: ``x := i; while x changes: x := Q(x)``.

    That is :func:`naive_fixpoint` seeded with ``start``; it returns the
    least fixpoint of ``Q`` above ``start`` if iteration terminates (the
    paper gives no termination guarantee either).
    """
    return naive_fixpoint(ops, q, ops.materialize(start))[0]
