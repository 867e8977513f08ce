"""Stateful circuit nodes: the executable form of DBSP operators.

A DBSP circuit runs one timestep at a time: at step ``t`` every node
consumes its inputs' values at ``t`` and produces its output at ``t``.
Nodes hold exactly the state the paper's operators need:

* :class:`Delay` (z⁻¹)            — the previous input;
* :class:`Integrate` (I)          — the running sum (the only O(R) state);
* :class:`Differentiate` (D)      — the previous input;
* :class:`IncrementalJoin`        — Theorem 3.4's three-term bilinear form,
  with the two delayed integrals as state;
* :class:`IncrementalDistinct`    — Proposition 4.7: ``out = H(z⁻¹I(d), d)``;
* :class:`BruteIncremental`       — the fallback ``Q^Δ = D∘Q∘I`` for
  operators with no better form (e.g. MIN aggregates, §7.2).

All nodes are generic over a :class:`~repro.core.backend.GroupOps`
backend; loop-carried state is always passed through ``ops.materialize``
(consolidate + localCheckpoint on Spark) so Catalyst lineage stays bounded
across steps. ``None`` state means "group zero, schema not yet known".
"""
from __future__ import annotations

from typing import Callable

from .backend import GroupOps


class Node:
    """A stream operator instance with per-step semantics."""

    def reset(self) -> None:
        """Forget all state (restart the stream at t = 0)."""

    def step(self, *inputs):
        """Consume the inputs at the current timestep, return the output."""
        raise NotImplementedError  # pragma: no cover - interface


class Delay(Node):
    """``z⁻¹`` — Definition 2.5. Strict: output at t depends on input < t."""

    def __init__(self, ops: GroupOps):
        self.ops = ops
        self._prev = None

    def reset(self) -> None:
        self._prev = None

    def step(self, x):
        out = self._prev if self._prev is not None else self.ops.zero_like(x)
        self._prev = self.ops.materialize(x)
        return out


class Integrate(Node):
    """``I`` — Definition 2.19. State: the running sum (size O(R[t])).

    Updated with ``ops.accumulate`` — O(R) storage but O(C) amortized
    update cost, the §4.5 observation about ``I``.
    """

    def __init__(self, ops: GroupOps):
        self.ops = ops
        self._acc = None

    def reset(self) -> None:
        self._acc = None

    def step(self, x):
        self._acc = self.ops.accumulate(self._acc, x)
        return self._acc


class Differentiate(Node):
    """``D`` — Definition 2.17. State: the previous input."""

    def __init__(self, ops: GroupOps):
        self.ops = ops
        self._prev = None

    def reset(self) -> None:
        self._prev = None

    def step(self, x):
        out = x if self._prev is None else self.ops.sub(x, self._prev)
        self._prev = self.ops.materialize(x)
        return self.ops.consolidate(out)


class IncrementalJoin(Node):
    """``(↑⋈)^Δ`` — Theorem 3.4 for a bilinear operator.

    ``out[t] = Δa ⋈ Δb + z⁻¹(IΔa) ⋈ Δb + Δa ⋈ z⁻¹(IΔb)``.

    State: the two integrals (the relations' full contents, O(R) space,
    exactly what the paper says a join must remember, updated append-only
    in O(C)); per-step work is proportional to the change sizes — every
    term has a Δ input. ``join_fn(a, b)`` is the bilinear payload (any of
    :func:`repro.zset.ops.join_z` / ``cartesian_z`` / ``intersect_z`` or a
    reference-backend closure). The node passes each term's change side
    through ``ops.small``, so the backend can plan the join around it.
    """

    def __init__(self, ops: GroupOps, join_fn: Callable):
        self.ops = ops
        self.join_fn = join_fn
        self._ia = None  # z⁻¹(I(a)): integral of a, *excluding* current Δa
        self._ib = None

    def reset(self) -> None:
        self._ia = None
        self._ib = None

    def state_sizes(self) -> tuple[int, int]:
        """Support sizes of the two stored integrals (space metric)."""
        sa = 0 if self._ia is None else self.ops.support_count(self._ia)
        sb = 0 if self._ib is None else self.ops.support_count(self._ib)
        return sa, sb

    def step(self, da, db):
        # evaluate each incoming change once; all three bilinear terms and
        # the state updates reuse the cached results
        ops = self.ops
        da = ops.materialize(da)
        db = ops.materialize(db)
        out = self.join_fn(da, ops.small(db))
        if self._ia is not None:
            out = ops.add(out, self.join_fn(self._ia, ops.small(db)))
        if self._ib is not None:
            out = ops.add(out, self.join_fn(ops.small(da), self._ib))
        self._ia = ops.accumulate(self._ia, da)
        self._ib = ops.accumulate(self._ib, db)
        return ops.consolidate(out)


class IncrementalDistinct(Node):
    """``(↑distinct)^Δ`` — Proposition 4.7.

    ``out[t] = H(z⁻¹(I(d))[t], d[t])``; state is the integral of the input
    (O(R) space), but per-step work is bounded by ``|d[t]|`` because ``H``'s
    support is contained in the change's support.
    """

    def __init__(self, ops: GroupOps):
        self.ops = ops
        self._i = None  # I(d) excluding the current step

    def reset(self) -> None:
        self._i = None

    def state_size(self) -> int:
        return 0 if self._i is None else self.ops.support_count(self._i)

    def step(self, d):
        # evaluate the (possibly lazy, upstream) change exactly once; both
        # H and the state update then reuse the cached small result
        d = self.ops.materialize(d)
        i = self._i if self._i is not None else self.ops.zero_like(d)
        out = self.ops.h(i, d)
        self._i = self.ops.accumulate(self._i, d)
        return out


class BruteIncremental(Node):
    """``Q^Δ = D ∘ Q ∘ I`` computed literally — the universal fallback.

    Correct for *any* Q (Definition 3.1) but does O(R[t]) work per step:
    this is both the oracle the optimized nodes are tested against and the
    honest implementation for non-incrementalizable operators like MIN.
    """

    def __init__(self, ops: GroupOps, fn: Callable, n_inputs: int = 1):
        self.ops = ops
        self.fn = fn
        self._integrators = [Integrate(ops) for _ in range(n_inputs)]
        self._diff = Differentiate(ops)

    def reset(self) -> None:
        for i in self._integrators:
            i.reset()
        self._diff.reset()

    def step(self, *inputs):
        fulls = [i.step(x) for i, x in zip(self._integrators, inputs)]
        return self._diff.step(self.fn(*fulls))
