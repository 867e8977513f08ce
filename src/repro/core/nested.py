"""Incremental recursive queries over nested streams (§6, Figure 2).

The circuit maintained here is the paper's incremental transitive-closure
shape: for every outer timestep ``t`` it receives a change ``ΔI[t]`` to the
input relation and emits the change ``ΔO[t]`` to the recursive fixpoint
``O = fix x. distinct(base(I) + project(I ⋈ x))`` — *without* recomputing
the fixpoint from scratch. Internally it replays the inner fixpoint
iterations, adjusting the previously computed per-iteration deltas.

Nested time: ``t`` (outer, transaction) × ``i`` (inner, fixpoint
iteration). The two non-linear operators get doubly-incremental forms:

* :class:`NestedIncrementalJoin` — ``(↑(↑⋈)^Δ)^Δ`` expanded by applying
  Theorem 3.4 at both time dimensions. With ``θ₁ = z⁻¹∘I`` (outer delayed
  integral), ``θ₂ = ↑z⁻¹∘↑I`` (inner), and the identity ``1 + θ = I``:

  ``out = a ⋈ I₁I₂b  +  θ₂a ⋈ I₁b  +  θ₁I₂a ⋈ b  +  θ₁a ⋈ θ₂b``

  — exactly the paper's "only 4 terms in ↑↑⋈" (§6.1). Verified in tests
  against the by-definition ``D∘↑(D∘↑⋈∘I)∘I`` from
  :mod:`repro.core.stream`.

* :class:`NestedIncrementalDistinct` — ``(↑(↑distinct)^Δ)^Δ``: lift
  Proposition 4.7 (inner) and differentiate at the outer level:

  ``out[t][i] = H( Σ_{i'<i} U_t[i'], U_t[i] ) − v_{t-1}[i]`` with
  ``U_t = I₁(input)`` and ``v_{t-1}`` the previous outer step's H-row.
  ``H`` works row by row, so ``out[t][i]`` is zero outside the rows the
  current outer step touched up to ``i``; only those rows are read.

State is kept per inner iteration index (the paper's §6.2 space analysis:
"space proportional to the number of iterations of the inner loop"), as
tail-aware lists: streams are zero almost everywhere in inner time, so a
row beyond its stored depth is either zero (inputs, deltas) or constant
(inner integrals).
"""
from __future__ import annotations

from functools import reduce
from typing import Callable

from . import recursion
from .backend import GroupOps


class _TailList:
    """Per-inner-index state with a defined tail beyond the stored depth.

    ``tail='zero'``: entries beyond ``len`` read as the group zero (for
    values that are zero a.e. in inner time). ``tail='last'``: they read as
    the deepest stored entry (for inner *integrals*, which become constant
    once their argument's support is exhausted).
    """

    def __init__(self, ops: GroupOps, tail: str):
        assert tail in ("zero", "last")
        self.ops = ops
        self.tail = tail
        self.vals: list = []

    def __len__(self) -> int:
        return len(self.vals)

    def get(self, i: int, zero):
        if i < len(self.vals):
            return self.vals[i]
        if self.tail == "last" and self.vals:
            return self.vals[-1]
        return zero

    def add_at(self, i: int, v, zero) -> None:
        """vals[i] += v, extending with the tail value as needed."""
        while len(self.vals) <= i:
            filler = self.vals[-1] if (self.tail == "last" and self.vals) else zero
            self.vals.append(filler)
        self.vals[i] = self.ops.accumulate(self.vals[i], v)

    def add_row(self, row: list, zero) -> None:
        """Pointwise += of a whole inner row (row's own tail = this tail).

        Tails are snapshotted before mutation: when extending, entries
        beyond the *old* depth must read the old tail, not a value written
        earlier in this same update.
        """
        old_vals = self.vals
        old_tail = old_vals[-1] if (self.tail == "last" and old_vals) else zero
        row_tail = row[-1] if (self.tail == "last" and row) else zero
        n = max(len(old_vals), len(row))
        new_vals = []
        last = None  # (old, cur, sum) of the previous index
        for i in range(n):
            old = old_vals[i] if i < len(old_vals) else old_tail
            cur = row[i] if i < len(row) else row_tail
            if last is None or last[0] is not old or last[1] is not cur:
                last = (old, cur, self.ops.accumulate(old, cur))
            new_vals.append(last[2])  # a constant tail stays one shared value
        self.vals = new_vals


class NestedIncrementalJoin:
    """``(↑(↑⋈)^Δ)^Δ`` via the 4-term expansion (see module docstring).

    Persistent state (across outer steps, per inner index):

    * ``B1[i] = Σ_{t'≤t} b[t'][i]``  (zero tail) — updated live so reads at
      inner step ``i`` see ``I₁b`` *including* the current outer step;
    * ``A1[i] = Σ_{t'<t} a[t'][i]``  (zero tail) — added at end of step;
    * ``A12[i] = Σ_{t'<t} (I₂a)[t'][i]`` (constant/last tail) — added at
      end of step.

    Within one outer step the running inner integrals ``I₂a, I₂b`` and
    ``I₁I₂b`` are plain sums: ``I₂a`` and ``I₂b`` are changes, and
    ``I₁I₂b`` is a sum of stored integrals.
    """

    def __init__(self, ops: GroupOps, join_fn: Callable):
        self.ops = ops
        self.join_fn = join_fn
        self.b1 = _TailList(ops, "zero")
        self.a1 = _TailList(ops, "zero")
        self.a12 = _TailList(ops, "last")
        self._in_step = False

    def max_depth(self) -> int:
        return max(len(self.b1), len(self.a1), len(self.a12))

    def begin_outer(self) -> None:
        assert not self._in_step
        self._in_step = True
        self._i = 0
        self._i2a = None  # running I₂a (inner integral of a, incl. current i)
        self._i2b = None  # running I₂b
        self._iib = None  # running I₁I₂b
        self._a_row: list = []
        self._i2a_row: list = []

    def inner_step(self, a_i, b_i):
        assert self._in_step
        ops = self.ops
        zero_a = ops.zero_like(a_i)
        zero_b = ops.zero_like(b_i)

        theta2_a = self._i2a if self._i2a is not None else zero_a  # z₂I₂a
        theta2_b = self._i2b if self._i2b is not None else zero_b  # z₂I₂b

        self.b1.add_at(self._i, b_i, zero_b)
        b1_i = self.b1.get(self._i, zero_b)  # I₁b at (t, i)
        self._iib = b1_i if self._iib is None else ops.add(self._iib, b1_i)

        join, small = self.join_fn, ops.small
        out = join(small(a_i), self._iib)                                    # a ⋈ I₁I₂b
        out = ops.add(out, join(small(theta2_a), b1_i))                      # θ₂a ⋈ I₁b
        out = ops.add(out, join(self.a12.get(self._i, zero_a), small(b_i)))  # θ₁I₂a ⋈ b
        out = ops.add(out, join(self.a1.get(self._i, zero_a), small(theta2_b)))  # θ₁a ⋈ θ₂b

        self._i2a = ops.add(theta2_a, a_i)
        self._i2b = ops.add(theta2_b, b_i)
        self._a_row.append(a_i)
        self._i2a_row.append(self._i2a)
        self._i += 1
        return ops.consolidate(out)

    def end_outer(self) -> None:
        assert self._in_step
        if self._a_row:
            zero_a = self.ops.zero_like(self._a_row[0])
            self.a1.add_row(self._a_row, zero_a)
            self.a12.add_row(self._i2a_row, zero_a)
        self._in_step = False


class NestedIncrementalDistinct:
    """``(↑(↑distinct)^Δ)^Δ`` (see module docstring).

    Persistent state: ``U[i] = I₁(input)[t][i]`` (zero tail) and the
    previous outer step's H-row ``v_prev[i]`` (zero tail — H of a zero
    second argument is zero, so v-rows are zero a.e.), both integrals.

    ``H`` works row by row, so ``out[t][i]`` can be non-zero only on
    ``T = supp(d[i]) ∪ supp(Σ_{i'<i} d[i'])`` — where this outer step
    changed ``U[i]`` or ``Σ_{i'<i} U[i']``. Each inner step reads
    ``U[0..i]`` and ``v_prev[i]`` at ``T`` only (one
    :meth:`~repro.core.backend.GroupOps.restrict`), and
    :meth:`end_outer` adds the outputs to ``v_prev``. The driver must run
    the inner loop at least to :meth:`max_depth` each outer step so every
    stored v-row is brought up to date (asserted in :meth:`end_outer`).
    """

    def __init__(self, ops: GroupOps):
        self.ops = ops
        self.u = _TailList(ops, "zero")
        self.v_prev = _TailList(ops, "zero")
        self._in_step = False

    def max_depth(self) -> int:
        return max(len(self.u), len(self.v_prev))

    def begin_outer(self) -> None:
        assert not self._in_step
        self._in_step = True
        self._i = 0
        self._ds = None  # Σ_{i'<i} d[i'] within the current outer step
        self._out_row: list = []

    def inner_step(self, d_i):
        assert self._in_step
        ops = self.ops
        zero = ops.zero_like(d_i)
        self.u.add_at(self._i, d_i, zero)
        ds = zero if self._ds is None else self._ds
        state = [self.u.get(k, zero) for k in range(self._i + 1)] + [self.v_prev.get(self._i, zero)]
        *u, v = ops.restrict(state, [d_i, ds])
        s = reduce(ops.add, u[:-1], zero)  # Σ_{i'<i} U[i'] at T
        out = ops.materialize(ops.sub(ops.h(s, u[-1]), v))
        self._ds = ops.add(ds, d_i)
        self._out_row.append(out)
        self._i += 1
        return out

    def end_outer(self) -> None:
        assert self._in_step
        assert len(self._out_row) >= len(self.v_prev), (
            "driver must run the inner loop to max_depth() every outer step"
        )
        if self._out_row:
            self.v_prev.add_row(self._out_row, self.ops.zero_like(self._out_row[0]))
        self._in_step = False


class IncrementalRecursive:
    """The full Figure-2 circuit: incrementally maintained recursive query.

    Maintains ``O = fix x. distinct(base_fn(I) + join_fn(I, x))`` under a
    stream of input changes: each :meth:`step` consumes ``ΔI[t]`` and
    returns ``ΔO[t]``. ``base_fn`` must be linear (it is its own
    incremental, Thm 3.3); ``join_fn(i_delta_side, rec_side)`` is the
    bilinear rule-body join with its projection fused.

    Input changes enter the inner time domain through the lifted ``δ₀``
    (non-zero only at inner step 0); the feedback edge is the lifted
    ``z⁻¹`` (inner delay); the output leaves through the lifted ``∫``
    (sum of the inner delta stream, exact because the stream is zero
    almost everywhere — the fixpoint converges at every outer step).
    """

    def __init__(self, ops: GroupOps, base_fn: Callable, join_fn: Callable):
        self.ops = ops
        self.base_fn = base_fn
        self.join = NestedIncrementalJoin(ops, join_fn)
        self.dist = NestedIncrementalDistinct(ops)
        #: inner iterations executed at each outer step (work metric, T7)
        self.inner_iterations: list[int] = []

    def step(self, delta_in):
        ops = self.ops
        delta_in = ops.materialize(delta_in)  # evaluated once; a small input is local
        zero_in = ops.zero_like(delta_in)
        zero_rec = ops.zero_like(self.base_fn(delta_in))
        self.join.begin_outer()
        self.dist.begin_outer()
        total = prev_out = zero_rec
        i = 0
        while True:
            if i >= recursion.MAX_ITER:
                raise RuntimeError("inner fixpoint did not converge")
            e_i = delta_in if i == 0 else zero_in  # ↑δ₀
            r_i = prev_out  # ↑z⁻¹ feedback
            j = self.join.inner_step(e_i, r_i)
            s = ops.add(self.base_fn(e_i), j)
            o = self.dist.inner_step(s)
            o_empty = ops.is_zero(o)
            if o_empty:
                # statically-known zero: downstream state updates become
                # no-ops (the Spark backend skips their checkpoint jobs)
                o = ops.zero_like(o)
            else:
                total = ops.add(total, o)
            i += 1
            needed = max(self.join.max_depth(), self.dist.max_depth())
            if i >= needed and o_empty:
                break
            prev_out = o
        self.join.end_outer()
        self.dist.end_outer()
        self.inner_iterations.append(i)
        return ops.consolidate(total)
