"""Executing relational ASTs: lifted full recomputation vs Algorithm 4.8.

Both executors come from one compile step, :func:`_build`, which walks the
AST once and returns a function of the input Z-sets. Linear nodes compile
to themselves; the caller supplies what ``Join``/``Cartesian`` and
``Distinct`` become:

* :func:`evaluate` runs the AST non-incrementally over full Z-set
  snapshots (the lifted circuit of Algorithm 4.8 step 3 — what a view
  recomputation does every transaction): the plain bilinear payload and
  ``distinct``.
* :class:`IncrementalView` is Algorithm 4.8 steps (4)–(5): each AST node is
  replaced by its incremental version — linear nodes by themselves
  (Theorem 3.3), ``Join``/``Cartesian`` by :class:`IncrementalJoin`
  (Theorem 3.4), ``Distinct`` by :class:`IncrementalDistinct`
  (Proposition 4.7) — then chained (the chain rule of Proposition 3.2).
  ``step`` consumes per-input change Z-sets and emits the view's change.
"""
from __future__ import annotations

import functools
from typing import Callable, Mapping

from repro.core.backend import SparkZSetOps
from repro.core.circuit import IncrementalDistinct, IncrementalJoin
from repro.zset import ops as zops
from repro.zset.frame import ZSet

from . import translate as t

def _build(
    node: t.Node, bilinear: Callable, distinct: Callable
) -> Callable[[Mapping[str, ZSet]], ZSet]:
    """Compile ``node`` to a function of the input Z-sets.

    ``bilinear(node, payload)`` returns the operator applied at a
    ``Join``/``Cartesian`` node, given its plain ``(a, b) -> ZSet``
    payload; ``distinct(node)`` returns the operator applied at a
    ``Distinct`` node.
    """
    if isinstance(node, t.Rel):
        def rel(inputs):
            if node.name not in inputs:
                raise KeyError(
                    f"input '{node.name}' missing — pass an explicit empty "
                    "ZSet for unchanged inputs"
                )
            return inputs[node.name]

        return rel
    if isinstance(node, (t.Join, t.Cartesian, t.UnionAll)):
        left = _build(node.left, bilinear, distinct)
        right = _build(node.right, bilinear, distinct)
        if isinstance(node, t.UnionAll):  # linear
            return lambda inputs: left(inputs).add(right(inputs))
        if isinstance(node, t.Join):
            payload = functools.partial(zops.join_z, on=list(node.on))
        else:
            payload = zops.cartesian_z
        op = bilinear(node, payload)
        return lambda inputs: op(left(inputs), right(inputs))
    if not isinstance(node, (t.Select, t.Project, t.Negate, t.Distinct)):
        raise TypeError(f"unknown node {type(node)}")
    child = _build(node.child, bilinear, distinct)
    if isinstance(node, t.Select):  # linear: its own incremental
        return lambda inputs: zops.filter_z(child(inputs), node.predicate)
    if isinstance(node, t.Project):  # linear
        exprs = dict(node.exprs)
        return lambda inputs: zops.map_z(child(inputs), exprs)
    if isinstance(node, t.Negate):  # linear
        return lambda inputs: child(inputs).neg()
    op = distinct(node)  # Distinct
    return lambda inputs: op(child(inputs))


def evaluate(node: t.Node, inputs: Mapping[str, ZSet]) -> ZSet:
    """Run the (non-incremental) Z-set circuit over full snapshots."""
    circuit = _build(node, lambda _n, payload: payload, lambda _n: ZSet.distinct)
    return circuit(inputs)


class IncrementalView:
    """A compiled incremental view-maintenance circuit (Algorithm 4.8).

    Built from a (distinct-consolidated) AST; holds one stateful node per
    non-linear AST operator. ``step(changes)`` takes a dict of input-name
    -> change Z-set and returns the change to the view. Every input needs
    an entry at every step: an unchanged input takes an explicit empty
    Z-set, and a missing one raises ``KeyError``.
    """

    def __init__(self, ast: t.Node):
        self.ast = t.consolidate_distincts(ast)
        ops = SparkZSetOps()
        # one stateful operator per AST occurrence, keyed by object id
        self._joins: dict[int, IncrementalJoin] = {}
        self._distincts: dict[int, IncrementalDistinct] = {}

        # the closures look ``step`` up at call time, so a wrapper
        # installed on the class later still sees every call
        def bilinear(node, payload):  # Theorem 3.4
            j = self._joins[id(node)] = IncrementalJoin(ops, payload)
            return lambda a, b: j.step(a, b)

        def distinct(node):  # Proposition 4.7
            d = self._distincts[id(node)] = IncrementalDistinct(ops)
            return lambda x: d.step(x)

        self._circuit = _build(self.ast, bilinear, distinct)

    def state_sizes(self) -> dict[str, int]:
        """Support sizes of all integrals held by non-linear nodes."""
        out: dict[str, int] = {}
        for k, j in self._joins.items():
            sa, sb = j.state_sizes()
            out[f"join:{k}"] = sa + sb
        for k, d in self._distincts.items():
            out[f"distinct:{k}"] = d.state_size()
        return out

    def step(self, changes: Mapping[str, ZSet]) -> ZSet:
        """Advance one transaction: input changes in, view change out."""
        return self._circuit(changes).consolidate()
