"""Relational AST and its translation to DBSP circuits (Table 1).

A tiny relational algebra over named input relations, mirroring the left
column of the paper's Table 1. The **builder functions** (``t_select``,
``t_project``, ...) implement the right column: they translate each SQL
*set* operator into Z-set operators, inserting ``distinct`` exactly where
Table 1 does (π, ∪, \\ — σ, ⋈ and × preserve sets).

:func:`consolidate_distincts` then applies Algorithm 4.8's step (2): using
Propositions 4.5/4.6, a ``distinct`` below a chain of {σ, π/map, ⋈, ×, +}
that is itself capped by a ``distinct`` is redundant and removed, leaving
one ``distinct`` at the end of each chain — the rewrite shown in §4.4.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence


class Node:
    """Base class of relational AST nodes (Z-set semantics)."""


@dataclass(frozen=True)
class Rel(Node):
    """A named input relation (assumed to be a set at circuit inputs)."""

    name: str


@dataclass(frozen=True)
class Select(Node):
    """σ — filter by a SQL predicate. Linear."""

    child: Node
    predicate: str


@dataclass(frozen=True)
class Project(Node):
    """π / map — project through SQL expressions (out col -> expr). Linear."""

    child: Node
    exprs: tuple  # tuple of (name, expr) pairs — hashable

    @staticmethod
    def of(child: Node, exprs: Mapping[str, str]) -> "Project":
        return Project(child, tuple(exprs.items()))


@dataclass(frozen=True)
class Join(Node):
    """⋈ — equijoin; bilinear. ``on`` is ((left_col, right_col), ...)."""

    left: Node
    right: Node
    on: tuple
    suffix: str = "_r"

    @staticmethod
    def of(
        left: Node, right: Node, on: Sequence[tuple[str, str]] | Sequence[str]
    ) -> "Join":
        pairs = tuple((c, c) if isinstance(c, str) else tuple(c) for c in on)
        return Join(left, right, pairs)


@dataclass(frozen=True)
class Cartesian(Node):
    """× — Cartesian product; bilinear."""

    left: Node
    right: Node


@dataclass(frozen=True)
class UnionAll(Node):
    """Z-set addition (SQL UNION ALL, §7.1). Linear in each input."""

    left: Node
    right: Node


@dataclass(frozen=True)
class Negate(Node):
    """Z-set negation (used by set difference). Linear."""

    child: Node


@dataclass(frozen=True)
class Distinct(Node):
    """Definition 4.3's distinct — the only non-linear relational node."""

    child: Node


# --------------------------------------------------------------------- #
# Table 1: SQL set operators -> Z-set circuits
# --------------------------------------------------------------------- #
def t_select(child: Node, predicate: str) -> Node:
    """``SELECT * FROM I WHERE p`` — σ preserves sets: no distinct."""
    return Select(child, predicate)


def t_project(child: Node, exprs: Mapping[str, str]) -> Node:
    """``SELECT DISTINCT cols FROM I`` — π needs a distinct (Table 1)."""
    return Distinct(Project.of(child, exprs))


def t_join(
    left: Node, right: Node, on: Sequence[tuple[str, str]] | Sequence[str]
) -> Node:
    """``I1 JOIN I2 ON ..`` — set inputs give weight 1·1: no distinct."""
    return Join.of(left, right, on)


def t_cartesian(left: Node, right: Node) -> Node:
    """``I1, I2`` — set inputs give weight 1·1: no distinct."""
    return Cartesian(left, right)


def t_union(left: Node, right: Node) -> Node:
    """``UNION = distinct(a + b)`` (Table 1)."""
    return Distinct(UnionAll(left, right))


def t_union_all(left: Node, right: Node) -> Node:
    """``UNION ALL = a + b`` (§7.1)."""
    return UnionAll(left, right)


def t_difference(left: Node, right: Node) -> Node:
    """``EXCEPT = distinct(a - b)`` (Table 1)."""
    return Distinct(UnionAll(left, Negate(right)))


def t_intersect(left: Node, right: Node, cols: Sequence[str]) -> Node:
    """``INTERSECT`` — equijoin on all columns, left columns kept."""
    j = Join.of(left, right, [(c, c) for c in cols])
    return Project.of(j, {c: c for c in cols})


# --------------------------------------------------------------------- #
# Algorithm 4.8 step (2): distinct consolidation (Props 4.5 / 4.6)
# --------------------------------------------------------------------- #
#: Node types distinct commutes/consolidates through (Prop. 4.6 list:
#: σ, π, map, +, ⋈, ×). Negate is *not* in the proposition, so set
#: difference keeps its inner structure intact.
_TRANSPARENT = (Select, Project, Join, Cartesian, UnionAll)


def _children(node: Node) -> dict[str, Node]:
    """The node's inputs, keyed by dataclass field name (none for ``Rel``)."""
    return {
        f.name: getattr(node, f.name)
        for f in fields(node)
        if isinstance(getattr(node, f.name), Node)
    }


def is_positive(node: Node) -> bool:
    """Static positivity: does this subtree always yield a positive Z-set?

    Inputs are sets (positive); Distinct output is positive by definition;
    the transparent operators preserve positivity; Negate does not.
    """
    if isinstance(node, (Rel, Distinct)):
        return True
    if isinstance(node, Negate):
        return False
    if not isinstance(node, _TRANSPARENT):
        raise TypeError(f"unknown node {type(node)}")
    return all(is_positive(c) for c in _children(node).values())


def consolidate_distincts(node: Node) -> Node:
    """Remove distincts made redundant by a downstream distinct.

    ``protected=True`` means: some ancestor ``Distinct`` will re-apply, and
    every operator on the path is in Prop. 4.6's list with *all* of its
    inputs positive — so an inner ``Distinct`` may be dropped
    (``distinct(Q(distinct(i))) = distinct(Q(i))`` requires every input of
    ``Q`` to be positive, not just ``i``: e.g. the ``+`` of a set
    difference mixes in a negated branch and must block consolidation, or
    multiplicities inflated by the dropped distinct could flip the sign of
    a collapsed sum). Positivity is checked statically.
    """

    def walk(n: Node, protected: bool) -> Node:
        kids = _children(n)
        if isinstance(n, Distinct):
            if protected and is_positive(n.child):
                return walk(n.child, True)
            protected = True
        elif isinstance(n, Negate):
            # Negation is outside Prop 4.6's operator list: protection stops.
            protected = False
        else:
            # protection crosses a node only if ALL its inputs are positive
            # (Prop 4.6's ispositive premise applies to each).
            protected = protected and all(is_positive(c) for c in kids.values())
        return replace(n, **{k: walk(c, protected) for k, c in kids.items()})

    return walk(node, False)


def count_distincts(node: Node) -> int:
    """Number of Distinct nodes (used to assert the §4.4 consolidation)."""
    below = sum(count_distincts(c) for c in _children(node).values())
    return isinstance(node, Distinct) + below
