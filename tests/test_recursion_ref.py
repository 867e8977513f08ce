"""Recursion (§5): naïve vs semi-naïve vs independent oracle (ref backend)."""
import itertools

import pytest

from repro.core import recursion
from repro.core.backend import RefZSetOps
from repro.core.nested import IncrementalRecursive
from repro.core.recursion import (
    IncBody,
    naive_fixpoint,
    semi_naive_fixpoint,
    while_loop,
)
from repro.zset import ref

from helpers import make_rng, ref_join_ac

OPS = RefZSetOps()
SEEDS = list(range(25))


def rand_edges(rnd, n_nodes=6, n_edges=10):
    return {
        (rnd.randint(0, n_nodes), rnd.randint(0, n_nodes)): 1
        for _ in range(rnd.randint(0, n_edges))
    }


def python_tc(edges: dict) -> set:
    """Independent transitive-closure oracle (BFS per node)."""
    from collections import defaultdict

    adj = defaultdict(set)
    for (h, t) in edges:
        adj[h].add(t)
    out = set()
    for src in {h for h, _ in edges}:
        seen, todo = set(), [src]
        while todo:
            cur = todo.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        out |= {(src, t) for t in seen}
    return out


def tc_body(edges):
    return lambda x: ref.rdistinct(ref.radd(edges, ref_join_ac(edges, x)))


@pytest.mark.parametrize("seed", SEEDS)
def test_naive_tc_matches_python_oracle(seed):
    """Theorem 5.4: the loop circuit computes the Datalog semantics."""
    rnd = make_rng(seed)
    e = rand_edges(rnd)
    fix, _ = naive_fixpoint(OPS, tc_body(e), {})
    assert set(fix) == python_tc(e)
    assert ref.risset(fix)


@pytest.mark.parametrize("seed", SEEDS)
def test_semi_naive_equals_naive(seed):
    """Circuit (5.1): semi-naïve = naïve (cycle-rule consequence)."""
    rnd = make_rng(seed)
    e = rand_edges(rnd)
    naive, _ = naive_fixpoint(OPS, tc_body(e), {})
    body = IncBody(OPS, base_fn=dict, join_fn=ref_join_ac)
    semi, _ = semi_naive_fixpoint(OPS, body, e)
    assert semi == naive


def test_semi_naive_reuses_body():
    """One IncBody run twice gives the same fixpoint: each run starts afresh."""
    e = {(i, i + 1): 1 for i in range(4)}  # a path graph
    body = IncBody(OPS, base_fn=dict, join_fn=ref_join_ac)
    first, _ = semi_naive_fixpoint(OPS, body, e)
    second, _ = semi_naive_fixpoint(OPS, body, e)
    assert first == second
    assert set(first) == python_tc(e)


def runaway_join(limit):
    """A bilinear rule body with no fixpoint: fact (s, t) derives (s, t + 1).

    Past ``limit`` calls it fails the test, so a loop that ignores its
    bound fails instead of running forever.
    """
    calls = itertools.count(1)

    def join(a, b):
        assert next(calls) <= limit, "the loop ran past MAX_ITER"
        return ref.rjoin(
            a, b, key_a=lambda r: 0, key_b=lambda r: 0, out=lambda ra, rb: (ra[0], rb[1] + 1)
        )

    return join


@pytest.mark.parametrize("driver", ["naive", "semi_naive", "nested"])
def test_fixpoints_stop_at_iteration_bound(driver, monkeypatch):
    """A body that never converges raises RuntimeError after MAX_ITER iterations."""
    monkeypatch.setattr(recursion, "MAX_ITER", 5)
    join = runaway_join(limit=100)  # a join node calls it at most 4 times per iteration
    e = {(0, 0): 1}
    run = {
        "naive": lambda: naive_fixpoint(OPS, lambda x: ref.rdistinct(ref.radd(e, join(e, x))), {}),
        "semi_naive": lambda: semi_naive_fixpoint(OPS, IncBody(OPS, dict, join), e),
        "nested": lambda: IncrementalRecursive(OPS, dict, join).step(e),
    }[driver]
    with pytest.raises(RuntimeError, match="did not converge"):
        run()


@pytest.mark.parametrize("seed", SEEDS)
def test_semi_naive_does_less_work(seed):
    """§5.1: semi-naïve touches new facts only; naïve re-touches everything.

    Total facts processed by semi-naïve iterations is bounded by the work
    of the naïve loop whenever the fixpoint needs >1 iteration.
    """
    rnd = make_rng(seed)
    e = {(i, i + 1): 1 for i in range(rnd.randint(3, 8))}  # a path graph
    _, n_stats = naive_fixpoint(OPS, tc_body(e), {}, collect_stats=True)
    body = IncBody(OPS, base_fn=dict, join_fn=ref_join_ac)
    _, s_stats = semi_naive_fixpoint(OPS, body, e, collect_stats=True)
    assert s_stats.total_facts < n_stats.total_facts
    # per-iteration: naïve grows to the full TC size, semi-naïve shrinks
    assert n_stats.facts_per_iteration[-1] == max(n_stats.facts_per_iteration)


@pytest.mark.parametrize("seed", SEEDS)
def test_semi_naive_iteration_counts(seed):
    """§6.2: both evaluators need the same number of iterations (±1 stop probe)."""
    rnd = make_rng(seed)
    e = rand_edges(rnd)
    _, n_stats = naive_fixpoint(OPS, tc_body(e), {}, collect_stats=True)
    body = IncBody(OPS, base_fn=dict, join_fn=ref_join_ac)
    _, s_stats = semi_naive_fixpoint(OPS, body, e, collect_stats=True)
    assert abs(n_stats.iterations - s_stats.iterations) <= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_while_loop_least_fixpoint(seed):
    """§7.7: while-relational computes the least fixpoint above the input."""
    rnd = make_rng(seed)
    e = rand_edges(rnd)
    q = lambda x: ref.rdistinct(ref.radd(x, ref_join_ac(x, x)))  # noqa: E731
    fix = while_loop(OPS, q, ref.rdistinct(e))
    # squaring closure == ordinary closure plus the base edges
    naive, _ = naive_fixpoint(OPS, tc_body(ref.rdistinct(e)), {})
    assert fix == naive or set(fix) == python_tc(e) | set(ref.rdistinct(e))


def test_same_generation_datalog():
    """A second recursive program: same-generation over a tree."""
    # parent edges (child, parent)
    up = {(1, 0): 1, (2, 0): 1, (3, 1): 1, (4, 1): 1, (5, 2): 1}
    flip = ref.rmap(up, lambda r: (r[1], r[0]))  # down edges (parent, child)
    base = ref.rdistinct(ref_join_ac(up, flip))  # siblings share a parent

    def body(x):
        # sg(a,b) :- up(a,p), sg(p,q), down(q,b)
        step = ref_join_ac(ref_join_ac(up, x), flip)
        return ref.rdistinct(ref.radd(base, step))

    fix, _ = naive_fixpoint(OPS, body, {})
    assert (3, 5) in fix and (4, 5) in fix  # cousins: parents are siblings
    assert (1, 2) in fix and (1, 1) in fix
    assert (0, 1) not in fix  # different generations
