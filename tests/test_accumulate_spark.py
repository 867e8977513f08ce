"""Append-only state accumulation (the O(C)-update implementation of I)."""
import pytest

from repro.core import backend
from repro.core.backend import SparkZSetOps
from repro.zset import ref
from repro.zset.frame import ZSet

from helpers import make_rng, rand_zset1, ref_to_spark

S1 = "k int"


@pytest.mark.parametrize("seed", range(3))
def test_accumulate_equals_add(spark, seed):
    """accumulate is semantically +, whatever its physical layout."""
    sops = SparkZSetOps()
    rnd = make_rng(seed)
    state = None
    want: dict = {}
    for _ in range(6):
        d = rand_zset1(rnd)
        state = sops.accumulate(state, ref_to_spark(spark, d, S1))
        want = ref.radd(want, d)
        assert state.collect_dict() == want


def test_accumulate_compacts(spark, monkeypatch):
    """After COMPACT_AFTER fragments the plan is re-consolidated."""
    monkeypatch.setattr(backend, "COMPACT_AFTER", 4)
    sops = SparkZSetOps()
    state = None
    for i in range(6):
        state = sops.accumulate(state, ZSet.from_rows(spark, [(i, 1)], S1))
    assert state.segments < 4
    assert state.collect_dict() == {(i,): 1 for i in range(6)}


def test_accumulate_skips_known_empty(spark):
    sops = SparkZSetOps()
    state = sops.accumulate(None, ZSet.from_rows(spark, [(1, 1)], S1))
    same = sops.accumulate(state, state.zero_like())
    assert same is state  # no-op, no new fragment


def test_materialize_idempotent_and_flagged(spark):
    z = ZSet.from_rows(spark, [(1, 1), (1, 1)], S1)
    m = z.materialize()
    assert m.checkpointed
    assert m.materialize() is m  # second call is free
    assert m.collect_dict() == {(1,): 2}


def test_h_on_unconsolidated_state(spark):
    """H must see summed weights even when the integral is fragmented."""
    sops = SparkZSetOps()
    state = None
    # accumulate (1,+1) twice -> weight 2 across two fragments
    for _ in range(2):
        state = sops.accumulate(state, ZSet.from_rows(spark, [(1, 1)], S1))
    d = ZSet.from_rows(spark, [(1, -2), (2, 1)], S1)
    # weight 2 -> 0: sign flip => -1; 2 appears: +1
    assert sops.h(state, d).collect_dict() == {(1,): -1, (2,): 1}


def test_zero_like_is_known_empty(spark):
    z = ZSet.from_rows(spark, [(1, 1)], S1)
    assert z.zero_like().known_empty
    assert ZSet.empty(spark, S1).known_empty
    assert not z.known_empty


@pytest.mark.parametrize("where", ["spark", "driver"])
def test_accumulate_into_known_empty_state(spark, where):
    """A known-empty state (a ``_TailList`` filler) takes the delta as its
    checkpointed base: one fragment, no lineage back to the zero's source."""
    x = ZSet.from_rows(spark, [(7, 1)], S1)
    if where == "driver":
        x = x.materialize()
    assert (x.rows is not None) == (where == "driver")
    d = ZSet.from_rows(spark, [(1, 1), (2, -1)], S1)
    state = SparkZSetOps().accumulate(x.zero_like(), d)
    assert state.segments == 1
    assert state.rows is None and state.checkpointed
    assert state.equals(d)
