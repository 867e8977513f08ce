"""§7.6 streaming operators: windows and the stream-table join."""
import pytest

from repro.core import stream as st
from repro.core.backend import COMPACT_AFTER, RefZSetOps, SparkZSetOps
from repro.core.window import RelationToStreamJoin, SlidingSumWindow, TimeRangeWindow
from repro.zset import ops as zops
from repro.zset import ref
from repro.zset.frame import ZSet

from helpers import make_rng, rand_zset1, rand_zset2, ref_join_ac

OPS = RefZSetOps()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [1, 2, 4])
def test_sliding_sum_window_ref(seed, k):
    """o[t] = Σ_{j<k} s[t-j] — the §7.6.1 convolution circuit."""
    rnd = make_rng(seed)
    s = [rand_zset1(rnd) for _ in range(8)]
    node = SlidingSumWindow(OPS, k)
    got = [node.step(x) for x in s]
    for t in range(len(s)):
        want = {}
        for j in range(k):
            if t - j >= 0:
                want = ref.radd(want, s[t - j])
        assert got[t] == want


def test_sliding_sum_window_is_linear(spark):
    """Theorem 3.3 applies: the window is its own incremental version."""
    rnd = make_rng(3)
    a = [rand_zset1(rnd) for _ in range(6)]
    b = [rand_zset1(rnd) for _ in range(6)]
    n1, n2, n3 = (SlidingSumWindow(OPS, 3) for _ in range(3))
    lhs = [n1.step(ref.radd(x, y)) for x, y in zip(a, b)]
    rhs = [ref.radd(n2.step(x), n3.step(y)) for x, y in zip(a, b)]
    assert lhs == rhs


def test_time_range_window_contents(spark):
    """CQL [RANGE 1hr]: window contents == filter over all received rows."""
    w = TimeRangeWindow("ts", width=10.0)
    all_rows: list = []
    thetas = [10.0, 15.0, 23.0, 40.0]
    batches = [
        [(1, 3.0), (2, 8.0)],
        [(3, 14.0)],
        [(4, 13.0), (5, 22.0)],
        [(6, 39.0)],
    ]
    for theta, batch in zip(thetas, batches):
        delta = ZSet.from_rows(spark, [r + (1,) for r in batch], "k int, ts double")
        w.step(delta, theta)
        all_rows.extend(batch)
        want = sorted(k for k, ts in all_rows if ts >= theta - 10.0)
        got = sorted(r["k"] for r in w.contents().to_set_df().collect())
        assert got == want


def test_time_range_window_bounded_state(spark):
    """T8: state holds only live rows — bounded memory on unbounded input."""
    w = TimeRangeWindow("ts", width=5.0)
    for t in range(12):
        delta = ZSet.from_rows(
            spark, [(t * 10 + j, float(t), 1) for j in range(3)], "k int, ts double"
        )
        w.step(delta, float(t))
        assert w.state_size() <= 3 * 6  # at most `width+1` generations live
    assert w.state_size() < 12 * 3  # strictly less than total rows received


def test_time_range_window_deltas_integrate(spark):
    """The emitted deltas integrate to the window contents."""
    w = TimeRangeWindow("ts", width=10.0)
    acc = None
    for t in range(8):
        delta = ZSet.from_rows(spark, [(t, float(t), 1)], "k int, ts double")
        out = w.step(delta, float(t))
        acc = out if acc is None else acc.add(out).materialize()
    assert acc.consolidate().equals(w.contents())


def window_stream(steps: int = 32, width: float = 5.0):
    """``(theta, batch)`` pairs of ``(k, ts, weight)`` rows, longer than
    ``COMPACT_AFTER``: θ mostly advances by 1, stands still at some steps
    and jumps several widths at one; every batch has new live rows, a
    late row with ``ts < lo`` and, once there are some, a delete of a live
    row."""
    rnd = make_rng(15)
    received: dict = {}
    theta, k, out = width, 0, []
    for t in range(steps):
        theta += 0.0 if t % 7 == 3 else (4 * width if t == 17 else 1.0)
        lo = theta - width
        batch = []
        for _ in range(3):
            batch.append((k, float(rnd.randint(int(lo), int(theta))), 1))
            k += 1
        batch.append((k, lo - 1.0 - rnd.randint(0, 3), 1))  # late: never enters
        k += 1
        live = [r for r, w in received.items() if r[1] >= lo and w > 0]
        if live:
            batch.append(rnd.choice(live) + (-1,))
        for *r, w in batch:
            received = ref.radd(received, {tuple(r): w})
        out.append((theta, batch))
    return out


@pytest.mark.parametrize("path", ["default", "spark_path"])
def test_time_range_window_long_stream(spark, request, path):
    """Over more steps than ``COMPACT_AFTER``, with deletes of live rows,
    late rows, a θ that stands still and one that jumps several widths:
    after every step the contents and the integrated output equal the
    filter ``ts ≥ θ − width`` over all rows received, and the state's
    physical rows stay within the window plus ``COMPACT_AFTER`` changes."""
    if path == "spark_path":
        request.getfixturevalue("spark_path")
    width = 5.0
    w = TimeRangeWindow("ts", width=width)
    received: dict = {}
    integrated: dict = {}
    sizes: list[int] = []  # rows in the window after each step
    changes: list[int] = []  # rows in each step's output change
    for theta, batch in window_stream(width=width):
        out = w.step(ZSet.from_rows(spark, batch, "k int, ts double"), theta)
        received = ref.radd(received, {tuple(r): wt for *r, wt in batch})
        want = {r: wt for r, wt in received.items() if r[1] >= theta - width}
        got = out.collect_dict()
        integrated = ref.radd(integrated, got)
        assert integrated == want
        assert w.contents().collect_dict() == want
        sizes.append(len(want))
        changes.append(len(got))
        # the last compaction left a window of some recent step's size
        bound = max(sizes[-COMPACT_AFTER:]) + sum(changes[-COMPACT_AFTER:])
        assert w.contents().df.count() <= bound


def test_watermark_must_be_monotone(spark):
    w = TimeRangeWindow("ts", width=1.0)
    w.step(ZSet.empty(spark, "k int, ts double"), 5.0)
    with pytest.raises(ValueError):
        w.step(ZSet.empty(spark, "k int, ts double"), 4.0)


def test_relation_to_stream_join(spark):
    """§7.6: points match the accumulated relation, then are discarded."""
    join_fn = lambda rel, pts: zops.map_z(  # noqa: E731
        zops.join_z(rel, pts, on=[("k", "k")]), {"k": "k", "v": "v", "p": "p"}
    )
    node = RelationToStreamJoin(SparkZSetOps(), join_fn)
    rel1 = ZSet.from_rows(spark, [(1, "a", 1)], "k int, v string")
    pts1 = ZSet.from_rows(spark, [(1, 10, 1), (2, 20, 1)], "k int, p int")
    out1 = node.step(rel1, pts1)
    assert out1.collect_dict() == {(1, "a", 10): 1}
    # relation grows; an old point does NOT rematch (it was transient)
    rel2 = ZSet.from_rows(spark, [(2, "b", 1)], "k int, v string")
    pts2 = ZSet.from_rows(spark, [(2, 30, 1)], "k int, p int")
    out2 = node.step(rel2, pts2)
    assert out2.collect_dict() == {(2, "b", 30): 1}


@pytest.mark.parametrize("seed", range(20))
def test_relation_to_stream_join_ref(seed):
    """``T(s, t) = ↑⋈(I(s), t)`` on random insert/delete streams."""
    rnd = make_rng(seed)
    n = rnd.randint(1, 8)
    s = [rand_zset2(rnd) for _ in range(n)]
    t = [rand_zset2(rnd) for _ in range(n)]
    node = RelationToStreamJoin(OPS, ref_join_ac)
    got = [node.step(x, y) for x, y in zip(s, t)]
    spec = st.lift(ref_join_ac)(st.integrate(OPS, s), t)
    assert st.stream_equal(OPS, got, spec)
