"""Pairwise order predicates: frozen desk examples plus property checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalorder.order import (
    Direction,
    Event,
    OrderKind,
    OrderSpec,
    PairClass,
    apply_dilation,
    apply_space_isometry,
    _distances,
    classify_pair,
    comparable,
    distance,
    event,
    interval_is_chain,
    interval_is_chain_sampled,
    leq,
    pairwise_comparable,
    reconstruct_causal_analytic,
    reconstruct_causal_sampled,
    strictly_below,
    subluminal_via_weakening,
)

CAUSAL = OrderSpec(OrderKind.CAUSAL, 1.0)
SUBLUMINAL = OrderSpec(OrderKind.SUBLUMINAL, 1.0)
TEMPORAL = OrderSpec(OrderKind.TEMPORAL)


# ------------------------------------------------------------- strategies

def events(n: int, grid: bool = False):
    if grid:
        coord = st.integers(min_value=-50, max_value=50).map(float)
    else:
        coord = st.floats(
            min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
        )
    return st.tuples(coord, st.tuples(*[coord] * n)).map(lambda p: Event(p[0], p[1]))


def event_pairs(grid: bool = False):
    return st.integers(min_value=0, max_value=3).flatmap(
        lambda n: st.tuples(events(n, grid), events(n, grid))
    )


# ----------------------------------------------------------- distances

def test_pair_distances_match_distance_cell_for_cell():
    # one batched helper, same accumulation order: every cell is the bits
    # of the scalar distance, overflow to inf and underflow to 0 included;
    # callers of _distances hold their own errstate, as this test does
    rng = np.random.default_rng(17)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")  # any other floating-point warning fails
        for n in range(4):
            for scale in (1.0, 1e150, 1e-150, 1e-170, 1e300):
                a = rng.uniform(-5, 5, (7, n)) * scale
                b = np.vstack([rng.uniform(-5, 5, (5, n)) * scale, a[:2]])
                got = _distances(a, b)
                assert got.shape == (7, 7)
                for i, p in enumerate(a.tolist()):
                    for j, q in enumerate(b.tolist()):
                        assert got[i, j] == distance(p, q), (n, scale, i, j)
        assert _distances(np.zeros((2, 0)), np.zeros((3, 0))).tolist() == [[0.0] * 3] * 2
        assert _distances(np.zeros((0, 2)), np.ones((3, 2))).shape == (0, 3)
        # the square overflows in both routes (the difference, in the second)
        assert distance([0.0], [1e308]) == math.inf
        assert _distances(np.array([[0.0]]), np.array([[-1e308], [1e308]])).tolist() == [
            [math.inf, math.inf]
        ]
        assert _distances(np.array([[-1e308]]), np.array([[1e308]]))[0, 0] == math.inf


# ----------------------------------------------------------- construction

def test_event_helper_and_dimension():
    e = event(2.0, 1.0, -1.0)
    assert e.t == 2.0 and e.x == (1.0, -1.0) and e.n == 2
    assert Event(0.0).n == 0


def test_event_rejects_non_finite():
    with pytest.raises(ValueError):
        Event(math.nan, (0.0,))
    with pytest.raises(ValueError):
        Event(0.0, (math.inf,))


def test_event_rejects_dimension_overflow():
    with pytest.raises(ValueError):
        Event(0.0, tuple(0.0 for _ in range(9)))


def test_spec_requires_positive_speed():
    with pytest.raises(ValueError):
        OrderSpec(OrderKind.CAUSAL, 0.0)
    with pytest.raises(ValueError):
        OrderSpec(OrderKind.SUBLUMINAL, -1.0)
    OrderSpec(OrderKind.TEMPORAL)  # c ignored, but checked as for every kind
    for c in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="^c must be positive and finite$"):
            OrderSpec(OrderKind.TEMPORAL, c)


# ----------------------------------------------------------- classify_pair

def test_classify_frozen_examples():
    u = event(0.0, 0.0, 0.0)
    assert classify_pair(u, event(10.0, 3.0, 4.0), 1.0) is PairClass.TIMELIKE_FORWARD
    assert classify_pair(u, event(5.0, 3.0, 4.0), 1.0) is PairClass.LIGHTLIKE_FORWARD
    assert classify_pair(u, event(4.0, 3.0, 4.0), 1.0) is PairClass.SPACELIKE
    assert classify_pair(u, u, 1.0) is PairClass.EQUAL


def test_classify_backward_cases():
    u = event(10.0, 3.0, 4.0)
    v = event(0.0, 0.0, 0.0)
    assert classify_pair(u, v, 1.0) is PairClass.TIMELIKE_BACKWARD
    assert classify_pair(event(5.0, 3.0, 4.0), v, 1.0) is PairClass.LIGHTLIKE_BACKWARD


def test_equal_times_distinct_positions_are_spacelike():
    # forced by the strict time inequality in the order definition
    assert classify_pair(event(1.0, 0.0), event(1.0, 1e-300), 1.0) is PairClass.SPACELIKE


def test_classify_eps_band():
    u = event(0.0, 0.0)
    v = event(1.0, 0.999999)
    assert classify_pair(u, v, 1.0) is PairClass.TIMELIKE_FORWARD
    assert classify_pair(u, v, 1.0, eps=1e-5) is PairClass.LIGHTLIKE_FORWARD


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_pair(event(0.0, 0.0), event(0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        classify_pair(event(0.0, 0.0), event(1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        classify_pair(event(0.0, 0.0), event(1.0, 0.0), 1.0, eps=-1e-3)


_MIRROR = {
    PairClass.EQUAL: PairClass.EQUAL,
    PairClass.SPACELIKE: PairClass.SPACELIKE,
    PairClass.TIMELIKE_FORWARD: PairClass.TIMELIKE_BACKWARD,
    PairClass.TIMELIKE_BACKWARD: PairClass.TIMELIKE_FORWARD,
    PairClass.LIGHTLIKE_FORWARD: PairClass.LIGHTLIKE_BACKWARD,
    PairClass.LIGHTLIKE_BACKWARD: PairClass.LIGHTLIKE_FORWARD,
}


@given(event_pairs())
def test_classify_mirror_property(pair):
    u, v = pair
    assert classify_pair(v, u, 1.0) is _MIRROR[classify_pair(u, v, 1.0)]


# --------------------------------------------------------------------- leq

def test_leq_frozen_examples():
    u = event(0.0, 0.0, 0.0)
    v = event(1.0, 1.0, 0.0)
    assert leq(CAUSAL, u, v)
    assert not leq(SUBLUMINAL, u, v)
    assert leq(TEMPORAL, event(0.0, 9.0, 9.0), event(0.001, 0.0, 0.0))


def test_leq_backward_swaps_arguments():
    back = OrderSpec(OrderKind.CAUSAL, 1.0, Direction.BACKWARD)
    u = event(0.0, 0.0)
    v = event(2.0, 1.0)
    assert leq(CAUSAL, u, v) and not leq(CAUSAL, v, u)
    assert leq(back, v, u) and not leq(back, u, v)


@given(event_pairs())
def test_leq_matches_classification(pair):
    u, v = pair
    cls = classify_pair(u, v, 1.0)
    assert leq(CAUSAL, u, v) == (
        cls in (PairClass.EQUAL, PairClass.TIMELIKE_FORWARD, PairClass.LIGHTLIKE_FORWARD)
    )
    assert leq(SUBLUMINAL, u, v) == (
        cls in (PairClass.EQUAL, PairClass.TIMELIKE_FORWARD)
    )
    assert leq(TEMPORAL, u, v) == (u == v or u.t < v.t)


@given(event_pairs())
def test_reflexive_and_helpers(pair):
    u, v = pair
    for spec in (CAUSAL, SUBLUMINAL, TEMPORAL):
        assert leq(spec, u, u)
        assert strictly_below(spec, u, v) == (leq(spec, u, v) and u != v)
        assert comparable(spec, u, v) == (leq(spec, u, v) or leq(spec, v, u))


def test_temporal_is_the_large_c_limit():
    # causal relations grow with c and reach the temporal relation once
    # c clears every sampled velocity ratio
    pairs = [
        (event(0.0, 3.0, -2.0), event(0.5, -4.0, 1.0)),
        (event(1.0, 5.0), event(1.1, -5.0)),
        (event(0.0, 0.0, 0.0), event(2.0, 1.0, 1.0)),
    ]
    pairs = [(u, Event(v.t, v.x[: u.n])) for u, v in pairs]
    ladder = [10.0**k for k in range(7)]
    for u, v in pairs:
        results = [leq(OrderSpec(OrderKind.CAUSAL, c), u, v) for c in ladder]
        assert results == sorted(results)  # monotone in c
        assert results[-1] == leq(TEMPORAL, u, v)


def test_pairwise_comparable():
    chain = [event(0.0, 0.0), event(1.0, 0.5), event(2.0, 0.0)]
    assert pairwise_comparable(CAUSAL, chain)
    assert not pairwise_comparable(CAUSAL, chain + [event(0.0, 5.0)])


# ------------------------------------------------------ intervals, weakening

def test_interval_is_chain_frozen():
    a = event(0.0, 0.0)
    assert interval_is_chain(a, event(1.0, 1.0), 1.0)
    assert not interval_is_chain(a, event(2.0, 0.0), 1.0)
    assert interval_is_chain(a, a, 1.0)


def test_interval_is_chain_requires_related_endpoints():
    with pytest.raises(ValueError):
        interval_is_chain(event(0.0, 0.0), event(0.0, 1.0), 1.0)


def test_interval_sampled_frozen():
    a = event(0.0, 0.0)
    with pytest.raises(ValueError, match=r"^need at least 2 samples$"):
        interval_is_chain_sampled(a, event(2.0, 0.0), 1.0, samples=1)
    assert not interval_is_chain_sampled(a, event(2.0, 0.0), 1.0, samples=1000, seed=0)
    assert interval_is_chain_sampled(a, event(1.0, 1.0), 1.0, samples=1000, seed=0)
    assert interval_is_chain_sampled(a, a, 1.0, samples=10, seed=0)


def test_weakening_frozen_examples():
    a = event(0.0, 0.0)
    assert subluminal_via_weakening(a, event(2.0, 0.0), 1.0)
    assert not subluminal_via_weakening(a, event(1.0, 1.0), 1.0)
    assert subluminal_via_weakening(a, a, 1.0)


@given(event_pairs())
def test_weakening_equals_subluminal(pair):
    u, v = pair
    assert subluminal_via_weakening(u, v, 1.0) == leq(SUBLUMINAL, u, v)


# ------------------------------------------------------------ reconstruction

def test_reconstruct_analytic_frozen():
    u = event(0.0, 0.0)
    assert reconstruct_causal_analytic(u, event(1.0, 1.0), 1.0)
    assert not reconstruct_causal_analytic(u, event(1.0, 2.0), 1.0)
    assert reconstruct_causal_analytic(u, u, 1.0)


def test_reconstruct_analytic_equal_times_subnormal_offset():
    # the offset squares to 0.0; equal-time distinct events stay unrelated
    u, v = event(0.0, 0.0), event(0.0, 1.3e-268)
    assert not leq(CAUSAL, u, v)
    assert not reconstruct_causal_analytic(u, v, 1.0)


@given(event_pairs())
def test_reconstruct_analytic_equals_causal(pair):
    u, v = pair
    assert reconstruct_causal_analytic(u, v, 1.0) == leq(CAUSAL, u, v)


def test_reconstruct_sampled_witness_example():
    u = event(0.0, 0.0)
    v = event(1.0, 2.0)
    w = event(2.0, 2.5)  # above v at speed 0.5, above u at speed 1.25
    assert reconstruct_causal_sampled(u, v, 1.0, [])
    assert not reconstruct_causal_sampled(u, v, 1.0, [w])
    assert reconstruct_causal_sampled(u, event(1.0, 1.0), 1.0, [w])


@given(event_pairs(), st.lists(st.integers(0, 40), max_size=12), st.integers(0, 2**31))
@settings(max_examples=60)
def test_reconstruct_sampled_monotone_and_superset(pair, offsets, seed):
    u, v = pair
    import numpy as np

    rng = np.random.default_rng(seed)
    witnesses = [
        Event(float(rng.uniform(-50, 50)), tuple(float(s) for s in rng.uniform(-50, 50, u.n)))
        for _ in offsets
    ]
    full = reconstruct_causal_sampled(u, v, 1.0, witnesses)
    half = reconstruct_causal_sampled(u, v, 1.0, witnesses[: len(witnesses) // 2])
    assert half or not full  # adding witnesses never resurrects a pair
    if leq(CAUSAL, u, v):
        assert full  # structurally no false negatives


# ------------------------------------------------------------ invariances

def test_isometry_frozen():
    q = [[0.0, -1.0], [1.0, 0.0]]
    e = apply_space_isometry(q, (0.0, 0.0), event(3.0, 1.0, 0.0))
    assert e == event(3.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        apply_space_isometry([[1.0, 0.0], [1.0, 1.0]], (0.0, 0.0), event(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^Q must have shape \(2, 2\), got \(1, 1\)$"):
        apply_space_isometry([[1.0]], (0.0, 0.0), event(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^b must have shape \(2,\), got \(3,\)$"):
        apply_space_isometry(q, (0.0, 0.0, 0.0), event(0.0, 0.0, 0.0))


def test_dilation_frozen():
    assert apply_dilation(2.0, event(1.0, 3.0, 4.0)) == event(2.0, 6.0, 8.0)
    with pytest.raises(ValueError):
        apply_dilation(0.0, event(0.0))


_SIGNED_PERMS_2D = [
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0], [1.0, 0.0]],
    [[-1.0, 0.0], [0.0, -1.0]],
]


@given(
    st.tuples(events(2, grid=True), events(2, grid=True)),
    st.sampled_from(_SIGNED_PERMS_2D),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
)
def test_classification_invariant_under_exact_symmetries(pair, q, shift, r):
    # integer data, signed permutations, dyadic dilations: all arithmetic
    # is exact, so invariance must hold on the light cone boundary too
    u, v = pair
    b = tuple(float(s) for s in shift)
    tu = apply_dilation(r, apply_space_isometry(q, b, u))
    tv = apply_dilation(r, apply_space_isometry(q, b, v))
    assert classify_pair(tu, tv, 1.0) is classify_pair(u, v, 1.0)


def test_random_isometry_preserves_norms():
    import numpy as np

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for _ in range(50):
        a = rng.uniform(-10, 10, 3)
        b = rng.uniform(-10, 10, 3)
        ea = apply_space_isometry(q, (0.0, 0.0, 0.0), Event(0.0, tuple(a)))
        eb = apply_space_isometry(q, (0.0, 0.0, 0.0), Event(0.0, tuple(b)))
        before = float(np.linalg.norm(a - b))
        after = math.dist(ea.x, eb.x)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)
