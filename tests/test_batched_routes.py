"""The routes that answer all-pairs questions through the rectangular
batched cone kernel, against the pure-Python pair loops over comparable
and classify_pair that they replace, and the batched surface heights
against the per-point height."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalorder.hypersurfaces import is_antichain_sample, make_hypersurface
from causalorder.order import (
    Direction,
    Event,
    OrderKind,
    OrderSpec,
    PairClass,
    _analytic_block,
    _box_events,
    _coordinates,
    _strict_block,
    classify_pair,
    comparable,
    event,
    interval_is_chain_sampled,
    leq,
    pairwise_comparable,
    reconstruct_causal_analytic,
)

SPECS = [
    OrderSpec(kind, c, direction)
    for kind in OrderKind
    for direction in Direction
    for c in (0.5, 1.0, 10.0)
]

# the squares underflow: distinct events at distance 0
TINY = (event(0.0, 0.0), event(0.0, 1e-200))
# at c = 10, c*dt and the squares overflow to inf
HUGE = (event(0.0, 0.0), event(1e308, 1e300))


def _loop_pairwise(spec, evs):
    return all(comparable(spec, u, v) for u, v in itertools.combinations(evs, 2))


def _grid_sets(rng):
    """Integer-grid events, so many pairs sit exactly on the light cone,
    with duplicates; 0 to 3 space dimensions."""
    for n in range(4):
        for count in (2, 3, 5, 12):
            cells = rng.integers(-3, 4, (count, n + 1)).astype(float).tolist()
            evs = [Event(t, tuple(x)) for t, *x in cells]
            yield evs + [evs[0]]
        # a light-like chain: comparable in the causal order only
        yield [Event(float(i), (float(i),) * min(n, 1) + (0.0,) * (n - 1)) for i in range(6)]


def test_pairwise_comparable_matches_pair_loop():
    rng = np.random.default_rng(71)
    sets = list(_grid_sets(rng)) + [list(TINY), list(HUGE), [HUGE[0], HUGE[1], HUGE[1]]]
    verdicts = set()
    for spec in SPECS:
        for evs in sets:
            want = _loop_pairwise(spec, evs)
            assert pairwise_comparable(spec, evs) == want, (spec, evs)
            verdicts.add(want)
            # every pair on its own, so each cell of the block is checked
            for u, v in itertools.combinations(evs[:6], 2):
                assert pairwise_comparable(spec, [u, v]) == comparable(spec, u, v), (spec, u, v)
    assert verdicts == {True, False}
    assert not pairwise_comparable(OrderSpec(OrderKind.CAUSAL, 1.0), list(TINY))
    # overflow: c*dt and the distance are both inf, so causal only
    assert pairwise_comparable(OrderSpec(OrderKind.CAUSAL, 10.0), list(HUGE))
    assert not pairwise_comparable(OrderSpec(OrderKind.SUBLUMINAL, 10.0), list(HUGE))


def test_pairwise_comparable_rejects_mixed_dimensions():
    for evs in ([event(0, 0), event(1, 0, 0)], [event(0, 0), event(0, 5), event(1, 0, 0)]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pairwise_comparable(OrderSpec(OrderKind.CAUSAL, 1.0), evs)


def _interval_reference(a, b, c, samples, seed):
    """The per-point loop: same draws, Event by Event."""
    spec = OrderSpec(OrderKind.CAUSAL, c)
    pad = 0.5 * c * (b.t - a.t)
    box = [(min(p, q) - pad, max(p, q) + pad) for p, q in zip(a.x, b.x)] + [(a.t, b.t)]
    pts = _box_events(np.random.default_rng(seed), box, samples)
    kept = [p for p in pts if leq(spec, a, p) and leq(spec, p, b)]
    return _loop_pairwise(spec, [a, *kept, b])


def test_interval_is_chain_sampled_matches_pair_loop():
    rng = np.random.default_rng(73)
    cases = [
        (event(0, 0), event(2, 0), 1.0),  # time-like
        (event(0, 0), event(1, 1), 1.0),  # light-like, exact
        (event(0, 0, 0), event(5, 3, 4), 1.0),  # light-like on the grid
        (event(0), event(1), 1.0),  # no space: every interval is a chain
        (event(1, 2, 3, 4), event(1, 2, 3, 4), 0.5),
    ]
    for n in range(4):
        for _ in range(4):
            a = Event(0.0, tuple(float(v) for v in rng.integers(-3, 4, n)))
            dx = rng.integers(-2, 3, n).astype(float)
            dt = math.ceil(math.sqrt(float(dx @ dx))) + float(rng.integers(0, 2))
            cases.append((a, Event(dt, tuple(a.x[i] + dx[i] for i in range(n))), 1.0))
    verdicts = set()
    for a, b, c in cases:
        for seed in range(3):
            want = _interval_reference(a, b, c, 300, seed)
            assert interval_is_chain_sampled(a, b, c, samples=300, seed=seed) == want, (a, b, seed)
            verdicts.add(want)
    assert verdicts == {True, False}
    for a, b in (TINY, TINY[::-1]):  # unrelated endpoints
        with pytest.raises(ValueError, match="endpoints must satisfy"):
            interval_is_chain_sampled(a, b, 1.0)


def test_interval_is_chain_sampled_rejects_unbounded_box():
    for a, b in ((event(0, 0), event(1e308, 0)), HUGE, (event(-1e308, 0), event(1e308, 0))):
        with pytest.raises(ValueError, match=r"^the bounding box of the interval is not finite$"):
            interval_is_chain_sampled(a, b, 10.0)


def _antichain_reference(hs, points):
    lifted, seen = [], set()
    for x in points:
        xt = tuple(float(v) for v in x)
        if xt not in seen:
            seen.add(xt)
            lifted.append(hs.graph_event(xt))
    return all(
        classify_pair(u, v, hs.c) is PairClass.SPACELIKE
        for u, v in itertools.combinations(lifted, 2)
    )


def test_is_antichain_sample_matches_pair_loop():
    rng = np.random.default_rng(79)
    # k*c one ulp under 1: the rounded heights put some grid pairs
    # exactly on the light cone, e.g. x = 5 and x = 6
    steep = make_hypersurface([((0.0,), 0.0)], math.nextafter(1.0, 0.0), 1.0)
    cases = [
        (steep, [(float(i),) for i in range(12)]),
        (steep, [(5.0,), (6.0,)]),
        (make_hypersurface([((0.0, 0.0), 0.0)], 0.5, 1.0), [(0.0, 0.0), (0.0, 1e-200), (0.0, 0.0)]),
    ]
    for n in range(4):
        for c in (0.5, 1.0, 10.0):
            xs = rng.uniform(-5, 5, (8, n))
            anchors = [(x, 0.0) for x in xs.tolist()]
            hs = make_hypersurface(anchors, 0.9 / c, c)
            pts = rng.integers(-4, 5, (15, n)).astype(float).tolist()
            cases.append((hs, pts + pts[:3]))
    verdicts = set()
    for hs, pts in cases:
        want = _antichain_reference(hs, pts)
        assert is_antichain_sample(hs, pts) == want, (hs.modulus, hs.c, pts)
        verdicts.add(want)
    assert verdicts == {True, False}
    assert not is_antichain_sample(steep, [(5.0,), (6.0,)])


def test_analytic_block_matches_scalar_loop():
    rng = np.random.default_rng(83)
    sets = list(_grid_sets(rng)) + [list(TINY), list(HUGE), [HUGE[0], HUGE[1], HUGE[1]]]
    verdicts = set()
    for c in (0.5, 1.0, 10.0):
        for evs in sets:
            t, xs = _coordinates(evs)
            want = [[reconstruct_causal_analytic(u, v, c) for v in evs] for u in evs]
            assert _analytic_block(c, t, xs, t, xs).tolist() == want, (c, evs)
            # a rectangular band, as the CLI takes it
            half = len(evs) // 2
            band = _analytic_block(c, t[half:], xs[half:], t, xs)
            assert band.tolist() == want[half:], (c, evs)
            verdicts.update(v for row in want for v in row)
    assert verdicts == {True, False}
    t, xs = _coordinates(list(TINY))  # distinct at distance 0: unrelated
    assert _analytic_block(1.0, t, xs, t, xs).tolist() == [[True, False], [False, True]]
    t, xs = _coordinates(list(HUGE))  # c*dt and the distance overflow to inf
    assert _analytic_block(10.0, t, xs, t, xs).tolist() == [[True, True], [False, True]]


# equal times, both zeros, and magnitudes whose squares overflow or underflow
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-200, -1e-200]),
    st.floats(-10.0, 10.0),
)


@st.composite
def _kernel_blocks(draw):
    n = draw(st.integers(0, 3))
    ta, tb = (draw(st.lists(_COORD, min_size=1, max_size=5)) for _ in range(2))
    if draw(st.booleans()):  # b's times are a's, so every cell of a row meets its own time
        tb = list(ta)
    xa, xb = (np.array([[draw(_COORD) for _ in range(n)] for _ in ts]).reshape(len(ts), n)
              for ts in (ta, tb))
    c = draw(st.sampled_from([1e-300, 0.5, 1.0, 10.0, 1e300]))
    return c, np.array(ta), xa, np.array(tb), xb


@given(_kernel_blocks(), st.sampled_from(list(OrderKind)))
@settings(max_examples=300, deadline=None)
def test_kernel_never_relates_an_event_to_one_no_later(block, kind):
    # the property finite.build's band pass rests on: it never asks about
    # a row against an earlier band
    c, ta, xa, tb, xb = block
    with np.errstate(over="ignore"):
        rel = _strict_block(kind, c, ta, xa, tb, xb)
    assert not rel[tb[None, :] <= ta[:, None]].any()


def _norm_surface(rng, n, count, scale=1.0):
    """Anchors with h_i = 0.45 |x_i| under k = 0.5, so every pair meets
    the Lipschitz bound."""
    xs = rng.uniform(-5, 5, (count, n)) * scale
    return make_hypersurface([(x, 0.45 * math.hypot(*x)) for x in xs.tolist()], 0.5, 1.0)


def test_heights_match_height_bit_for_bit():
    rng = np.random.default_rng(89)
    surfaces = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unsilenced overflow fails
        for n in range(4):
            for count in (1, 200):
                for scale in (1.0, 1e200, 1e300):
                    hs = _norm_surface(rng, n, count, scale)
                    # ~700 points span several row tiles at 200 anchors;
                    # near 1e200 and 1e300 the squared offsets overflow
                    # and are scaled; at an anchor itself they are 0
                    pts = np.concatenate([rng.uniform(-8, 8, (600, n)),
                                          rng.uniform(-1, 1, (50, n)) * 1e200,
                                          rng.uniform(-1, 1, (45, n)) * 1e300,
                                          hs._axes[:5]])
                    got = hs.heights(pts)
                    assert got.shape == (len(pts),) and got.dtype == np.float64
                    one = [hs.height(x) for x in pts.tolist()]
                    assert all(type(h) is float for h in one)
                    assert [h.hex() for h in one] == [h.hex() for h in got.tolist()], (n, count, scale)
                    assert hs.heights(pts.tolist()).tolist() == got.tolist()
                    surfaces += 1
    assert surfaces == 24
    hs = _norm_surface(rng, 2, 200)
    # the squared offsets overflow there; heights scales them instead
    assert np.isfinite(hs.heights([(1e200, 0.0)])).all() and math.isfinite(hs.height((1e300, 0.0)))
    assert hs.heights(np.empty((0, 2))).shape == (0,)
    with pytest.raises(ValueError, match=r"^dimension mismatch: 3 vs 2$"):
        hs.heights(np.zeros((4, 3)))
    for bad in ((), (0.0,), (0.0, 0.0, 0.0)):  # the one-point case says the same
        with pytest.raises(ValueError, match=rf"^dimension mismatch: {len(bad)} vs 2$"):
            hs.height(bad)


def test_height_skips_errstate_only_below_its_radius(monkeypatch):
    big, inf, nan = 2.0**500, math.inf, math.nan
    inside, outside = math.nextafter(big, 0.0), math.nextafter(big, inf)
    cases = [  # (anchors, k, c, radius): each bound met exactly, then missed by an ulp
        ([((big, -big), 0.0), ((-big, big), 0.0)], 0.5, 1.0, big),
        ([((outside, 0.0), 0.0), ((0.0, 1.0), 0.25)], 0.5, 1.0, 0.0),
        ([((inside, 1.0), 2.0**1021), ((-inside, 0.0), 2.0**1021)], 2.0**510, 2.0**-511, big),
        ([((0.0, 0.0), 0.0)], math.nextafter(2.0**510, inf), 2.0**-511, 0.0),
        ([((0.0, 0.0), -2.0**1021), ((1.0, 1.0), -2.0**1021)], 0.5, 1.0, big),
        ([((0.0, 0.0), math.nextafter(2.0**1021, inf))], 0.5, 1.0, 0.0),
        ([((), -0.0), ((), -0.0)], 0.5, 1.0, big),  # n = 0: min(0.0 * k + h_i) is 0.0
    ]
    points = [(inside, -inside), (-inside, 0.0), (big, 0.0), (0.0, -big), (outside, 0.0),
              (0.3, 0.2), (nan, 0.0), (0.3, nan), (0.0, inf), (-inf, nan), (1e300, -1e300)]
    surfaces = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unsilenced overflow fails
        for anchors, k, c, radius in cases:
            hs = make_hypersurface(anchors, k, c)
            assert hs._radius == radius
            pts = points if hs.dimension else [()]
            want = hs.heights(pts).tolist()
            got = [hs.height(x) for x in pts]
            assert [h.hex() for h in got] == [h.hex() for h in want], (anchors, k)
            surfaces.append((hs, pts, got))
    assert all(math.isfinite(h) for h in surfaces[2][2][:4])  # h_i + k * 2^501 near 2^1021

    def no_errstate(**kwargs):
        raise AssertionError("errstate entered")

    monkeypatch.setattr(np, "errstate", no_errstate)
    plain = 0
    for hs, pts, got in surfaces:
        for x, h in zip(pts, got):
            if hs.dimension and all(abs(v) < hs._radius for v in x):
                assert hs.height(x).hex() == h.hex()
                plain += 1
            else:
                with pytest.raises(AssertionError, match="^errstate entered$"):
                    hs.height(x)
    assert plain == 9


def test_heights_name_the_shape_of_badly_shaped_points():
    hs = make_hypersurface([((0.0, 0.0), 0.0), ((1.0, 0.0), 0.25)], 0.5, 1.0)
    # one point passed flat, a bare number, a stack of arrays
    for points, shape in (([1.0, 2.0], (2,)), (3.0, ()), (np.zeros((2, 2, 2)), (2, 2, 2))):
        want = f"points must be an (m, 2) array, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            hs.heights(points)
    ragged = [(1.0, 2.0), (1.0,)]
    for call in (hs.heights, lambda pts: is_antichain_sample(hs, pts)):
        with pytest.raises(ValueError, match=r"^points must be an \(m, 2\) array, got ragged "):
            call(ragged)
    assert hs.heights([]).shape == (0,)
