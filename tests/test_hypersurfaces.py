"""Strict-Lipschitz surface graphs, gradings, and unique crossings."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from causalorder.hypersurfaces import (
    CROSSING_TOL,
    Grading,
    Hypersurface,
    _crossing,
    crossing_time,
    grading_monotone_on,
    is_antichain_sample,
    make_hypersurface,
)
from causalorder.order import TILE_CELLS, Event, PairClass, classify_pair, distance, event
from causalorder.worldlines import make_polyline


def cone_surface(k=0.5, c=1.0):
    return make_hypersurface([((0.0, 0.0), 0.0)], k, c)


def random_surface(seed, n=2, kc=0.6, c=1.0, anchors=6):
    """Anchors drawn sequentially inside the consistency band, so the
    pairwise Lipschitz constraint holds by construction."""
    rng = np.random.default_rng(seed)
    k = kc / c
    pts = [tuple(float(v) for v in rng.uniform(-5, 5, n))]
    hs = [float(rng.uniform(-3, 3))]
    for _ in range(anchors - 1):
        x = tuple(float(v) for v in rng.uniform(-5, 5, n))
        lo = max(h - k * math.dist(x, p) for p, h in zip(pts, hs))
        hi = min(h + k * math.dist(x, p) for p, h in zip(pts, hs))
        pts.append(x)
        hs.append(float(rng.uniform(lo, hi)))
    return make_hypersurface(list(zip(pts, hs)), k, c)


# ------------------------------------------------------------ construction

def test_heights_frozen_examples():
    hs = cone_surface()
    assert hs.height((3.0, 4.0)) == 2.5
    assert hs.height((0.0, 0.0)) == 0.0

    ramp = make_hypersurface([((-10.0,), -5.0), ((10.0,), 5.0)], 0.5, 1.0)
    for x in (-10.0, -3.0, 0.0, 4.0, 10.0):
        assert ramp.height((x,)) == pytest.approx(0.5 * x, abs=1e-12)


def _far_distance(a, b):
    """distance(a, b), or where its sum of squares overflows, the scaled
    form heights takes there: s * sqrt(sum((d / s)^2)), s = max |d|."""
    dist = distance(a, b)
    d = [q - p for p, q in zip(a, b)]
    s = max(map(abs, d), default=0.0)
    if dist < math.inf or s == math.inf:
        return dist
    return s * math.sqrt(sum((v / s) * (v / s) for v in d))


def _exact_height(hs, x):
    """h(x) in exact arithmetic on the given doubles, rounded once: each
    squared offset a Fraction, its root good to 2^-128 through isqrt."""
    best = None
    for xa, h in hs.anchors:
        s = sum((Fraction(q) - Fraction(p)) ** 2 for p, q in zip(x, xa))
        num, den = s.numerator, s.denominator
        shift = max(0, 128 - (num * den).bit_length() // 2)
        root = Fraction(math.isqrt(num * den << 2 * shift), den << shift)
        term = Fraction(h) + Fraction(hs.modulus) * root
        best = term if best is None else min(best, term)
    return float(best)


def _ulps(a, b):
    return abs(a - b) / math.ulp(b)


def _scaled(hs, scale):
    return make_hypersurface([(tuple(v * scale for v in x), h * scale) for x, h in hs.anchors],
                             hs.modulus, hs.c)


def test_height_matches_scalar_reference_bit_for_bit():
    # the batched envelope against the per-anchor Python expression it
    # replaced, far from the anchors (distances underflow, or overflow
    # and are scaled) and at the anchors themselves
    rng = np.random.default_rng(41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unsilenced overflow fails
        for n in range(4):
            for seed in range(3):
                base = random_surface(100 * n + seed, n=n, kc=0.9, anchors=12)
                for hs in (base, _scaled(base, 1e150), _scaled(base, 1e300)):
                    k = hs.modulus
                    xs = [x for x, _ in hs.anchors]
                    for scale in (1.0, 1e150, 1e-150, 1e300):
                        xs += [tuple(v) for v in (rng.uniform(-8, 8, (20, n)) * scale).tolist()]
                    for x in xs:
                        want = min(h + k * _far_distance(x, xa) for xa, h in hs.anchors)
                        got = hs.height(x)
                        assert type(got) is float
                        assert got == want or (math.isnan(got) and math.isnan(want)), (n, x)
        # k*d and h + k*d overflow here, and so do the anchors' height
        # difference and k*d in the Lipschitz check
        steep = make_hypersurface([((0.0,), 1.7e308), ((1e10,), -1.7e308)], 5e299, 1e-300)
        for x in (0.0, 1.0, 1e-300, 1e8, 5e9, 1e10, -1e300, 1e300):
            want = min(h + steep.modulus * distance((x,), xa) for xa, h in steep.anchors)
            assert steep.height((x,)) == want


def test_heights_match_a_fraction_oracle_up_to_1e300():
    # squared offsets overflow from about 1.3e154; the scaled norm keeps
    # every height within a few ulps of the exact envelope
    one = make_hypersurface([((0.0,), 0.0)], 0.5, 1.0)
    assert _ulps(one.height((1e160,)), 5e159) <= 1
    assert one.heights([[1e160]])[0] == one.height((1e160,))
    rng = np.random.default_rng(53)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unsilenced overflow fails
        for n in (1, 2, 3):
            for scale in (1.0, 1e150, 1e154, 1e300):
                # nonnegative heights h_i = 0.45 ||x_i|| with k = 0.5: no term
                # cancels; near 1e154 some offsets of a point overflow when
                # squared and others do not, and either may give the minimum
                xs = rng.uniform(-5, 5, (8, n)) * scale
                hs = make_hypersurface([(x, 0.45 * math.hypot(*x)) for x in xs.tolist()], 0.5, 1.0)
                pts = np.concatenate([rng.uniform(-1, 1, (10, n)) * s
                                      for s in (1.0, 1e100, 1e154, 1e160, 1e200, 1e300)])
                got = hs.heights(pts).tolist()
                for x, h in zip(pts.tolist(), got):
                    assert math.isfinite(h)
                    worst = max(worst, _ulps(h, _exact_height(hs, x)))
                    assert hs.height(x) == h
    assert worst <= 2, worst


def _first_violation(anchors, k):
    """Pair-loop reference for the Lipschitz check."""
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            (xi, hi), (xj, hj) = anchors[i], anchors[j]
            if abs(hi - hj) > k * distance(xi, xj):
                return i, j
    return None


def test_lipschitz_check_matches_pair_loop():
    rng = np.random.default_rng(43)
    planted = 0
    for trial in range(60):
        n = trial % 4
        hs = random_surface(trial, n=n, kc=0.8, anchors=int(rng.integers(2, 15)))
        anchors = list(hs.anchors)
        for m in rng.choice(len(anchors), int(rng.integers(0, 3)), replace=False):
            x, h = anchors[m]
            anchors[m] = (x, h + float(rng.choice([-1, 1])) * float(rng.uniform(0, 8)))
        want = _first_violation(anchors, hs.modulus)
        if want is None:
            assert make_hypersurface(anchors, hs.modulus, hs.c).anchors == tuple(anchors)
            continue
        planted += 1
        with pytest.raises(ValueError) as exc:
            make_hypersurface(anchors, hs.modulus, hs.c)
        assert str(exc.value) == f"anchors {want[0]} and {want[1]} violate the Lipschitz bound"
    assert planted >= 20
    # exactly on the bound is allowed; one ulp over is not
    on_bound = [((0.0,), 0.0), ((2.0,), 1.0), ((4.0,), 2.0), ((3.0,), 1.5)]
    make_hypersurface(on_bound, 0.5, 1.0)
    over = on_bound[:3] + [((3.0,), math.nextafter(1.5, 2.0))]
    assert _first_violation(over, 0.5) == (0, 3)
    with pytest.raises(ValueError, match=r"^anchors 0 and 3 violate the Lipschitz bound$"):
        make_hypersurface(over, 0.5, 1.0)


def test_lipschitz_check_finds_first_violation_past_the_first_tile():
    # more anchors than one row tile holds: the check scans row tiles of
    # the upper triangle in order and must still name the first pair
    n = math.isqrt(TILE_CELLS) + 44
    rows = TILE_CELLS // n  # rows in one tile
    assert 1 < rows < n - 40
    for i in (rows - 1, rows, rows + 29):
        # a step of 0.6 at anchor i + 1 breaks k = 0.5 against i and i + 2 only
        anchors = [((float(j),), 0.6 if j == i + 1 else 0.0) for j in range(n)]
        assert _first_violation(anchors, 0.5) == (i, i + 1)
        msg = rf"^anchors {i} and {i + 1} violate the Lipschitz bound$"
        with pytest.raises(ValueError, match=msg):
            make_hypersurface(anchors, 0.5, 1.0)


def test_lipschitz_check_matches_a_fraction_oracle_up_to_1e308():
    # coordinates of one sign up to 1e308, so every offset and height step
    # is finite while squared offsets past about 1.3e154 overflow; the
    # check takes those distances scaled, as heights does
    rng = np.random.default_rng(61)
    checked = overflowing = 0
    for trial in range(400):
        n = 1 + trial % 3
        scale = 10.0 ** rng.uniform(0, 308)
        xs = (rng.uniform(0, 1, (2, n)) * scale).tolist()
        d = [Fraction(q) - Fraction(p) for p, q in zip(*xs)]
        # heights 0 and rho * 0.5 ||d||, rho on either side of 1
        rho = float(rng.choice([-1, 1]) * rng.uniform(0.5, 1.5))
        h = rho * 0.5 * _far_distance(xs[0], xs[1])
        step, bound = Fraction(h) ** 2, Fraction(1, 4) * sum(v * v for v in d)
        if abs(step - bound) <= bound / 2**40:  # too near the bound for float rounding
            continue
        checked += 1
        overflowing += distance(xs[0], xs[1]) == math.inf
        anchors = [(xs[0], 0.0), (xs[1], h)]
        if step > bound:
            with pytest.raises(ValueError, match=r"^anchors 0 and 1 violate the Lipschitz bound$"):
                make_hypersurface(anchors, 0.5, 1.0)
        else:
            make_hypersurface(anchors, 0.5, 1.0)
    assert checked > 350 and overflowing > 50, (checked, overflowing)
    # sums of squares that overflow also in a tile of three anchors
    with pytest.raises(ValueError, match=r"^anchors 0 and 2 violate the Lipschitz bound$"):
        make_hypersurface([((1e308, 0.0), 0.0), ((0.0, 0.0), 0.0), ((0.0, 1e308), 1e308)],
                          0.5, 1.0)
    make_hypersurface([((1e308, 0.0), 0.0), ((0.0, 0.0), 0.0), ((0.0, 1e308), 5e307)], 0.5, 1.0)


def test_lipschitz_check_matches_a_fraction_oracle_past_the_float_range():
    # anchors of opposite signs near +-1e308: the offset of x, its norm
    # and the height step may round to inf, where inf > k * inf would
    # pass any pair; squares compared exactly decide each pair
    refuse = r"^anchors 0 and 1 violate the Lipschitz bound$"
    with pytest.raises(ValueError, match=refuse):
        make_hypersurface([((1e308,), 1e308), ((-1e308,), -1e308)], 0.5, 1.0)
    make_hypersurface([((1e308,), 4e307), ((-1e308,), -4e307)], 0.5, 1.0)
    rng = np.random.default_rng(67)
    checked = refused = overflowing = 0
    for trial in range(300):
        n = 1 + trial % 3
        xs = rng.uniform(0.3, 1.7, (2, n)) * 1e308 * [[1.0], [-1.0]]
        d = [Fraction(q) - Fraction(p) for p, q in zip(*xs.tolist())]
        # heights +-h, h = rho * k ||d|| / 2 for k = 0.5, rho on either side of 1
        h = float(rng.uniform(0.5, 1.5)) * 0.5 * math.hypot(*(xs[0] / 2 - xs[1] / 2))
        if h > 1.7e308:
            continue
        step, bound = (2 * Fraction(h)) ** 2, Fraction(1, 4) * sum(v * v for v in d)
        if abs(step - bound) <= bound / 2**40:  # too near the bound for float rounding
            continue
        checked += 1
        overflowing += 2 * h == math.inf or distance(*xs.tolist()) == math.inf
        anchors = [(xs[0].tolist(), h), (xs[1].tolist(), -h)]
        if step > bound:
            refused += 1
            with pytest.raises(ValueError, match=refuse):
                make_hypersurface(anchors, 0.5, 1.0)
        else:
            make_hypersurface(anchors, 0.5, 1.0)
    assert checked > 200 and overflowing == checked and 50 < refused < checked - 50, (
        checked, overflowing, refused)


def test_surfaces_compare_and_hash_by_anchors():
    a = random_surface(5, anchors=8)
    b = random_surface(5, anchors=8)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != random_surface(6, anchors=8)
    assert a == Hypersurface(a.anchors, a.modulus, a.c)
    for arr in (a._axes, a._hs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert a._axes.shape == (8, 2) and a._hs.shape == (8,)
    assert make_hypersurface([((), 1.0), ((), 1.0)], 0.5, 1.0)._axes.shape == (2, 0)


def test_anchors_must_exist_and_share_one_dimension():
    with pytest.raises(ValueError, match=r"^need at least one anchor$"):
        make_hypersurface([], 0.5, 1.0)
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 1$"):
        make_hypersurface([((0.0,), 0.0), ((1.0, 2.0), 0.0)], 0.5, 1.0)


def test_inconsistent_anchors_rejected_with_indices():
    with pytest.raises(ValueError, match="anchors 0 and 1"):
        make_hypersurface([((0.0,), 0.0), ((1.0,), 10.0)], 0.5, 1.0)


def test_modulus_margin_enforced():
    with pytest.raises(ValueError):
        make_hypersurface([((0.0,), 0.0)], 1.0, 1.0)  # k*c = 1
    with pytest.raises(ValueError):
        make_hypersurface([((0.0,), 0.0)], 0.0, 1.0)
    make_hypersurface([((0.0,), 0.0)], 0.999, 1.0)


def test_height_is_k_lipschitz():
    hs = random_surface(7)
    rng = np.random.default_rng(8)
    for _ in range(300):
        a = tuple(float(v) for v in rng.uniform(-8, 8, 2))
        b = tuple(float(v) for v in rng.uniform(-8, 8, 2))
        lhs = abs(hs.height(a) - hs.height(b))
        assert lhs <= hs.modulus * math.dist(a, b) + 1e-12


# ------------------------------------------------------- grading and levels

def test_grading_frozen_examples():
    g = Grading(cone_surface())
    assert g.value(event(3.0, 3.0, 4.0)) == 0.5
    assert g.value(cone_surface().graph_event((3.0, 4.0))) == 0.0
    assert g.level_contains(0.5, event(3.0, 3.0, 4.0))
    assert not g.level_contains(0.0, event(3.0, 3.0, 4.0))
    assert g.level_contains(0.0, event(3.0, 3.0, 4.0), tol=1.0)


def test_flat_surface_grading_is_time():
    flat = make_hypersurface([((0.0,), 0.0)], 1e-9, 1.0)
    g = Grading(flat)
    assert g.value(event(4.0, 0.0)) == 4.0


def test_level_contains_rejects_tolerances_that_are_not_finite_and_non_negative():
    g, e = Grading(cone_surface()), event(3.0, 3.0, 4.0)
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match=rf"^tol must be finite and >= 0, got {tol!r}$"):
            g.level_contains(0.5, e, tol)


def test_level_contains_own_value():
    hs = random_surface(12)
    g = Grading(hs)
    rng = np.random.default_rng(13)
    for _ in range(100):
        e = Event(float(rng.uniform(-5, 5)), tuple(float(v) for v in rng.uniform(-5, 5, 2)))
        assert g.level_contains(g.value(e), e, tol=0.0)


# --------------------------------------------------------------- antichains

def test_graph_samples_are_antichains():
    rng = np.random.default_rng(5)
    for seed, kc in ((0, 0.3), (1, 0.6), (2, 0.9)):
        hs = random_surface(seed, kc=kc)
        pts = [tuple(float(v) for v in rng.uniform(-6, 6, 2)) for _ in range(40)]
        assert is_antichain_sample(hs, pts)


def test_antichain_sample_single_point_and_duplicates():
    hs = cone_surface()
    assert is_antichain_sample(hs, [(1.0, 1.0)])
    assert is_antichain_sample(hs, [(1.0, 1.0), (1.0, 1.0)])  # dedupe, not a clash


def test_non_strict_graph_has_lightlike_pairs():
    # h(x) = x with c = 1 is not constructible as a Hypersurface; check
    # directly that its graph contains causally related pairs
    a = event(0.0, 0.0)
    b = event(1.0, 1.0)
    assert classify_pair(a, b, 1.0) is PairClass.LIGHTLIKE_FORWARD


# ---------------------------------------------------------------- crossings

def test_crossing_frozen_examples():
    flat = make_hypersurface([((0.0,), 0.0)], 1e-12, 1.0)
    static0 = make_polyline([(-5.0, (0.0,)), (5.0, (0.0,))], 1.0)
    assert abs(crossing_time(flat, static0)) <= 2e-9

    cone1 = make_hypersurface([((0.0,), 0.0)], 0.5, 1.0)
    static2 = make_polyline([(-5.0, (2.0,)), (5.0, (2.0,))], 1.0)
    assert abs(crossing_time(cone1, static2) - 1.0) <= 2e-9

    ramp = make_hypersurface([((-10.0,), -5.0), ((10.0,), 5.0)], 0.5, 1.0)
    mover = make_polyline([(-4.0, (-1.0,)), (4.0, (3.0,))], 1.0)  # f(t) = t/2 + 1
    assert abs(crossing_time(ramp, mover) - 2.0 / 3.0) <= 2e-9


def test_crossing_residual_contract():
    hs = random_surface(3, kc=0.9)
    wl = make_polyline([(-20.0, (0.3, -0.2)), (0.0, (1.0, 1.0)), (20.0, (-2.0, 0.5))], 1.0)
    t_star = crossing_time(hs, wl)
    phi = t_star - hs.height(wl.eval(t_star))
    assert abs(phi) <= 1e-9


def test_crossing_outside_window_raises():
    hs = cone_surface()
    wl = make_polyline([(50.0, (0.0, 0.0)), (60.0, (1.0, 0.0))], 1.0)
    with pytest.raises(ValueError, match="no crossing"):
        crossing_time(hs, wl)


def test_crossing_rejects_mismatched_speed_budget():
    # surface strictness is relative to the world line's own c
    hs = make_hypersurface([((0.0,), 0.0)], 0.5, 1.0)
    fast = make_polyline([(-5.0, (0.0,)), (5.0, (20.0,))], 4.0)  # k*c_wl = 2
    with pytest.raises(ValueError):
        crossing_time(hs, fast)


def test_crossing_rejects_bad_tolerance():
    # a usage error, not a failed bisection
    hs = make_hypersurface([((0.0,), 0.0)], 0.5, 1.0)
    wl = make_polyline([(-5.0, (2.0,)), (5.0, (2.0,))], 1.0)
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            crossing_time(hs, wl, tol=tol)
    assert abs(crossing_time(hs, wl, tol=0.0) - 1.0) <= 2e-9


def _bisect_to_adjacent_doubles(hs, wl):
    """Reference crossing: bisect phi over the window until the bracket
    is two adjacent doubles, and return its upper end."""
    def phi(t):
        return t - hs.height(wl.eval(t))

    lo, hi = wl.window
    assert phi(lo) < 0 <= phi(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if phi(mid) < 0:
            lo = mid
        else:
            hi = mid


def _boxed_worldline(rng, n, count=6, c=1.0):
    """Window [-30, 30], positions clipped to [-10, 10]^n, speeds up to c:
    random_surface heights stay inside (-30, 30) there, so the crossing
    is in the window."""
    times = np.sort(rng.uniform(-30.0, 30.0, count - 2))
    times = np.concatenate(([-30.0], times, [30.0]))
    x = rng.uniform(-10.0, 10.0, n)
    verts = [(-30.0, tuple(float(v) for v in x))]
    for t_prev, t in zip(times, times[1:]):
        step = rng.standard_normal(n)
        norm = float(np.linalg.norm(step)) or 1.0
        x = np.clip(x + step / norm * float(rng.uniform(0, 1)) * c * (t - t_prev), -10, 10)
        verts.append((float(t), tuple(float(v) for v in x)))
    return make_polyline(verts, c)


def _assert_closed_form(hs, wl):
    t_star = crossing_time(hs, wl)
    assert abs(t_star - _bisect_to_adjacent_doubles(hs, wl)) <= CROSSING_TOL / (
        1.0 - hs.modulus * wl.c
    )
    assert abs(t_star - hs.height(wl.eval(t_star))) <= 1e-13
    return t_star


def test_crossing_matches_reference_bisection():
    rng = np.random.default_rng(61)
    for n in range(4):
        for seed in range(12):
            kc = (0.3, 0.6, 0.9)[seed % 3]
            hs = random_surface(600 + 20 * n + seed, n=n, kc=kc, anchors=int(rng.integers(1, 30)))
            _assert_closed_form(hs, _boxed_worldline(rng, n, count=int(rng.integers(2, 12))))


def test_crossing_at_an_interior_vertex_is_exact():
    cone1 = make_hypersurface([((0.0,), 0.0)], 0.5, 1.0)
    wl = make_polyline([(-5.0, (2.0,)), (1.0, (2.0,)), (5.0, (3.0,))], 1.0)
    assert crossing_time(cone1, wl) == 1.0
    assert crossing_time(cone1, wl, tol=0.0) == 1.0


def test_crossing_on_a_light_speed_segment():
    # k*c = 0.9: a = 1 - k^2 |v|^2 = 0.19 on the light-speed stretch
    one = make_hypersurface([((0.0,), -15.0)], 0.9, 1.0)
    wl = make_polyline([(-30.0, (-10.0,)), (-20.0, (-10.0,)), (0.0, (10.0,)), (30.0, (10.0,))], 1.0)
    assert -20.0 < _assert_closed_form(one, wl) < 0.0
    tilted = make_hypersurface([((0.0, 3.0), -35.0), ((4.0, -2.0), -31.0)], 0.9, 1.0)
    wl = make_polyline([(-30.0, (-10.0, -5.0)), (-20.0, (-4.0, 3.0)), (0.0, (8.0, 19.0))], 1.0)
    assert wl.light_segments()
    assert -30.0 < _assert_closed_form(tilted, wl) < -20.0
    on_light = 0
    for seed in range(12):
        hs = random_surface(700 + seed, n=2, kc=0.9, anchors=8)
        wl = make_polyline([(-30.0, (-10.0, 0.0)), (-10.0, (-10.0, 0.0)),
                            (10.0, (10.0, 0.0)), (30.0, (10.0, 0.0))], 1.0)
        on_light += -10.0 < _assert_closed_form(hs, wl) < 10.0
    assert on_light >= 4


def test_crossing_within_tol_of_a_window_end_returns_that_end():
    cone1 = make_hypersurface([((0.0,), 0.0)], 0.5, 1.0)  # crosses x = 2 at t = 1
    late = make_polyline([(1.0 + 5e-10, (2.0,)), (5.0, (2.0,))], 1.0)
    assert crossing_time(cone1, late) == 1.0 + 5e-10
    early = make_polyline([(-5.0, (2.0,)), (1.0 - 5e-10, (2.0,))], 1.0)
    assert crossing_time(cone1, early) == 1.0 - 5e-10
    # the residual of an end, or of an inner root, is the grading there
    for wl in (late, early, make_polyline([(-5.0, (2.0,)), (5.0, (2.0,))], 1.0)):
        t_star, residual = _crossing(cone1, wl, CROSSING_TOL)
        assert t_star == crossing_time(cone1, wl) and type(residual) is float
        assert residual.hex() == (t_star - cone1.height(wl.eval(t_star))).hex()
    assert _crossing(cone1, late, CROSSING_TOL)[1] != 0.0
    for t0, t1 in ((1.0 + 2e-9, 5.0), (-5.0, 1.0 - 2e-9)):
        with pytest.raises(ValueError, match="no crossing"):
            crossing_time(cone1, make_polyline([(t0, (2.0,)), (t1, (2.0,))], 1.0))


def test_crossing_rejects_segment_past_the_margin():
    # k*c < 1, but the line's speed tolerance lets one segment reach k*|v| > 1
    k = 1.0 / (1.0 + 2e-10)
    hs = make_hypersurface([((0.0,), 0.0)], k, 1.0)
    wl = make_polyline([(-5.0, (0.0,)), (-4.0, (1.0 + 5e-10,)), (5.0, (1.0 + 5e-10,))], 1.0)
    with pytest.raises(ValueError, match=r"^world line speed bound breaks the k\*c < 1 margin$"):
        crossing_time(hs, wl)


def test_crossing_nan_residual_raises(monkeypatch):
    hs = cone_surface(k=0.5)
    wl = make_polyline([(-5.0, (2.0, 0.0)), (5.0, (2.0, 0.0))], 1.0)
    monkeypatch.setattr(Hypersurface, "height", lambda self, x: math.nan)
    with pytest.raises(RuntimeError, match="residual nan"):
        crossing_time(hs, wl)


def test_grading_monotone_along_worldlines():
    hs = random_surface(21, kc=0.9)
    g = Grading(hs)
    rng = np.random.default_rng(22)
    for seed in range(5):
        verts = [(-10.0, (0.0, 0.0))]
        t, x = -10.0, np.zeros(2)
        for _ in range(4):
            dt = float(rng.uniform(0.5, 3.0))
            step = rng.uniform(-1, 1, 2)
            norm = float(np.linalg.norm(step)) or 1.0
            x = x + step / norm * dt * float(rng.uniform(0, 1))
            t += dt
            verts.append((t, tuple(float(v) for v in x)))
        wl = make_polyline(verts, 1.0)
        ts = [float(s) for s in np.linspace(*wl.window, 50)]
        assert grading_monotone_on(g, wl, ts)


def test_grading_monotone_rejects_unsorted_samples():
    hs = cone_surface()
    wl = make_polyline([(-1.0, (0.0, 0.0)), (1.0, (0.5, 0.0))], 1.0)
    with pytest.raises(ValueError):
        grading_monotone_on(Grading(hs), wl, [0.5, 0.0])


def test_grading_monotone_rejects_times_outside_the_window_through_eval():
    wl = make_polyline([(-1.0, (0.0, 0.0)), (1.0, (0.5, 0.0))], 1.0)
    with pytest.raises(ValueError, match=r"^time 1\.5 outside window \[-1\.0, 1\.0\]$"):
        grading_monotone_on(Grading(cone_surface()), wl, [0.0, 1.5])
