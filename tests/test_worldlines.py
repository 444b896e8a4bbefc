"""World lines: Lipschitz validation, chain probes, light segments,
optical gaps, and the two-ray counterexample chain."""

import math

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
    classify_pair,
    comparable,
    event,
    leq,
)
from causalorder.worldlines import (
    GapWorldLine,
    KeptEnd,
    LightSegment,
    Ray,
    canonical_gap_chain,
    is_subluminal_chain_probe,
    make_gap_worldline,
    make_polyline,
)

CAUSAL = OrderSpec(OrderKind.CAUSAL, 1.0)
SUBLUMINAL = OrderSpec(OrderKind.SUBLUMINAL, 1.0)
TEMPORAL = OrderSpec(OrderKind.TEMPORAL, 1.0)


def zigzag(seed: int, n: int = 1, c: float = 1.0, verts: int = 6, top_speed: float = 1.0):
    """Random valid polyline; speeds bounded by top_speed * c."""
    rng = np.random.default_rng(seed)
    t = 0.0
    x = rng.uniform(-1, 1, n)
    out = [(t, tuple(float(v) for v in x))]
    for _ in range(verts - 1):
        dt = float(rng.uniform(0.2, 1.5))
        speed = float(rng.uniform(0.0, top_speed)) * c
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        t += dt
        x = x + speed * dt * direction
        out.append((t, tuple(float(v) for v in x)))
    return make_polyline(out, c)


# ------------------------------------------------------------ construction

def test_polyline_accepts_light_speed_and_static():
    make_polyline([(0.0, (0.0,)), (1.0, (1.0,))], 1.0)
    make_polyline([(0.0, (0.0,)), (5.0, (0.0,))], 0.25)


def test_polyline_rejects_superluminal_segment():
    with pytest.raises(ValueError, match="segment 0"):
        make_polyline([(0.0, (0.0,)), (1.0, (2.0,))], 1.0)


def test_polyline_rejects_non_increasing_times():
    with pytest.raises(ValueError):
        make_polyline([(0.0, (0.0,)), (0.0, (0.0,))], 1.0)
    with pytest.raises(ValueError):
        make_polyline([(1.0, (0.0,)), (0.0, (0.0,))], 1.0)


def test_polyline_rejects_motion_over_an_overflowing_time_span():
    # t1 - t0 = inf: (t - t0) / (t1 - t0) is 0 inside the window, so the
    # line would sit at x0 until t1; a static segment is exact
    with pytest.raises(ValueError, match=r"^segment 1 moves over a time span beyond the float"):
        make_polyline([(-1.5e308, (0.0,)), (-1e308, (0.0,)), (1e308, (1e308,))], 1.0)
    wl = make_polyline([(-1e308, (2.0,)), (1e308, (2.0,))], 1.0)
    assert wl.eval(0.0) == (2.0,)


def test_polyline_needs_two_vertices_of_one_dimension():
    with pytest.raises(ValueError, match=r"^a world line needs at least 2 vertices$"):
        make_polyline([(0.0, (0.0,))], 1.0)
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 1$"):
        make_polyline([(0.0, (0.0,)), (1.0, (0.0, 0.0))], 1.0)


def test_eval_interpolates():
    wl = make_polyline([(0.0, (0.0,)), (2.0, (2.0,)), (4.0, (2.0,))], 1.0)
    assert wl.eval(1.0) == (1.0,)
    assert wl.eval(2.0) == (2.0,)
    assert wl.eval(3.0) == (2.0,)
    assert wl.window == (0.0, 4.0)
    with pytest.raises(ValueError):
        wl.eval(4.5)


# ------------------------------------------------------------ chain probes

def test_any_polyline_is_a_causal_chain():
    for seed in range(10):
        wl = zigzag(seed, n=2)
        ts = np.linspace(*wl.window, 60)
        assert wl.is_chain(CAUSAL, [float(t) for t in ts])


def test_is_chain_rejects_times_outside_the_window_through_eval():
    wl = make_polyline([(0.0, (0.0,)), (2.0, (1.0,))], 1.0)
    with pytest.raises(ValueError, match=r"^time -0\.5 outside window \[0\.0, 2\.0\]$"):
        wl.is_chain(CAUSAL, [0.0, -0.5])


def test_light_segment_breaks_subluminal_chain():
    wl = make_polyline([(0.0, (0.0,)), (1.0, (1.0,)), (2.0, (1.0,))], 1.0)
    assert wl.is_chain(CAUSAL, [0.0, 0.5, 1.0, 2.0])
    assert not wl.is_chain(SUBLUMINAL, [0.0, 0.5, 1.0, 2.0])
    assert wl.is_chain(SUBLUMINAL, [1.5])  # single sample


def test_extend_probe_on_and_off_line():
    wl = make_polyline([(0.0, (0.0,)), (2.0, (1.0,))], 1.0)
    assert wl.extend_probe(wl.event_at(1.3), CAUSAL)
    assert not wl.extend_probe(event(1.0, 0.5 + 1e-6), CAUSAL)  # same-time offset
    with pytest.raises(ValueError):
        wl.extend_probe(event(9.0, 0.0), CAUSAL)


def test_window_relative_maximality_probe():
    # off-line probes with in-window times always collide with the
    # same-time point of the line
    wl = zigzag(4, n=1)
    rng = np.random.default_rng(11)
    t0, t1 = wl.window
    for _ in range(300):
        t = float(rng.uniform(t0, t1))
        p = Event(t, (wl.eval(t)[0] + float(rng.uniform(0.01, 5.0)) * (1 if rng.uniform() < 0.5 else -1),))
        assert not wl.extend_probe(p, CAUSAL)


# ----------------------------------------------------------- light segments

def test_light_segments_frozen_examples():
    wl = make_polyline([(-2.0, (0.0,)), (0.0, (0.0,)), (1.0, (1.0,)), (3.0, (1.0,))], 1.0)
    segs = wl.light_segments()
    assert len(segs) == 1
    assert (segs[0].t_start, segs[0].t_end, segs[0].direction) == (0.0, 1.0, (1.0,))

    merged = make_polyline([(0.0, (0.0,)), (1.0, (1.0,)), (2.0, (2.0,))], 1.0)
    segs = merged.light_segments()
    assert [(s.t_start, s.t_end) for s in segs] == [(0.0, 2.0)]

    slow = make_polyline([(0.0, (0.0,)), (1.0, (0.5,))], 1.0)
    assert slow.light_segments() == ()


def test_light_segments_stable_under_refinement():
    base = make_polyline([(-1.0, (0.2,)), (0.0, (0.0,)), (2.0, (2.0,)), (3.0, (2.5,))], 1.0)
    refined = make_polyline(
        [(-1.0, (0.2,)), (0.0, (0.0,)), (0.5, (0.5,)), (2.0, (2.0,)), (3.0, (2.5,))], 1.0
    )
    assert base.light_segments() == refined.light_segments()


def test_opposite_light_directions_do_not_merge():
    wl = make_polyline([(0.5, (0.3,)), (1.0, (0.0,)), (2.0, (1.0,)), (3.0, (0.0,)), (3.5, (0.2,))], 1.0)
    segs = wl.light_segments()
    assert [(s.t_start, s.t_end, s.direction) for s in segs] == [
        (1.0, 2.0, (1.0,)),
        (2.0, 3.0, (-1.0,)),
    ]


# ------------------------------------------------------------- optical gaps

def _gapped():
    wl = make_polyline(
        [(-1.0, (0.5,)), (0.0, (0.0,)), (1.0, (1.0,)), (3.0, (1.0,)), (4.0, (0.0,)), (5.0, (0.3,))],
        1.0,
    )
    return wl, make_gap_worldline(wl, [KeptEnd.LOWER, KeptEnd.UPPER])


def test_gap_worldline_point_set():
    _, gwl = _gapped()
    assert gwl.contains(event(0.0, 0.0))        # kept lower end
    assert not gwl.contains(event(1.0, 1.0))    # removed upper end
    assert not gwl.contains(event(0.5, 0.5))    # interior
    assert gwl.contains(event(4.0, 0.0))        # kept upper end of gap 2
    assert not gwl.contains(event(3.0, 1.0))
    assert gwl.contains(event(2.0, 1.0))        # untouched stretch


def test_gap_worldline_without_light_segments_is_the_line():
    wl = zigzag(2, n=1, top_speed=0.7)
    gwl = make_gap_worldline(wl, [])
    ts = np.linspace(*wl.window, 40)
    assert all(gwl.contains(wl.event_at(float(t))) for t in ts)


def test_gap_rejects_boundary_touch_and_wrong_count():
    light = make_polyline([(0.0, (0.0,)), (1.0, (1.0,)), (2.0, (1.0,))], 1.0)
    with pytest.raises(ValueError, match="boundary"):
        make_gap_worldline(light, [KeptEnd.LOWER])
    wl, _ = _gapped()
    with pytest.raises(ValueError, match="expected 2"):
        make_gap_worldline(wl, [KeptEnd.LOWER])


def test_gap_kept_ends_must_be_kept_end_members():
    light = make_polyline([(0.0, (0.0,)), (1.0, (0.0,)), (2.0, (1.0,)), (3.0, (1.0,))], 1.0)
    assert make_gap_worldline(light, [KeptEnd.LOWER]).gaps[0].kept_end is KeptEnd.LOWER
    with pytest.raises(ValueError, match=r"^kept end must be a KeptEnd or None, got 'lower'$"):
        make_gap_worldline(light, ["lower"])


def test_gap_contains_rejects_tolerances_that_are_not_finite_and_non_negative():
    _, gwl = _gapped()
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match=rf"^tol must be finite and >= 0, got {tol!r}$"):
            gwl.contains(event(0.0, 0.0), tol)


def test_gap_rejects_shared_endpoints():
    # bounce at exact light speed: segments [1,2] and [2,3] share t=2
    wl = make_polyline(
        [(0.0, (0.1,)), (1.0, (0.0,)), (2.0, (1.0,)), (3.0, (0.0,)), (4.0, (0.1,))], 1.0
    )
    with pytest.raises(ValueError, match="share an endpoint"):
        make_gap_worldline(wl, [KeptEnd.LOWER, KeptEnd.LOWER])


def test_gap_pieces_reject_empty_segments_spans_and_sets():
    with pytest.raises(ValueError, match=r"^light segment needs t_start < t_end$"):
        LightSegment(1.0, 1.0, (1.0,))
    with pytest.raises(ValueError, match=r"^span must be \+1 or -1$"):
        Ray(0.0, (0.0,), 0)
    with pytest.raises(ValueError, match=r"^need a base world line or at least one ray$"):
        GapWorldLine(c=1.0, base=None, gaps=())


def test_time_image_reports_gap_spans():
    _, gwl = _gapped()
    spans = gwl.time_image()
    as_tuples = [(s.lo, s.hi, s.lo_closed, s.hi_closed) for s in spans]
    # gap 2 keeps its upper endpoint, so t=3 (its lower end) is absent
    assert as_tuples == [
        (-1.0, 0.0, True, True),
        (1.0, 3.0, False, False),
        (4.0, 5.0, True, True),
    ]
    assert [[s.contains(t) for t in (-1.0, 0.0, 1.0, 2.0, 3.0, 5.0, math.nan)] for s in spans] == [
        [True, True, False, False, False, False, False],
        [False, False, False, True, False, False, False],
        [False, False, False, False, False, True, False],
    ]


def test_gapped_line_is_a_subluminal_chain():
    _, gwl = _gapped()
    events = gwl.sample_events(per_branch=50)
    for i, a in enumerate(events):
        for b in events[i + 1 :]:
            assert leq(SUBLUMINAL, a, b) or leq(SUBLUMINAL, b, a), (a, b)


def test_probe_own_points_and_removed_endpoint():
    wl, gwl = _gapped()
    assert is_subluminal_chain_probe(gwl, event(2.0, 1.0))
    assert is_subluminal_chain_probe(gwl, event(0.0, 0.0))
    # the removed endpoint extends the causal chain but not the
    # subluminal one: it is lightlike to the kept endpoint
    removed = event(1.0, 1.0)
    assert not is_subluminal_chain_probe(gwl, removed)
    assert classify_pair(event(0.0, 0.0), removed, 1.0) is PairClass.LIGHTLIKE_FORWARD
    # same time as a chain point, different position
    assert not is_subluminal_chain_probe(gwl, event(2.0, 0.5))
    # the pieces built with the line are no field: equality and hashing ignore them
    fresh = make_gap_worldline(wl, [KeptEnd.LOWER, KeptEnd.UPPER])
    assert gwl == fresh and hash(gwl) == hash(fresh)


# ------------------------------------------------------- canonical gap chain

def test_canonical_chain_point_set_frozen():
    gwl = canonical_gap_chain(event(0.0, 0.0, 0.0), (1.0, 0.0), 1.0, 1.0)
    assert not gwl.contains(event(0.0, 0.0, 0.0))   # origin excluded
    assert not gwl.contains(event(1.0, 1.0, 0.0))   # upper endpoint excluded
    assert not gwl.contains(event(0.5, 0.5, 0.0))   # segment interior
    assert gwl.contains(event(-0.3, 0.0, 0.0))      # lower ray
    assert gwl.contains(event(7.0, 1.0, 0.0))       # upper ray
    assert not gwl.contains(event(2.0, 0.0, 0.0))   # lower ray does not go up
    spans = gwl.time_image()
    assert [(s.lo, s.hi, s.lo_closed, s.hi_closed) for s in spans] == [
        (-math.inf, 0.0, False, False),
        (1.0, math.inf, False, False),
    ]
    # open at the infinite ends too, and no span holds NaN
    times = (-math.inf, -1e308, 1e308, math.inf, math.nan)
    assert [[s.contains(t) for t in times] for s in spans] == [
        [False, True, False, False, False],
        [False, False, True, False, False],
    ]
    assert gwl._branches(math.nan) == []


def test_canonical_chain_refuses_anchors_the_cone_test_cannot_relate():
    # the cone test squares the anchors' offset of 1e200 to inf
    with pytest.raises(ValueError, match=r"^chain anchors too far apart for the cone test$"):
        canonical_gap_chain(event(0.0, 0.0), (1.0,), 1e200, 1.0)
    # at x = 1 (ulp 2.2e-16) rounding moves a hop of 1e-15 by about a tenth
    # of itself, far beyond the 2**39 ulps of t_len a push can add
    with pytest.raises(ValueError, match=r"^t_len 1e-15 is lost in the rounding of origin "):
        canonical_gap_chain(event(0.0, 1.0), (1.0,), 1e-15, 1.0)
    gwl = canonical_gap_chain(event(0.0, 0.0), (1.0,), 1e154, 1.0)
    assert [ray.anchor_t for ray in gwl.rays] == [0.0, 1e154]


def test_canonical_chain_requires_unit_direction():
    with pytest.raises(ValueError):
        canonical_gap_chain(event(0.0, 0.0, 0.0), (1.0, 1.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        canonical_gap_chain(event(0.0, 0.0, 0.0), (1.0, 0.0), 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^light direction must have unit norm, got nan$"):
        canonical_gap_chain(event(0.0, 0.0, 0.0), (math.nan, 0.0), 1.0, 1.0)


def test_canonical_chain_points_are_timelike_to_origin():
    origin = event(0.25, -1.0, 2.0)
    gwl = canonical_gap_chain(origin, (0.6, 0.8), 2.0, 1.5)
    for p in gwl.sample_events(per_branch=80, reach=40.0):
        assert classify_pair(origin, p, 1.5) in (
            PairClass.TIMELIKE_FORWARD,
            PairClass.TIMELIKE_BACKWARD,
        )


def test_canonical_chain_is_subluminal_chain():
    gwl = canonical_gap_chain(event(0.0, 0.0), (1.0,), 1.0, 1.0)
    events = gwl.sample_events(per_branch=60, reach=30.0)
    spec = OrderSpec(OrderKind.SUBLUMINAL, 1.0)
    for i, a in enumerate(events):
        for b in events[i + 1 :]:
            assert leq(spec, a, b) or leq(spec, b, a)


def test_canonical_chain_samples_stay_inside_the_rays_near_1e14():
    # offsets of 1e-3 round onto the open anchors at t = 1e14 (an ulp is
    # 1/64 there); such a sample moves one ulp inside its ray
    gwl = canonical_gap_chain(event(1e14, 0.0), (1.0,), 1.0, 1.0)
    events = gwl.sample_events()
    assert len(events) == 2 * 43
    assert all(gwl.contains(p) for p in events)
    assert min(abs(p.t - 1e14) for p in events) == 1e14 - math.nextafter(1e14, 0.0)


def test_canonical_chain_rejects_a_hop_lost_in_rounding():
    # at t = 1e14 an ulp is 1/64, so a hop of 1e-3 leaves the time where
    # it was; the error names t_len and that resolution
    for orientation in Direction:
        with pytest.raises(ValueError) as exc:
            canonical_gap_chain(event(1e14, 0.0), (1.0,), 1e-3, 1.0, orientation)
        msg = str(exc.value)
        assert "t_len 0.001" in msg and f"math.ulp(origin.t) = {math.ulp(1e14)!r}" in msg
    # one ulp of hop is enough
    gwl = canonical_gap_chain(event(1e14, 0.0), (1.0,), math.ulp(1e14), 1.0)
    assert gwl.rays[1].anchor_t > 1e14


def test_canonical_chain_backward_orientation_mirrors():
    fwd = canonical_gap_chain(event(0.0, 0.0), (1.0,), 1.0, 1.0)
    bwd = canonical_gap_chain(event(0.0, 0.0), (1.0,), 1.0, 1.0, orientation=Direction.BACKWARD)
    f = [(s.lo, s.hi) for s in fwd.time_image()]
    b = [(s.lo, s.hi) for s in bwd.time_image()]
    assert f == [(-math.inf, 0.0), (1.0, math.inf)]
    assert b == [(-math.inf, -1.0), (0.0, math.inf)]
    assert bwd.contains(event(0.5, 0.0))
    assert not bwd.contains(event(-1.0, -1.0))  # displaced endpoint excluded


def test_canonical_chain_anchors_are_causally_related():
    # a generic light direction puts the rounded far end of the hop an
    # ulp outside origin's light cone about half of the time; its time
    # then moves out by a few ulps, so the two rays form a chain
    rng = np.random.default_rng(3)
    moved = 0
    for i in range(300):
        n = 1 + i % 3
        origin = Event(float(rng.uniform(-5, 5)), tuple(rng.uniform(-5, 5, n).tolist()))
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        t_len, c = float(rng.uniform(0.1, 3.0)), float(rng.choice([0.3, 1.0, 2.0]))
        sign = 1.0 if i % 2 else -1.0
        orientation = Direction.FORWARD if i % 2 else Direction.BACKWARD
        gwl = canonical_gap_chain(origin, tuple(d.tolist()), t_len, c, orientation)
        below, above = sorted(gwl.rays, key=lambda ray: ray.span)
        assert leq(OrderSpec(OrderKind.CAUSAL, c), Event(below.anchor_t, below.anchor_x),
                   Event(above.anchor_t, above.anchor_x))
        far = next(ray for ray in gwl.rays if ray.anchor_t != origin.t)
        seg = gwl.gaps[0].segment
        assert {seg.t_start, seg.t_end} == {origin.t, far.anchor_t}
        assert 0.0 <= sign * (far.anchor_t - (origin.t + sign * t_len)) <= 1e-13
        moved += far.anchor_t != origin.t + sign * t_len
    assert moved > 0


def test_canonical_chain_probe_rejects_outsiders():
    gwl = canonical_gap_chain(event(0.0, 0.0, 0.0), (1.0, 0.0), 1.0, 1.0)
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(400):
        p = Event(float(rng.uniform(-4, 5)), (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))))
        if gwl.contains(p, tol=1e-12):
            continue
        if is_subluminal_chain_probe(gwl, p):
            hits += 1
    assert hits == 0


def test_canonical_chain_probe_accepts_own_points():
    gwl = canonical_gap_chain(event(0.0, 0.0), (1.0,), 1.0, 1.0)
    assert is_subluminal_chain_probe(gwl, event(-2.0, 0.0))
    assert is_subluminal_chain_probe(gwl, event(1.5, 1.0))


def test_canonical_chain_extension_set_is_the_removed_segment():
    # any single point of the removed closed light segment is timelike to
    # both rays and so extends the chain; two distinct segment points are
    # mutually lightlike, so at most one can ever join.  Off-segment
    # probes never extend (see the randomized test above).
    gwl = canonical_gap_chain(event(0.0, 0.0), (1.0,), 1.0, 1.0)
    seg_pts = [event(r, r) for r in (0.0, 0.25, 1.0)]
    for p in seg_pts:
        assert not gwl.contains(p)
        assert is_subluminal_chain_probe(gwl, p)
    for i, a in enumerate(seg_pts):
        for b in seg_pts[i + 1 :]:
            assert classify_pair(a, b, 1.0) is PairClass.LIGHTLIKE_FORWARD


# ------------------------------------------------ probes on the exact line

def generic_light_polyline(seed: int):
    """Segments alternating between 0.3c and exactly c (c = 1) in random
    directions, 1-3 space dimensions, slow at both ends.  Returns the
    line and the time ranges of its light-speed segments.  Unlike the
    dyadic, axis-aligned light stretches of criterion 4, the rounded
    points of these lie an ulp off each other's light cones."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    t, x = float(rng.uniform(-1, 1)), rng.uniform(-1, 1, n)
    verts = [(t, tuple(float(v) for v in x))]
    light = []
    for i in range(2 * int(rng.integers(1, 4)) + 1):
        dt = float(rng.uniform(0.2, 1.5))
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        x = x + (1.0 if i % 2 else 0.3) * dt * direction
        if i % 2:
            light.append((t, t + dt))
        t += dt
        verts.append((t, tuple(float(v) for v in x)))
    return make_polyline(verts, 1.0), light


def test_probes_accept_every_point_of_generic_light_speed_lines():
    for seed in range(200):
        wl, light = generic_light_polyline(seed)
        assert [(s.t_start, s.t_end) for s in wl.light_segments()] == light
        rng = np.random.default_rng(seed)
        times = [t for t, _ in wl.vertices] + [float(t) for t in rng.uniform(*wl.window, 7)]
        for t in times:
            p = wl.event_at(t)
            assert wl.extend_probe(p, CAUSAL) and wl.extend_probe(p, TEMPORAL), (seed, t)
            in_run = any(lo <= t <= hi for lo, hi in light)
            assert wl.extend_probe(p, SUBLUMINAL) is not in_run, (seed, t)
        kept = [KeptEnd.LOWER if k else KeptEnd.UPPER for k in rng.integers(0, 2, len(light))]
        gwl = make_gap_worldline(wl, kept)
        points = gwl.sample_events() + [
            wl.event_at(t) for t in times if gwl.contains(wl.event_at(t))
        ]
        for q in points:
            assert gwl.contains(q)
            assert is_subluminal_chain_probe(gwl, q), (seed, q)


def _sampled_extend_probe(wl, grid, p, spec):
    """The sampled probe the closed form replaced: p against the line at
    its own time, then at the grid times: every vertex and 33 times
    across the window."""
    return all(comparable(spec, p, wl.event_at(t)) for t in [p.t] + grid)


def _sampled_chain_probe(gwl, sample, p):
    """The sampled probe the closed form replaced: p against the set at
    its own time, then against a dense sample of the set."""
    spec = OrderSpec(OrderKind.SUBLUMINAL, gwl.c)
    own = [Event(p.t, x) for x in gwl._branches(p.t)]
    return all(comparable(spec, p, q) for q in own + sample)


def test_closed_form_probes_match_the_sampled_ones():
    from test_acceptance import DIMS, _on_removed_segment, _random_polyline

    # criterion 4's off-line probes
    for seed in range(100):
        wl = _random_polyline(seed, DIMS[seed % 3])
        grid = [t for t, _ in wl.vertices] + np.linspace(*wl.window, 33).tolist()
        rng = np.random.default_rng(50_000 + seed)
        for _ in range(1000):
            tp = float(rng.uniform(*wl.window))
            on_line = wl.eval(tp)
            p = Event(tp, tuple(float(v + rng.uniform(-5.0, 5.0)) for v in on_line))
            assert wl.extend_probe(p, CAUSAL) == _sampled_extend_probe(wl, grid, p, CAUSAL)

    # criterion 7's random and removed-segment probes
    origin = event(0.0, 0.0, 0.0)
    chain = canonical_gap_chain(origin, (1.0, 0.0), 1.0, 1.0)
    sample = chain.sample_events()
    rng = np.random.default_rng(0)
    probes = [
        Event(float(rng.uniform(-5.0, 6.0)),
              (float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0))))
        for _ in range(10_000)
    ]
    segment = [event(r, r, 0.0) for r in (0.0, 0.5, 1.0)]
    assert all(_on_removed_segment(p, origin, (1.0, 0.0), 1.0) for p in segment)
    for p in probes + segment:
        assert is_subluminal_chain_probe(chain, p) == _sampled_chain_probe(chain, sample, p), p

    # the kept-endpoint gap lines: _gapped() and criterion 7's
    crit7 = make_polyline([(-1.0, (0.5,)), (0.0, (0.0,)), (1.0, (1.0,)), (2.0, (1.0,))], 1.0)
    probes = [event(2.0, 1.0), event(2.0, 0.5), event(0.0, 0.0), event(1.0, 1.0)]
    for gwl in (_gapped()[1], make_gap_worldline(crit7, [KeptEnd.LOWER])):
        sample = gwl.sample_events()
        for p in probes:
            assert is_subluminal_chain_probe(gwl, p) == _sampled_chain_probe(gwl, sample, p), p
