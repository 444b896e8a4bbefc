"""Cone oracles: membership, order induction, invariance checks, and
black-box classification."""

import numpy as np
import pytest

from causalorder.cones import (
    ConeClass,
    ConeEvidence,
    ConeKind,
    ConeOracle,
    InvarianceReport,
    affine_cone,
    check_invariance,
    classify_cone,
    cone_order_leq,
    standard_cone,
)
from causalorder.order import (Direction, Event, OrderKind, OrderSpec, _box_events,
                               apply_dilation, distance, event, leq)


def test_standard_cone_frozen_memberships():
    causal = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, 2)
    assert causal.membership(event(1.0, 1.0, 0.0))       # boundary included
    sub = standard_cone(OrderKind.SUBLUMINAL, Direction.FORWARD, 1.0, 2)
    assert not sub.membership(event(1.0, 1.0, 0.0))      # open cone
    assert sub.membership(event(1.0, 0.5, 0.0))
    temp = standard_cone(OrderKind.TEMPORAL, Direction.FORWARD, 1.0, 2)
    assert temp.membership(event(1.0, 1e6, 0.0))
    for oracle in (causal, sub, temp):
        assert oracle.membership(event(0.0, 0.0, 0.0))   # reflexivity apex
    for kind in OrderKind:  # one rule for c, temporal included
        with pytest.raises(ValueError, match="^c must be positive and finite$"):
            standard_cone(kind, Direction.FORWARD, float("nan"), 2)


def test_cone_order_matches_leq():
    rng = np.random.default_rng(2)
    for kind in (OrderKind.CAUSAL, OrderKind.SUBLUMINAL, OrderKind.TEMPORAL):
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            oracle = standard_cone(kind, direction, 1.0, 2)
            spec = OrderSpec(kind, 1.0, direction)
            for _ in range(200):
                a, b = rng.uniform(-4, 4, (2, 3))
                u = Event(float(a[-1]), tuple(float(v) for v in a[:-1]))
                v = Event(float(b[-1]), tuple(float(v) for v in b[:-1]))
                assert cone_order_leq(oracle, u, v) == leq(spec, u, v)


def test_cone_order_dimension_check():
    oracle = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, 2)
    with pytest.raises(ValueError, match=r"^dimension mismatch: 1 vs 2$"):
        cone_order_leq(oracle, event(0.0, 0.0), event(1.0, 0.0))
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 1$"):
        standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, 1).membership(event(1, 0.5, 5))


def test_invariance_standard_cones_pass():
    for kind in (OrderKind.CAUSAL, OrderKind.SUBLUMINAL, OrderKind.TEMPORAL):
        rep = check_invariance(standard_cone(kind, Direction.FORWARD, 1.0, 2), 200, 1)
        assert rep.passed and rep.counterexample is None


def test_invariance_zero_space_dimensions():
    rep = check_invariance(standard_cone(OrderKind.TEMPORAL, Direction.FORWARD, 1.0, 0), 50, 0)
    assert rep.passed


def test_invariance_fails_anisotropic_with_witness():
    base = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, 2)
    stretched = affine_cone(base, [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rep = check_invariance(stretched, 300, 1)
    assert not rep.passed
    assert rep.counterexample


def test_invariance_reports_the_first_dilation_failure():
    # a ball is rotation invariant but not dilation invariant
    ball = ConeOracle(lambda e: sum(v * v for v in e.x) + e.t * e.t <= 25.0, 2,
                      ((-8.0, 8.0),) * 3)
    assert check_invariance(ball, 200, 0) == InvarianceReport(
        False,
        8,
        "dilation by 1.5238701954821423 broke membership at "
        "Event(t=0.6979998634467659, x=(1.7061724122748778, 3.6719449757439744))",
    )


def _per_sample_invariance(oracle, n_samples, seed):
    """check_invariance as it ran with one QR per sample, drawing each
    sample's matrix, factor and shift as its checks reach them: the
    reference for the stacked QR over the same draws."""
    rng = np.random.default_rng(seed)
    n = oracle.dimension
    events = _box_events(rng, oracle.probe_box, n_samples)
    checks = 0
    for i, e in enumerate(events):
        member = oracle.membership(e)
        if n > 0:
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            rot = Event(e.t, ((q * np.sign(np.diag(r))) @ np.asarray(e.x)).tolist())
            checks += 1
            if oracle.membership(rot) != member:
                return False, checks, f"rotation broke membership at {e} (rotated to {rot})"
        r = float(rng.uniform(0.1, 10.0))
        checks += 1
        if oracle.membership(apply_dilation(r, e)) != member:
            return False, checks, f"dilation by {r!r} broke membership at {e}"
        if i + 1 < len(events):
            u, v = e, events[i + 1]
            shift = tuple(rng.uniform(a, b) for a, b in oracle.probe_box[:n])
            su = Event(u.t, tuple(a + d for a, d in zip(u.x, shift)))
            sv = Event(v.t, tuple(a + d for a, d in zip(v.x, shift)))
            checks += 1
            if cone_order_leq(oracle, u, v) != cone_order_leq(oracle, su, sv):
                return False, checks, f"translation by {shift} broke the order at ({u}, {v})"
    return True, checks, None


def _flip(base, call):
    """base with the answer of its call-th membership query flipped."""
    calls = [0]

    def member(e):
        calls[0] += 1
        return base.membership(e) != (calls[0] == call)

    return ConeOracle(member, base.dimension, base.probe_box)


def _invariance_oracles(n):
    """Fresh oracles in n space dimensions: the three families both ways,
    two affine maps of the causal cone (a time shear and a stretch of the
    first axis, which fail a rotation check once n > 0), and the causal
    cone with its 1st, 2nd, 3rd or 19th answer flipped, which fails the
    first rotation, dilation or translation check that asks it."""
    causal = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, n)
    shear, stretch = np.eye(n + 1), np.eye(n + 1)
    shear[n, n] = 0.5
    shear[n, 0] += 1.0
    stretch[0, 0] = 3.0
    yield from (standard_cone(kind, direction, 0.75, n)
                for kind in OrderKind for direction in Direction)
    yield from (affine_cone(causal, m) for m in (shear, stretch))
    yield from (_flip(causal, call) for call in (1, 2, 3, 19))


def test_stacked_qr_keeps_the_per_sample_reports():
    reports = set()
    for n in range(4):
        for n_samples in (1, 2, 200):
            for seed in (0, 1, 7):
                got = [check_invariance(o, n_samples, seed) for o in _invariance_oracles(n)]
                want = [_per_sample_invariance(o, n_samples, seed)
                        for o in _invariance_oracles(n)]
                assert [(r.passed, r.checks, r.counterexample) for r in got] == want
                reports.update((r[0], (r[2] or "passed").split(" ")[0]) for r in want)
    assert reports == {(True, "passed"), (False, "rotation"), (False, "dilation"),
                       (False, "translation")}


def test_affine_identity_is_transparent():
    base = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, 2)
    wrapped = affine_cone(base, np.eye(3))
    result = classify_cone(wrapped, seed=3)
    assert result.kind is ConeKind.CAUSAL
    assert result.c_estimate == 1.0


def test_affine_shape_validation():
    base = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, 2)
    with pytest.raises(ValueError):
        affine_cone(base, np.eye(2))


def test_classify_recovers_all_families():
    for kind in (OrderKind.CAUSAL, OrderKind.SUBLUMINAL, OrderKind.TEMPORAL):
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            for c in (0.5, 2.0):
                oracle = standard_cone(kind, direction, c, 2)
                r = classify_cone(oracle, seed=5)
                assert r.kind.value == kind.value
                assert r.direction is direction
                if kind is OrderKind.TEMPORAL:
                    assert r.c_estimate is None
                else:
                    assert r.c_estimate == c  # dyadic speeds recovered exactly
                    assert r.evidence.boundary_member is (kind is OrderKind.CAUSAL)


def test_classify_c_estimate_within_tolerance_for_awkward_speed():
    c = 0.3  # not a dyadic rational
    oracle = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, c, 1)
    r = classify_cone(oracle, seed=0)
    assert abs(r.c_estimate - c) <= 0.01 * c


def test_classify_zero_space_dimension_is_temporal():
    for kind in (OrderKind.CAUSAL, OrderKind.TEMPORAL):
        r = classify_cone(standard_cone(kind, Direction.FORWARD, 1.0, 0), seed=1)
        assert r.kind is ConeKind.TEMPORAL


def test_classify_rejects_non_cones():
    def half_ball(e: Event) -> bool:
        if e.t == 0.0:
            return all(v == 0.0 for v in e.x)
        if e.t < 0.0:
            return False
        return sum(v * v for v in e.x) + e.t * e.t <= 9.0

    weird = ConeOracle(half_ball, 2, ((-8.0, 8.0), (-8.0, 8.0), (-8.0, 8.0)))
    r = classify_cone(weird, seed=3)
    assert r.kind is ConeKind.UNKNOWN
    assert "doubling" in r.evidence.witness


def test_classify_rejects_empty_origin():
    nothing = ConeOracle(lambda e: False, 1, ((-8.0, 8.0), (-8.0, 8.0)))
    r = classify_cone(nothing)
    assert r.kind is ConeKind.UNKNOWN
    assert "origin" in r.evidence.witness


def _causal_fwd(e: Event) -> bool:
    return e == Event(0.0, (0.0,) * e.n) or (e.t > 0 and distance([0.0] * e.n, e.x) <= e.t)


def _half_ball(e: Event) -> bool:
    return e == Event(0.0, (0.0,) * e.n) or (e.t > 0 and sum(v * v for v in e.x) + e.t * e.t <= 9.0)


def _time_axis(e: Event) -> bool:
    return e.t >= 0 and all(v == 0 for v in e.x)


BOX_1D = ((-8.0, 8.0), (-8.0, 8.0))
FWD, BWD = Direction.FORWARD, Direction.BACKWARD


@pytest.mark.parametrize("membership, seed, direction, probes, bracket, witness", [
    (lambda e: False, 0, None, 1, None, "origin is not a member"),
    (lambda e: True, 0, None, 3, None, "both of (0, +1) and (0, -1) are members"),
    (lambda e: e.t == 0.0 and e.x == (0.0,), 3, None, 3, None,
     "neither of (0, +1) and (0, -1) are members"),
    (lambda e: e.t == 0.0 or 0.0 < e.t <= 1.5, 0, FWD, 4, None,
     "(0, t) member but (0, 2t) is not"),
    (lambda e: e.t == 0.0 or -1.5 <= e.t < 0.0, 3, BWD, 4, None,
     "(0, t) member but (0, 2t) is not"),
    (_half_ball, 0, FWD, 60, (2.82842712474619, 2.8284271247461903),
     "member at speed 2.82842712474619 fails doubling"),
    # the axis probes never pass t = 2, so only a sampled member finds the cut
    (lambda e: _causal_fwd(e) and e.t <= 4.0, 0, FWD, 67, (1.0, 1.0000000000000002),
     "member Event(t=3.6719449757439744, x=(1.7061724122748778,)) fails doubling"),
    (lambda e: _causal_fwd(e) and e.t <= 4.0, 3, FWD, 83, (1.0, 1.0000000000000002),
     "member Event(t=3.868106881109286, x=(-3.229390549481204,)) fails doubling"),
    # the time axis's closed half-line: invariant, but its speed 0 is no cone's
    (_time_axis, 0, FWD, 1082, (0.0, 5e-324), "no member lies off the time axis"),
], ids=["origin", "both", "neither", "short-fwd", "short-bwd", "axis-doubling",
        "sampled-doubling-0", "sampled-doubling-3", "time-axis"])
def test_classify_unknown_exits(membership, seed, direction, probes, bracket, witness):
    r = classify_cone(ConeOracle(membership, 1, BOX_1D), seed=seed)
    assert r == ConeClass(ConeKind.UNKNOWN, direction, None,
                          ConeEvidence(probes, bracket=bracket, witness=witness))


def test_time_axis_oracle_passes_invariance():
    oracle = ConeOracle(_time_axis, 2, ((-8.0, 8.0),) * 3)
    assert check_invariance(oracle) == InvarianceReport(True, 599)


def test_classify_rejects_a_probe_box_whose_corner_distance_underflows():
    member = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, 1).membership
    with pytest.raises(ValueError, match=r"^need a positive bound$"):
        classify_cone(ConeOracle(member, 1, ((0.0, 5e-324), (-8.0, 8.0))))


def test_cone_class_requires_c_exactly_for_bounded_kinds():
    with pytest.raises(ValueError):
        ConeClass(ConeKind.CAUSAL, Direction.FORWARD, None, ConeEvidence(0))
    with pytest.raises(ValueError):
        ConeClass(ConeKind.TEMPORAL, Direction.FORWARD, 1.0, ConeEvidence(0))
