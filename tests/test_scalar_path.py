"""The one-event-at-a-time routes: Event construction, classify_pair and
leq against a reference built from two _strictly_before calls, and
frozen check_invariance reports.  The one-point Hypersurface.height is
checked against heights in test_batched_routes."""

import copy
import dataclasses
import dis
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from causalorder.cones import ConeOracle, affine_cone, check_invariance, standard_cone
from causalorder.order import (
    Direction,
    Event,
    OrderKind,
    OrderSpec,
    PairClass,
    _analytic_block,
    _strict_block,
    _strictly_before,
    classify_pair,
    distance,
    event,
    interval_is_chain,
    leq,
    reconstruct_causal_analytic,
    strictly_below,
)

_MIRROR = {
    PairClass.TIMELIKE_FORWARD: PairClass.TIMELIKE_BACKWARD,
    PairClass.LIGHTLIKE_FORWARD: PairClass.LIGHTLIKE_BACKWARD,
}


def _reference_class(u, v, c, eps):
    """classify_pair as two _strictly_before calls decide it: causal,
    then subluminal, after the explicit float band for eps > 0."""
    if u == v:
        return PairClass.EQUAL
    backward = v.t < u.t
    if backward:
        u, v = v, u
    dt = v.t - u.t
    on_light = False
    if eps > 0.0 and dt > 0.0:
        dist, cdt = distance(u.x, v.x), c * dt
        on_light = abs(dist - cdt) <= eps * max(dist, cdt)
    if on_light:
        cls = PairClass.LIGHTLIKE_FORWARD
    elif _strictly_before(OrderKind.CAUSAL, c, u, v):
        timelike = _strictly_before(OrderKind.SUBLUMINAL, c, u, v)
        cls = PairClass.TIMELIKE_FORWARD if timelike else PairClass.LIGHTLIKE_FORWARD
    else:
        return PairClass.SPACELIKE
    return _MIRROR[cls] if backward else cls


def _float_before(kind, c, u, v):
    """The strict cone test written out in floats: dt > 0 and
    dist <= c*dt (causal) or dist < c*dt (subluminal)."""
    dt = v.t - u.t
    if not dt > 0.0:
        return False
    if kind is OrderKind.TEMPORAL:
        return True
    dist, cdt = distance(u.x, v.x), c * dt
    return dist <= cdt if kind is OrderKind.CAUSAL else dist < cdt


def _pairs(rng, n, c):
    """Uniform pairs, pairs on the speed-c cone with the later time moved
    by -1, 0 or +1 ulp, extreme magnitudes, equal times and equal
    events, each in both orders."""
    out = []
    for a, b in rng.uniform(-5, 5, (300, 2, n + 1)).tolist():
        out.append((Event(a[0], a[1:]), Event(b[0], b[1:])))
    for _ in range(200):
        start = rng.uniform(-5, 5, n + 1).tolist()
        span = float(rng.uniform(0.1, 5))
        step = rng.standard_normal(n) if n else np.zeros(0)
        step = (step / np.linalg.norm(step) * c * span).tolist() if n else []
        u = Event(start[0], start[1:])
        t = start[0] + span
        for shift in (-1, 0, 1):
            t_near = t if shift == 0 else math.nextafter(t, shift * math.inf)
            out.append((u, Event(t_near, [a + d for a, d in zip(start[1:], step)])))
    for scale in (1e-200, 1e-170, 1e150, 1e300, 1e308):
        for a, b in rng.uniform(-1, 1, (40, 2, n + 1)).tolist():
            out.append((Event(a[0] * scale, [v * scale for v in a[1:]]),
                        Event(b[0] * scale, [v * scale for v in b[1:]])))
    if n:
        pad = [0.0] * (n - 1)
        out += [(event(0, 0, *pad), event(1e300, 1e299, *pad)),
                (event(0, 0, *pad), event(1e308, 1e300, *pad)),
                (event(0, 0, *pad), event(1e-200, 1e-170, *pad)),
                (event(0, 0, *pad), event(0, 1e-200, *pad))]
    out += [(u, u) for u, _ in out[:20]]
    return out + [(v, u) for u, v in out]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_classify_pair_and_leq_match_two_strict_tests(n):
    rng = np.random.default_rng(400 + n)
    for c in (1.0, 0.7, 1.5):
        pairs = _pairs(rng, n, c)
        for u, v in pairs:
            for kind in OrderKind:
                assert _strictly_before(kind, c, u, v) == _float_before(kind, c, u, v)
                for direction in Direction:
                    a, b = (u, v) if direction is Direction.FORWARD else (v, u)
                    want = _float_before(kind, c, a, b) or u == v
                    assert leq(OrderSpec(kind, c, direction), u, v) == want
            for eps in (0.0, 1e-12, 1e-3):
                assert classify_pair(u, v, c, eps) is _reference_class(u, v, c, eps), (u, v, c, eps)
        classes = {classify_pair(u, v, c) for u, v in pairs}
        assert len(classes) == (6 if n else 3)  # every class; with n = 0, all are time-like


PER_CALL_ROUTES = [_strictly_before, strictly_below, leq, classify_pair, interval_is_chain,
                   reconstruct_causal_analytic, _strict_block, _analytic_block]


@pytest.mark.parametrize("route", PER_CALL_ROUTES, ids=lambda f: f.__name__)
def test_per_call_routes_read_no_enum_class(route):
    """The per-call routes compare against members bound to module
    constants: on Python 3.10 and 3.11 every OrderKind.CAUSAL-style read
    goes through the enum metaclass's __getattr__, which no profile
    shows.  So none of them loads an enum class as a global (_strict_block
    is read past its np.errstate wrapper)."""
    fn = inspect.unwrap(route)
    loaded = {i.argval for i in dis.get_instructions(fn) if i.opname == "LOAD_GLOBAL"}
    assert not loaded & {"OrderKind", "Direction", "PairClass"}, loaded


def _float_error(value):
    """float()'s own message for a value it rejects; its wording differs
    between Python versions."""
    try:
        float(value)
    except TypeError as exc:
        return str(exc)
    raise AssertionError(f"float({value!r}) did not fail")


# (positional arguments of Event, exception type, message): the checks
# and messages of the generator-expression constructor, for tuples,
# numpy arrays and numpy scalars alike
EVENT_ERRORS = [
    (("nan",), ValueError, "event coordinates must be finite"),
    ((0.0, (math.nan,)), ValueError, "event coordinates must be finite"),
    ((math.inf,), ValueError, "event coordinates must be finite"),
    ((0.0, (1.0, -math.inf)), ValueError, "event coordinates must be finite"),
    ((0.0, (0.0,) * 9), ValueError, "space dimension 9 exceeds 8"),
    ((0.0, (math.nan,) * 9), ValueError, "space dimension 9 exceeds 8"),
    (("a",), ValueError, "could not convert string to float: 'a'"),
    ((0.0, ("b",)), ValueError, "could not convert string to float: 'b'"),
    ((None,), TypeError, _float_error(None)),
    ((0.0, 5), TypeError, "'int' object is not iterable"),
    ((0.0, (None,)), TypeError, _float_error(None)),
    (([1.0],), TypeError, _float_error([1.0])),
    ((np.float64("nan"),), ValueError, "event coordinates must be finite"),
    ((0.0, np.array([1.0, np.inf])), ValueError, "event coordinates must be finite"),
    ((0.0, np.zeros(9)), ValueError, "space dimension 9 exceeds 8"),
    ((0.0, np.full(9, np.nan)), ValueError, "space dimension 9 exceeds 8"),
]


@pytest.mark.parametrize("args, exc, message", EVENT_ERRORS)
def test_event_errors_keep_type_and_message(args, exc, message):
    with pytest.raises(exc) as info:
        Event(*args)
    assert type(info.value) is exc and str(info.value) == message
    if not (len(args) == 2 and not isinstance(args[1], tuple)):
        t, *rest = args
        with pytest.raises(exc) as info:
            event(t, *(rest[0] if rest else ()))
        assert str(info.value) == message


def test_event_is_slotted_and_round_trips():
    e = Event(1, [2, -0.0, 3.5])
    assert (e.t, e.x) == (1.0, (2.0, -0.0, 3.5)) and type(e.x[0]) is float
    assert not hasattr(e, "__dict__") and Event.__match_args__ == ("t", "x")
    assert Event(t=1, x=[2]) == Event(1.0, (2.0,)) and Event(t=-1).x == ()
    # any iterable of numbers: each stored as a float, in a tuple
    for x in ((v for v in (2, -0.0, 3.5)), np.array([2, -0.0, 3.5]),
              [np.float64(2), np.float64(-0.0), np.float64(3.5)]):
        other = Event(np.float64(1), x)
        assert other == e and type(other.t) is float and type(other.x) is tuple
        assert all(type(v) is float for v in other.x) and math.copysign(1.0, other.x[1]) == -1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.t = 2.0  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.x = (1.0,)  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        del e.t
    # replace goes through the constructor, so it converts and checks
    assert dataclasses.replace(e, t=np.float64(4)) == Event(4.0, e.x)
    with pytest.raises(ValueError, match=r"^event coordinates must be finite$"):
        dataclasses.replace(e, t=math.nan)
    copies = [copy.copy(e), copy.deepcopy(e)]
    copies += [pickle.loads(pickle.dumps(e, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other == e and hash(other) == hash(e) and type(other) is Event
        assert math.copysign(1.0, other.x[1]) == -1.0
    assert copy.deepcopy({e: [e]}) == {e: [e]}
    assert repr(e) == "Event(t=1.0, x=(2.0, -0.0, 3.5))"


# check_invariance on the benchmark's cone zoo (2 space dimensions, 200
# samples, seed 0): the reports of the array-draw implementation
CONE_ZOO = [
    ("causal", "fwd", 1.0, None),
    ("causal", "bwd", 0.5, None),
    ("causal", "fwd", 2.0, None),
    ("subluminal", "fwd", 1.0, None),
    ("subluminal", "bwd", 0.75, None),
    ("subluminal", "fwd", 0.25, None),
    ("temporal", "fwd", None, None),
    ("temporal", "bwd", None, None),
    ("causal", "fwd", 4.0, ((1.0, 0.0, 0.0), (0.0, 4.0, 0.0), (0.0, 0.0, 1.0))),
    ("subluminal", "bwd", 2.0, ((1.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
]
ZOO_REPORTS = [(True, 599, None)] * 8 + [
    (False, 4, "rotation broke membership at Event(t=6.6040892364435475, "
     "x=(-7.7355578315435345, 5.012323827204359)) (rotated to Event(t=6.6040892364435475, "
     "x=(-1.4478982357868888, 9.103067384828053)))"),
    (False, 43, "rotation broke membership at Event(t=-1.7340959915494203, "
     "x=(1.5088004831951487, -2.593420391885868)) (rotated to Event(t=-1.7340959915494203, "
     "x=(-0.15216461656317873, 2.9965236786325486)))"),
]


def test_check_invariance_reports_on_the_cone_zoo():
    got = []
    for kind, direction, c, matrix in CONE_ZOO:
        oracle = standard_cone(OrderKind(kind), Direction(direction), c or 1.0, 2)
        if matrix is not None:
            oracle = affine_cone(oracle, matrix)
        r = check_invariance(oracle, 200, seed=0)
        got.append((r.passed, r.checks, r.counterexample))
    assert got[:8] == ZOO_REPORTS[:8]
    for (passed, checks, text), (want_passed, want_checks, want) in zip(got[8:], ZOO_REPORTS[8:]):
        # the drawn event is the generator's alone; the rotated one also
        # passes through LAPACK's QR, whose last bits may vary by BLAS build
        head, rotated = text.split(" (rotated to ")
        want_head, want_rotated = want.split(" (rotated to ")
        assert (passed, checks, head) == (want_passed, want_checks, want_head)
        assert _floats(rotated) == pytest.approx(_floats(want_rotated), rel=1e-12)


def _floats(text):
    return [float(v) for v in re.findall(r"-?\d+\.\d+(?:e[-+]\d+)?", text)]


def _flipped(n, call):
    """The causal cone, with the answer of its call-th membership query
    flipped: the 19th query is the first translation check's second."""
    base = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 1.0, n)
    calls = [0]

    def member(e):
        calls[0] += 1
        return base.membership(e) != (calls[0] == call)

    return ConeOracle(member, n, base.probe_box)


TRANSLATION_REPORTS = {
    (1, 19): (12, "translation by (-5.276701208324015,) broke the order at "
              "(Event(t=-1.4528138180934196, x=(5.243241501127068,)), "
              "Event(t=-7.559054188110906, x=(0.7934990027689519,)))"),
    (2, 19): (12, "translation by (6.447743879181587, -1.632856824104584) broke the order at "
              "(Event(t=-5.599003787114622, x=(2.5189282380094813, 0.996250604486848)), "
              "Event(t=-1.235445227677955, x=(-1.0779073471234053, 2.708756777192324)))"),
    (2, 755): (453, "translation by (5.168860469317412, -0.371647346655017) broke the order at "
               "(Event(t=-1.2296094635012782, x=(7.960971704506161, -7.4034719603164145)), "
               "Event(t=-3.521444055894049, x=(3.3206609089387147, 3.70693640873656)))"),
    (3, 19): (12, "translation by (-3.3262598990192433, -1.2496443140700588, "
              "-3.080749545593214) broke the order at (Event(t=7.3002760773775766, "
              "x=(-1.1099516733731551, 1.3887771430102518, 3.8054045966745633)), "
              "Event(t=-3.316468015800206, x=(-3.4527813800193368, 2.376755313277201, "
              "3.139455946722487)))"),
}


@pytest.mark.parametrize("n, call", list(TRANSLATION_REPORTS))
def test_check_invariance_translation_shifts_are_frozen(n, call):
    r = check_invariance(_flipped(n, call), 200, seed=n)
    assert (r.passed, r.checks, r.counterexample) == (False, *TRANSLATION_REPORTS[n, call])
