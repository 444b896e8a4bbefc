"""Translation-invariant cone orders and their black-box classification.

An order invariant under translations, spatial isometries, and
dilations is induced by membership of v - u in a fixed cone.  The
closed speed-c cone gives the causal order, its interior (plus the
apex) the subluminal one, and the open upper half-space (plus the apex)
the temporal order.  classify_cone recovers the family, orientation,
and speed of an unknown membership oracle from finitely many probes.

Closedness cannot be decided topologically from finitely many samples;
it is operationalized by one exact probe at the estimated boundary
speed.  The bisection runs on a dyadic bracket,
so any exactly representable boundary speed is probed exactly and the
convention gives the right answer for cleanly specified cones.
Sampled events come from order._box_events, as finite.sprinkle's do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .order import (Direction, Event, OrderKind, _box_events, _check_box, _require_dim,
                    _require_positive, _strictly_before, apply_dilation, distance)

DEFAULT_PROBE_SPAN = 8.0


class ConeKind(Enum):
    CAUSAL = "causal"
    SUBLUMINAL = "subluminal"
    TEMPORAL = "temporal"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConeOracle:
    """Black-box cone membership plus the box probes may range over
    (space axes first, time axis last)."""

    membership: Callable[[Event], bool]
    dimension: int
    probe_box: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probe_box", _check_box(self.dimension, self.probe_box))


@dataclass(frozen=True)
class ConeEvidence:
    probes: int
    bracket: tuple[float, float] | None = None
    boundary_member: bool | None = None
    witness: str | None = None


@dataclass(frozen=True)
class ConeClass:
    kind: ConeKind
    direction: Direction | None
    c_estimate: float | None
    evidence: ConeEvidence

    def __post_init__(self) -> None:
        has_c = self.c_estimate is not None
        needs_c = self.kind in (ConeKind.CAUSAL, ConeKind.SUBLUMINAL)
        if has_c != needs_c:
            raise ValueError("c_estimate is present exactly for causal/subluminal")


def _neg(e: Event) -> Event:
    return Event(-e.t, [-v for v in e.x])


def standard_cone(
    kind: OrderKind, direction: Direction, c: float, n: int
) -> ConeOracle:
    """Reference oracle for the three families at speed c in dimension n."""
    _require_positive(c, "c")
    box = _check_box(n, ((-DEFAULT_PROBE_SPAN, DEFAULT_PROBE_SPAN),) * (n + 1))

    apex = Event(0.0, (0.0,) * n)

    def fwd(e: Event) -> bool:
        _require_dim(e.n, n)
        return _strictly_before(kind, c, apex, e) or e == apex

    member = fwd if direction is Direction.FORWARD else (lambda e: fwd(_neg(e)))
    return ConeOracle(member, n, box)


def affine_cone(base: ConeOracle, matrix) -> ConeOracle:
    """Wrap an oracle with a linear map of (x, t); handy for building
    deliberately non-invariant membership predicates."""
    m = np.asarray(matrix, dtype=float)
    n = base.dimension
    if m.shape != (n + 1, n + 1):
        raise ValueError(f"matrix must have shape ({n + 1}, {n + 1})")

    def member(e: Event) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):  # Event rejects what is not finite
            *x, t = (m @ np.array(list(e.x) + [e.t])).tolist()
        return base.membership(Event(t, x))

    return ConeOracle(member, n, base.probe_box)


def cone_order_leq(oracle: ConeOracle, u: Event, v: Event) -> bool:
    """u <= v in the order induced by the cone: membership of v - u."""
    _require_dim(u.n, oracle.dimension)
    _require_dim(v.n, oracle.dimension)
    diff = Event(v.t - u.t, [b - a for a, b in zip(u.x, v.x)])
    return bool(oracle.membership(diff))


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    checks: int
    counterexample: str | None = None


def check_invariance(
    oracle: ConeOracle, n_samples: int = 200, seed: int = 0
) -> InvarianceReport:
    """Spot-check the symmetries a cone order must have: membership
    invariance under spatial isometries and dilations, and order-level
    invariance under spatial translations.  Each sample draws a Gaussian
    matrix, a factor and a shift, in that order; one stacked QR makes
    the rotations (Mezzadri 2007)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = oracle.dimension
    events = _box_events(rng, oracle.probe_box, n_samples)
    gauss = np.empty((n_samples, n, n))
    draws = []
    for g in gauss:
        rng.standard_normal(out=g)
        draws.append((float(rng.uniform(0.1, 10.0)),
                      tuple(rng.uniform(a, b) for a, b in oracle.probe_box[:n])))
    q, r = np.linalg.qr(gauss)
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    checks = 0

    def fail(why: str) -> InvarianceReport:
        return InvarianceReport(False, checks, why)

    for i, (e, (factor, shift)) in enumerate(zip(events, draws)):
        member = oracle.membership(e)
        if n > 0:
            rot = Event(e.t, (q[i] @ np.asarray(e.x)).tolist())
            checks += 1
            if oracle.membership(rot) != member:
                return fail(f"rotation broke membership at {e} (rotated to {rot})")
        checks += 1
        if oracle.membership(apply_dilation(factor, e)) != member:
            return fail(f"dilation by {factor!r} broke membership at {e}")
        if i + 1 < len(events):
            u, v = e, events[i + 1]
            su = Event(u.t, [a + d for a, d in zip(u.x, shift)])
            sv = Event(v.t, [a + d for a, d in zip(v.x, shift)])
            checks += 1
            if cone_order_leq(oracle, u, v) != cone_order_leq(oracle, su, sv):
                return fail(f"translation by {shift} broke the order at ({u}, {v})")
    return InvarianceReport(True, checks)


def _next_pow2(x: float) -> float:
    if x <= 0:
        raise ValueError("need a positive bound")
    m, e = math.frexp(x)
    return float(2.0 ** (e - 1)) if m == 0.5 else float(2.0**e)


def _significand_bits(f: float) -> int:
    m, _ = math.frexp(abs(f))
    mi = int(m * 2**53)
    return 53 - ((mi & -mi).bit_length() - 1)


def classify_cone(oracle: ConeOracle, seed: int = 0) -> ConeClass:
    """Identify the family, orientation, and speed of a cone oracle.

    Steps: orient via the pure-time probes (0, +-1); bisect the member
    speed at |t| = 1 along one axis (rotation invariance makes one ray
    representative) over a power-of-two bracket; membership at the
    bracket's top means the speed exceeds what the probe box can
    distinguish from the temporal family.  One exact boundary probe at
    the estimated speed settles causal (member) versus subluminal
    (non-member).  Membership that fails the doubling law v in C =>
    2v in C on sampled points yields kind=unknown with a witness, as does
    an oracle with no member off the time axis, whose speed 0 no OrderSpec
    can hold.

    With n = 0 all three families describe the same set; reported as
    temporal.  The bisection halves its dyadic bracket [0, 2^k] at most
    k + 1074 times, so a classification takes at most k + 1153 probes.
    """
    n = oracle.dimension
    count = 0

    def member(e: Event) -> bool:
        nonlocal count
        count += 1
        return bool(oracle.membership(e))

    direction: Direction | None = None
    bracket: tuple[float, float] | None = None

    def unknown(witness: str) -> ConeClass:
        """The one non-cone verdict, with the evidence gathered so far."""
        return ConeClass(ConeKind.UNKNOWN, direction, None,
                         ConeEvidence(count, bracket=bracket, witness=witness))

    zero = Event(0.0, tuple(0.0 for _ in range(n)))
    if not member(zero):
        return unknown("origin is not a member")
    up = member(Event(1.0, zero.x))
    down = member(Event(-1.0, zero.x))
    if up == down:
        return unknown(f"{'both' if up else 'neither'} of (0, +1) and (0, -1) are members")
    direction = Direction.FORWARD if up else Direction.BACKWARD
    sgn = 1.0 if up else -1.0
    # Dilation spot-check on the established member.
    if not member(Event(2.0 * sgn, zero.x)):
        return unknown("(0, t) member but (0, 2t) is not")
    if n == 0:
        return ConeClass(ConeKind.TEMPORAL, direction, None, ConeEvidence(count))

    def axis_event(speed: float) -> Event:
        return Event(sgn, (speed,) + zero.x[1:])

    corner = [max(abs(lo), abs(hi)) for lo, hi in oracle.probe_box[:n]]
    bound = _next_pow2(distance(zero.x, corner))
    if member(axis_event(bound)):
        return ConeClass(ConeKind.TEMPORAL, direction, None, ConeEvidence(count))
    lo_s, hi_s = 0.0, bound
    while True:  # at most k + 1074 halvings: the midpoint then rounds to an end
        mid = 0.5 * (lo_s + hi_s)
        if mid == lo_s or mid == hi_s:
            break
        if member(axis_event(mid)):
            lo_s = mid
        else:
            hi_s = mid
    bracket = (lo_s, hi_s)
    if lo_s == 0.0:  # not even the smallest positive speed is a member
        return unknown("no member lies off the time axis")
    # The boundary speed is one of the bracket ends; prefer the cleaner
    # dyadic, which is the exact speed whenever one was specified.
    c_hat = lo_s if _significand_bits(lo_s) < _significand_bits(hi_s) else hi_s
    if not member(apply_dilation(2.0, axis_event(lo_s))):
        return unknown(f"member at speed {lo_s!r} fails doubling")
    boundary = member(axis_event(c_hat))
    # A cone is closed under doubling; spot-check sampled members.
    # Doubling is exact in binary floats, so honest oracles never trip this.
    found = 0
    for v in _box_events(np.random.default_rng(seed), oracle.probe_box, 64):
        if found >= 8:
            break
        if not member(v):
            continue
        found += 1
        if not member(apply_dilation(2.0, v)):
            return unknown(f"member {v} fails doubling")
    kind = ConeKind.CAUSAL if boundary else ConeKind.SUBLUMINAL
    return ConeClass(
        kind,
        direction,
        float(c_hat),
        ConeEvidence(count, bracket=bracket, boundary_member=boundary),
    )
