"""Exact order predicates on flat (n+1)-dimensional space-time.

An event is a point (t, x) with a time coordinate and an n-dimensional
spatial part, 0 <= n <= 8.  Three order families are supported, each
parameterized by a signal speed c > 0:

* causal      u precedes v when v is reachable from u at speed <= c,
* subluminal  reachable at speed strictly below c,
* temporal    comparability by the time coordinate alone.

All three are exposed as reflexive partial orders.  Predicates are pure
and exact over IEEE doubles; nothing here applies a tolerance unless the
caller passes one explicitly.

The strict cone test is written once, as the scalar _strictly_before
and the rectangular batched kernel _strict_block, which decides it for
an (m, k) block of event pairs from time and coordinate arrays with the
same operations in the same order.  The scalar comparison is
_cone_sign: one distance and one c*dt place a pair inside, on or
outside the cone, for _strictly_before and classify_pair alike.
Distances come from distance and its batched form _distances, whose
one-row case _point_distances serves Hypersurface.height.
finite.build fills its relation matrices, or their packed words, with
_strict_block tiles; _comparable_block (strict either way, or equal)
and _analytic_block (strict causal, or equal) answer the all-pairs
routes and agree cell for cell with the pair loops over comparable and
classify_pair.
Per-call routes read enum members from module constants: on Python
3.10 and 3.11 OrderKind.CAUSAL goes through the metaclass __getattr__,
and a member's hash runs the Python-level Enum.__hash__.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

MAX_SPACE_DIM = 8

ORTHOGONALITY_TOL = 1e-9


class OrderKind(Enum):
    CAUSAL = "causal"
    SUBLUMINAL = "subluminal"
    TEMPORAL = "temporal"


class Direction(Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"


class PairClass(Enum):
    EQUAL = "equal"
    TIMELIKE_FORWARD = "timelike-forward"
    LIGHTLIKE_FORWARD = "lightlike-forward"
    SPACELIKE = "spacelike"
    LIGHTLIKE_BACKWARD = "lightlike-backward"
    TIMELIKE_BACKWARD = "timelike-backward"


_CAUSAL, _TEMPORAL, _BACKWARD = OrderKind.CAUSAL, OrderKind.TEMPORAL, Direction.BACKWARD
_EQUAL, _SPACELIKE = PairClass.EQUAL, PairClass.SPACELIKE
_LIGHT, _TIME = PairClass.LIGHTLIKE_FORWARD, PairClass.TIMELIKE_FORWARD
# classify_pair's cone classes, by [sign][backward]
_CONE_CLASS = ((_LIGHT, PairClass.LIGHTLIKE_BACKWARD), (_TIME, PairClass.TIMELIKE_BACKWARD))


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """A space-time point: time coordinate plus spatial tuple.

    The constructor converts and checks once: t through float(), x, any
    iterable of numbers, into a tuple of floats; then at most
    MAX_SPACE_DIM space coordinates, then all of them finite.  Callers
    pass their coordinates as they have them, with no copy or cast."""

    t: float
    x: tuple[float, ...] = ()

    def __init__(self, t: float, x: Iterable[float] = ()) -> None:
        t = float(t)
        x = tuple(map(float, x))
        if len(x) > MAX_SPACE_DIM:
            raise ValueError(f"space dimension {len(x)} exceeds {MAX_SPACE_DIM}")
        if not math.isfinite(t) or not all(map(math.isfinite, x)):
            raise ValueError("event coordinates must be finite")
        _SET_T(self, t)
        _SET_X(self, x)

    @property
    def n(self) -> int:
        return len(self.x)


# slot descriptors of the class dataclass returns: one write, past frozen __setattr__
_SET_T, _SET_X = Event.t.__set__, Event.x.__set__


def event(t: float, *xs: float) -> Event:
    """Shorthand constructor: event(t, x1, ..., xn)."""
    return Event(t, xs)


@dataclass(frozen=True)
class OrderSpec:
    """Which order family to use, at which signal speed and orientation.

    c is ignored by the temporal order, yet checked as for the others
    (positive and finite), so every spec a file can hold reads back.
    The backward direction is the dual order: leq(u, v) becomes the
    forward relation evaluated on (v, u).
    """

    kind: OrderKind
    c: float = 1.0
    direction: Direction = Direction.FORWARD

    def __post_init__(self) -> None:
        _require_positive(self.c, "c")


def _require_positive(value: float, what: str) -> None:
    """The one check of a speed, modulus, factor or length named `what`."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be positive and finite")


def _require_tol(value: float, what: str = "tol") -> None:
    """The one check of a tolerance: finite and >= 0, so NaN fails."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")


def _require_dim(got: int, want: int) -> None:
    """The one check that two space dimensions agree."""
    if got != want:
        raise ValueError(f"dimension mismatch: {got} vs {want}")


def _check_box(dimension: int, box: Sequence) -> tuple[tuple[float, float], ...]:
    """The one check of a sampling box in a space dimension: the box as
    floats, once it has dimension + 1 axes (space then time), each with
    lo < hi and a finite width, which uniform draws need."""
    if not 0 <= dimension <= MAX_SPACE_DIM:
        raise ValueError(f"space dimension must be in [0, {MAX_SPACE_DIM}]")
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(box) != dimension + 1:
        raise ValueError(f"box needs {dimension + 1} axes (space then time), got {len(box)}")
    if not all(lo < hi and math.isfinite(hi - lo) for lo, hi in box):
        raise ValueError("box axes need lo < hi with finite hi - lo")
    return box


def _box_draw(rng: np.random.Generator, box: Sequence, count: int) -> np.ndarray:
    """The one uniform draw from a checked box (space axes first, time
    last): a (count, len(box)) block whose rows hold the bits of per-row
    draws."""
    lo, hi = np.array(box).T
    return rng.uniform(lo, hi, size=(count, len(box)))


def _box_events(rng: np.random.Generator, box: Sequence, count: int) -> list[Event]:
    """`count` uniform events from a checked box, as _box_draw draws them."""
    return [Event(r[-1], r[:-1]) for r in _box_draw(rng, box, count).tolist()]


def distance(a: Iterable[float], b: Iterable[float]) -> float:
    """Euclidean distance ||b - a||; a vector's norm is its distance
    from the origin.  Accumulation order is fixed (axis 0, 1, ...) and
    _distances follows it, so scalar and batched routes agree bit
    for bit."""
    s = 0.0
    for p, q in zip(a, b):
        d = q - p
        s += d * d
    return math.sqrt(s)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (m, k) matrix of ||b_j - a_i|| for an (m, n) array a and a
    (k, n) array b: distance batched, accumulating over axis 0, 1, ...
    with one sqrt at the end, so every cell equals distance(a_i, b_j)
    bit for bit (the first axis starts the sum, as 0.0 + d*d is d*d).
    Holds two (m, k) float64 arrays.  Overflow goes to inf, as in the
    scalar route: every caller holds np.errstate(over="ignore"), one per
    call of its own."""
    n = a.shape[1]
    if n == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    dist = np.subtract(b[None, :, 0], a[:, None, 0])
    np.multiply(dist, dist, out=dist)
    buf = None  # allocated by the first subtraction into it
    for axis in range(1, n):
        buf = np.subtract(b[None, :, axis], a[:, None, axis], out=buf)
        np.multiply(buf, buf, out=buf)
        np.add(dist, buf, out=dist)
    return np.sqrt(dist, out=dist)


def _point_distances(p: Sequence[float], cols: Sequence[np.ndarray]) -> np.ndarray:
    """The (k,) vector of ||b_j - p|| for one point p of n >= 1 floats
    and the n contiguous (k,) columns of a (k, n) array b: the one-row
    case of _distances, with its bits and no np.errstate."""
    dist = cols[0] - p[0]
    dist *= dist
    for axis in range(1, len(p)):
        d = cols[axis] - p[axis]
        d *= d
        dist += d
    return np.sqrt(dist, out=dist)


def _cone_sign(c: float, dt: float, a: Sequence[float], b: Sequence[float]) -> int:
    """Where the event (dt, b) lies from (0, a) against the speed-c cone,
    for dt > 0: 1 strictly inside (dist < c*dt), 0 on it (dist == c*dt),
    -1 outside.  One distance and one c*dt decide both cone orders: u < v
    is sign >= 0 causally and sign > 0 subluminally.  The scalar cone
    comparison is written here only."""
    dist = distance(a, b)
    cdt = c * dt
    return 1 if dist < cdt else 0 if dist <= cdt else -1


def _strictly_before(kind: OrderKind, c: float, u: Event, v: Event) -> bool:
    """The strict forward cone test, u < v: dt > 0 and dist <= c*dt
    (causal), dist < c*dt (subluminal), or dt > 0 alone (temporal).
    leq, reconstruct_causal_analytic and cones.standard_cone decide
    through it, and classify_pair through its _cone_sign; _strict_block
    is its batched form."""
    dt = v.t - u.t
    if not dt > 0.0:
        return False
    if kind is _TEMPORAL:
        return True
    sign = _cone_sign(c, dt, u.x, v.x)
    return sign >= 0 if kind is _CAUSAL else sign > 0


def _coordinates(events: Sequence[Event]) -> tuple[np.ndarray, np.ndarray]:
    """Times (m,) and spatial coordinates (m, n) of events that share
    one space dimension."""
    dim = events[0].n if events else 0
    try:
        xs = np.array([e.x for e in events], dtype=float).reshape(len(events), dim)
    except ValueError:  # ragged: name the first dimension that differs
        _require_dim(dim, next(e.n for e in events if e.n != dim))
        raise
    return np.array([e.t for e in events], dtype=float), xs


@np.errstate(over="ignore")  # overflow to inf, silently, as in the scalar route
def _strict_block(
    kind: OrderKind, c: float, ta: np.ndarray, xa: np.ndarray, tb: np.ndarray, xb: np.ndarray
) -> np.ndarray:
    """The rectangular batched kernel: the (m, k) block of
    _strictly_before(kind, c, a_i, b_j) for events a given as times ta
    (m,) and coordinates xa (m, n), and b as tb (k,) and xb (k, n).
    Same operations in the same order as the scalar test, so every cell
    is its verdict.  Works in place: at most three (m, k) float64 arrays
    are live (dt and the two inside _distances).

    In every kind dt > 0 is the first factor of a cell, so no cell with
    tb[j] <= ta[i] is True.  finite.build's word pass relies on this:
    in time order it never asks about a row against the columns before
    its 64-row word, whose events are no later than the row's."""
    dt = np.subtract(tb[None, :], ta[:, None])
    fwd = dt > 0.0
    if kind is not _TEMPORAL:
        dist = _distances(xa, xb)
        cdt = np.multiply(c, dt, out=dt)
        if kind is _CAUSAL:
            fwd &= dist <= cdt
        else:
            fwd &= dist < cdt
    return fwd


def _equal_block(ta: np.ndarray, xa: np.ndarray, tb: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """a_i == b_j for every i, j, by exact coordinate comparison, as
    Event equality decides it.  Never dist == 0: the squares underflow,
    so (0, 0) and (0, 1e-200) are at distance 0 yet distinct."""
    eq = ta[:, None] == tb[None, :]
    for axis in range(xa.shape[1]):
        eq &= xa[:, None, axis] == xb[None, :, axis]
    return eq


def _comparable_block(
    kind: OrderKind, c: float, ta: np.ndarray, xa: np.ndarray, tb: np.ndarray, xb: np.ndarray
) -> np.ndarray:
    """comparable(spec, a_i, b_j) for every i, j, as R(a, b) | R(b, a)^T
    | equal.  Comparability is symmetric in the direction of spec, so
    the block serves both directions."""
    return (
        _strict_block(kind, c, ta, xa, tb, xb)
        | _strict_block(kind, c, tb, xb, ta, xa).T
        | _equal_block(ta, xa, tb, xb)
    )


def _analytic_block(
    c: float, ta: np.ndarray, xa: np.ndarray, tb: np.ndarray, xb: np.ndarray
) -> np.ndarray:
    """reconstruct_causal_analytic(a_i, b_j, c) for every i, j: the
    strict causal block, or equal by exact coordinates."""
    return _strict_block(_CAUSAL, c, ta, xa, tb, xb) | _equal_block(ta, xa, tb, xb)


# Cells per row tile of the kernel routes: a tile's three float64
# temporaries (512 KiB each) fit a 2 MiB cache, and an all-pairs route
# stops after the first failing tile.
TILE_CELLS = 1 << 16


def _first_upper_hit(
    n: int, block: Callable[[int, int], np.ndarray]
) -> tuple[int, int] | None:
    """First pair (i, j), 0 <= i < j < n, in row-major order, at which
    block(i0, i1) is True; block returns the (i1 - i0, n - i0) boolean
    block of rows i0:i1 against columns i0:.  Row tiles hold at most
    max(TILE_CELLS, n) cells, and the scan stops at the first tile with
    a hit."""
    rows = max(1, TILE_CELLS // max(n, 1))
    for i0 in range(0, n, rows):
        hits = np.argwhere(np.triu(block(i0, min(i0 + rows, n)), 1))
        if len(hits):
            return i0 + int(hits[0, 0]), i0 + int(hits[0, 1])
    return None


def _all_comparable(kind: OrderKind, c: float, t: np.ndarray, xs: np.ndarray) -> bool:
    """Whether every pair of the events (t, xs) is comparable."""
    return _first_upper_hit(
        len(t), lambda i0, i1: ~_comparable_block(kind, c, t[i0:i1], xs[i0:i1], t[i0:], xs[i0:])
    ) is None


def classify_pair(u: Event, v: Event, c: float, eps: float = 0.0) -> PairClass:
    """Classify the ordered pair (u, v) relative to the speed-c cone.

    eps is a relative tolerance for the cone boundary: the pair counts
    as light-like when |dist - c*dt| <= eps * max(dist, c*dt).  The
    default 0 keeps the boundary comparison exact.  Pairs with equal
    times and distinct positions are always space-like.
    """
    _require_dim(len(u.x), len(v.x))
    _require_positive(c, "c")
    _require_tol(eps, "eps")
    if u == v:
        return _EQUAL
    backward = v.t < u.t
    if backward:
        u, v = v, u
    dt = v.t - u.t
    if not dt > 0.0:
        return _SPACELIKE
    sign = _cone_sign(c, dt, u.x, v.x)
    if sign and eps > 0.0:  # the explicit float band around the cone
        dist, cdt = distance(u.x, v.x), c * dt
        if abs(dist - cdt) <= eps * max(dist, cdt):
            sign = 0
    if sign < 0:
        return _SPACELIKE
    return _CONE_CLASS[sign][backward]


def strictly_below(spec: OrderSpec, u: Event, v: Event) -> bool:
    """Strict relation u < v under the given order spec."""
    if spec.direction is _BACKWARD:
        u, v = v, u
    _require_dim(len(u.x), len(v.x))
    return _strictly_before(spec.kind, spec.c, u, v)


def leq(spec: OrderSpec, u: Event, v: Event) -> bool:
    """Reflexive relation u <= v under the given order spec."""
    return strictly_below(spec, u, v) or u == v


def comparable(spec: OrderSpec, u: Event, v: Event) -> bool:
    return leq(spec, u, v) or leq(spec, v, u)


def pairwise_comparable(spec: OrderSpec, events: Iterable[Event]) -> bool:
    """True when every pair drawn from events is comparable under spec.
    Raises ValueError when the events do not share one space dimension."""
    return _all_comparable(spec.kind, spec.c, *_coordinates(list(events)))


def interval_is_chain(a: Event, b: Event, c: float) -> bool:
    """Whether the causal order interval [a, b] is totally ordered.

    The interval of a light-like pair is the straight segment joining
    the endpoints, hence a chain; a time-like interval contains
    incomparable pairs.  Requires a <= b causally.
    """
    cls = classify_pair(a, b, c)
    if cls is _EQUAL or cls is _LIGHT:
        return True
    if cls is _TIME:
        return False
    raise ValueError("endpoints must satisfy a <= b in the causal order")


def _interval_box(a: Event, b: Event, c: float) -> list[tuple[float, float]]:
    # Any p in [a, b] stays within c*dt of both endpoints, so this box
    # (space axes first, time last) covers the whole interval.
    pad = 0.5 * c * (b.t - a.t)
    box = [(min(xa, xb) - pad, max(xa, xb) + pad) for xa, xb in zip(a.x, b.x)] + [(a.t, b.t)]
    if not all(math.isfinite(hi - lo) for lo, hi in box):
        raise ValueError("the bounding box of the interval is not finite")
    return box


def interval_is_chain_sampled(
    a: Event, b: Event, c: float, samples: int = 1000, seed: int = 0
) -> bool:
    """Randomized oracle for interval_is_chain.

    Draws `samples` points uniformly from a bounding box of [a, b],
    keeps those inside the interval, and reports whether every pair of
    [a, *kept, b] is comparable.  Deterministic for a fixed seed.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    spec = OrderSpec(OrderKind.CAUSAL, c)
    if not leq(spec, a, b):
        raise ValueError("endpoints must satisfy a <= b in the causal order")
    if a == b:
        return True
    draws = _box_draw(np.random.default_rng(seed), _interval_box(a, b, c), samples)
    ts, ps = draws[:, -1], draws[:, :-1]
    t, xs = _coordinates([a, b])
    ta, xa, tb, xb = t[:1], xs[:1], t[1:], xs[1:]
    keep = _analytic_block(c, ta, xa, ts, ps)[0] & _analytic_block(c, ts, ps, tb, xb)[:, 0]
    return _all_comparable(
        OrderKind.CAUSAL, c, np.concatenate([ta, ts[keep], tb]), np.concatenate([xa, ps[keep], xb])
    )


def subluminal_via_weakening(a: Event, b: Event, c: float) -> bool:
    """Subluminal relation obtained by weakening the causal one: keep
    a <= b only when the interval [a, b] fails to be a chain (or the
    endpoints coincide).  Coincides with the strict-cone definition."""
    if not leq(OrderSpec(OrderKind.CAUSAL, c), a, b):
        return False
    if a == b:
        return True
    return not interval_is_chain(a, b, c)


def reconstruct_causal_analytic(u: Event, v: Event, c: float) -> bool:
    """Recover the causal relation from the subluminal one.

    u <= v causally iff u <= v subluminally already, or every event
    subluminally above v is subluminally above u.  The quantifier over
    all events collapses to a closed forward-cone membership test on
    v - u, which is evaluated here directly; the subluminal case is
    contained in that closed cone.  Agrees with leq(causal) on every
    pair.  _analytic_block is its batched form.
    """
    _require_dim(len(u.x), len(v.x))
    _require_positive(c, "c")
    return u == v or _strictly_before(_CAUSAL, c, u, v)


def reconstruct_causal_sampled(
    u: Event, v: Event, c: float, witnesses: Sequence[Event]
) -> bool:
    """Finite-witness version of reconstruct_causal_analytic.

    Checks the implication "v below w implies u below w" over the given
    witnesses only, skipping witnesses equal to u or v.  Never returns
    False for a truly related pair; unrelated pairs may slip through
    when no witness separates them.  Monotone in the witness set.
    """
    spec = OrderSpec(OrderKind.SUBLUMINAL, c)
    if leq(spec, u, v):
        return True
    for w in witnesses:
        if w == u or w == v:
            continue
        if leq(spec, v, w) and not leq(spec, u, w):
            return False
    return True


def apply_space_isometry(q, b, e: Event) -> Event:
    """Apply x -> Qx + b to the spatial part, leaving time unchanged.

    Q must be orthogonal within max|Q^T Q - I| <= 1e-9.
    """
    q = np.asarray(q, dtype=float)
    b = np.asarray(b, dtype=float)
    n = e.n
    if q.shape != (n, n):
        raise ValueError(f"Q must have shape ({n}, {n}), got {q.shape}")
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    if n > 0:
        err = np.max(np.abs(q.T @ q - np.eye(n)))
        if err > ORTHOGONALITY_TOL:
            raise ValueError(f"Q is not orthogonal (deviation {err:.3e})")
    return Event(e.t, (q @ np.asarray(e.x, dtype=float) + b).tolist())


def apply_dilation(r: float, e: Event) -> Event:
    """Scale the whole event by r > 0: (t, x) -> (r t, r x)."""
    _require_positive(r, "dilation factor")
    return Event(r * e.t, [r * v for v in e.x])
