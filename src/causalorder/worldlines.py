"""Piecewise-linear world lines and their light-speed surgery.

A PolyWorldLine is the graph of a Lipschitz trajectory sampled at
vertices over a finite time window; every chord of such a line is
causally comparable, so the line is a chain of the causal order.
Removing the interior of each maximal light-speed stretch, together
with one of its two endpoints, produces a GapWorldLine: a chain of the
subluminal order with unreachable "optical gaps" in its time image.

The canonical two-ray chain built by canonical_gap_chain is the
degenerate extreme of that surgery: two static rays joined by a fully
removed light-speed segment.  Every point of it is strictly time-like
to the construction origin, so the chain misses every subluminal
antichain containing that origin, while its time image omits the whole
gap interval.

A PolyWorldLine takes one distance and one c*dt per segment, once, for
both its speed check and its merged light-speed runs; light_segments
returns those runs, so extend_probe, make_gap_worldline and
fileio.gap_worldline_from_file never rescan the line.

Extension probes are decided on the exact line, not on samples of it:
two distinct events at one time are incomparable in every order, so a
probe at a covered time must be the line's own point there.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .order import (Direction, Event, OrderKind, OrderSpec, _require_dim, _require_positive,
                    _require_tol, comparable, distance, leq, pairwise_comparable, strictly_below)

SPEED_REL_TOL = 1e-9
DIR_DOT_TOL = 1e-12


@dataclass(frozen=True)
class PolyWorldLine:
    """Piecewise-linear trajectory: vertices (t_i, x_i) with strictly
    increasing times, every segment at speed <= c (relative tolerance
    1e-9 on the speed bound)."""

    vertices: tuple[tuple[float, tuple[float, ...]], ...]
    c: float

    def __post_init__(self) -> None:
        _require_positive(self.c, "c")
        if len(self.vertices) < 2:
            raise ValueError("a world line needs at least 2 vertices")
        verts = []
        n = len(self.vertices[0][1])
        for t, x in self.vertices:
            e = Event(t, x)  # converts and validates finiteness
            _require_dim(e.n, n)
            verts.append((e.t, e.x))
        runs: list[LightSegment] = []
        for i, ((t0, x0), (t1, x1)) in enumerate(zip(verts, verts[1:])):
            dt = t1 - t0
            if dt <= 0:
                raise ValueError(f"vertex times must strictly increase (index {i + 1})")
            if dt == math.inf and x0 != x1:  # eval and its velocity would read it as static
                raise ValueError(f"segment {i} moves over a time span beyond the float range")
            dist, reach = distance(x0, x1), self.c * dt
            if dist > reach * (1.0 + SPEED_REL_TOL):
                raise ValueError(
                    f"segment {i} exceeds speed {self.c:g}: speed {dist / dt:.17g}"
                )
            if not (dist > 0.0 and abs(dist - reach) <= SPEED_REL_TOL * reach):
                continue
            d = tuple((b - a) / dist for a, b in zip(x0, x1))
            last = runs[-1] if runs else None
            if (last is not None and last.t_end == t0  # the previous segment, collinear
                    and sum(p * q for p, q in zip(last.direction, d)) >= 1.0 - DIR_DOT_TOL):
                runs[-1] = LightSegment(last.t_start, t1, last.direction)
            else:
                runs.append(LightSegment(t0, t1, d))
        object.__setattr__(self, "vertices", tuple(verts))
        # no fields, so equality and hashing ignore them
        object.__setattr__(self, "_times", tuple(t for t, _ in verts))
        object.__setattr__(self, "_light", tuple(runs))

    @property
    def n(self) -> int:
        return len(self.vertices[0][1])

    @property
    def window(self) -> tuple[float, float]:
        return self.vertices[0][0], self.vertices[-1][0]

    def eval(self, t: float) -> tuple[float, ...]:
        """Position at time t: exact at vertices, linear in between."""
        times = self._times  # type: ignore[attr-defined]
        t0, t1 = times[0], times[-1]
        if t < t0 or t > t1:
            raise ValueError(f"time {t!r} outside window [{t0!r}, {t1!r}]")
        i = bisect_right(times, t) - 1
        if i == len(times) - 1:
            return self.vertices[-1][1]
        ta, xa = self.vertices[i]
        tb, xb = self.vertices[i + 1]
        if t == ta:
            return xa
        w = (t - ta) / (tb - ta)
        return tuple(a + (b - a) * w for a, b in zip(xa, xb))

    def event_at(self, t: float) -> Event:
        return Event(t, self.eval(t))

    def is_chain(self, spec: OrderSpec, sample_times: Sequence[float]) -> bool:
        """Pairwise comparability of the line at the given times: a
        sampled check on rounded points, not a proof about the exact
        line.  The rounded points of a light-speed stretch in a generic
        direction lie an ulp off each other's light cones, so they are
        usually not a chain although the exact line is one."""
        return pairwise_comparable(spec, [self.event_at(t) for t in sample_times])

    def extend_probe(self, p: Event, spec: OrderSpec) -> bool:
        """Whether p is comparable with every point of the line: p must be
        the line's point at p.t, which the causal and temporal orders
        relate to all of the line by construction (up to SPEED_REL_TOL);
        the subluminal order also needs p off every closed light-speed
        run.  False means p cannot extend the chain."""
        t0, t1 = self.window
        if p.t < t0 or p.t > t1:
            raise ValueError("probe time outside window; maximality is window-relative")
        _require_dim(p.n, self.n)
        if p != self.event_at(p.t):
            return False
        return spec.kind is not OrderKind.SUBLUMINAL or not any(
            seg.t_start <= p.t <= seg.t_end for seg in self.light_segments()
        )

    def light_segments(self) -> tuple["LightSegment", ...]:
        """Maximal runs of consecutive segments at speed exactly c
        (relative tolerance 1e-9) with a common direction (unit-vector
        dot >= 1 - 1e-12), found once when the line is built.  Collinear
        neighbours merge, so the result is stable under inserting extra
        vertices along a run."""
        return self._light  # type: ignore[attr-defined]


def make_polyline(
    vertices: Iterable[tuple[float, Sequence[float]]], c: float
) -> PolyWorldLine:
    """Build a PolyWorldLine, validating monotone times and the speed bound."""
    return PolyWorldLine(tuple((t, tuple(x)) for t, x in vertices), float(c))


@dataclass(frozen=True)
class LightSegment:
    """A maximal light-speed stretch: time range plus unit direction."""

    t_start: float
    t_end: float
    direction: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.t_start < self.t_end:
            raise ValueError("light segment needs t_start < t_end")
        object.__setattr__(self, "direction", tuple(float(v) for v in self.direction))


class KeptEnd(Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class Gap:
    """A removed light-speed stretch.  kept_end names the endpoint that
    stays in the point set; None removes both (two-ray construction)."""

    segment: LightSegment
    kept_end: KeptEnd | None


@dataclass(frozen=True)
class Ray:
    """Half-infinite static branch, anchor excluded: the point anchor_x
    at every time it covers.  span +1 opens toward later times, -1
    toward earlier ones."""

    anchor_t: float
    anchor_x: tuple[float, ...]
    span: int

    def __post_init__(self) -> None:
        if self.span not in (-1, 1):
            raise ValueError("span must be +1 or -1")
        object.__setattr__(self, "anchor_x", tuple(float(v) for v in self.anchor_x))

    def covers(self, t: float) -> bool:
        return t > self.anchor_t if self.span > 0 else t < self.anchor_t

    def position(self, t: float) -> tuple[float, ...]:
        return self.anchor_x

    def inside(self, t: np.ndarray) -> np.ndarray:
        """Times t, where one rounded onto or past the open anchor moved to
        the first double inside the ray."""
        first = math.nextafter(self.anchor_t, self.span * math.inf)
        return np.maximum(t, first) if self.span > 0 else np.minimum(t, first)


@dataclass(frozen=True)
class TimeSpan:
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def contains(self, t: float) -> bool:
        """Whether t lies in the span; never for NaN."""
        return (self.lo <= t <= self.hi and (t != self.lo or self.lo_closed)
                and (t != self.hi or self.hi_closed))


@dataclass(frozen=True)
class GapWorldLine:
    """A world line with its light-speed stretches cut out.

    Either base-backed (a PolyWorldLine minus gap interiors and the
    non-kept endpoint of every gap) or ray-backed (straight branches
    with open anchors, used for the canonical two-ray chain).  Its
    pieces, built once, pair each time span with its position map.
    """

    c: float
    base: PolyWorldLine | None
    gaps: tuple[Gap, ...]
    rays: tuple[Ray, ...] = ()

    def __post_init__(self) -> None:
        if self.base is None and not self.rays:
            raise ValueError("need a base world line or at least one ray")
        pieces = []
        for ray in self.rays:
            lo, hi = (ray.anchor_t, math.inf) if ray.span > 0 else (-math.inf, ray.anchor_t)
            pieces.append((TimeSpan(lo, hi, False, False), ray.position))
        if self.base is not None:
            lo, lo_closed = self.base.window[0], True
            for gap in sorted(self.gaps, key=lambda g: g.segment.t_start):
                seg = gap.segment
                span = TimeSpan(lo, seg.t_start, lo_closed, gap.kept_end is KeptEnd.LOWER)
                pieces.append((span, self.base.eval))
                lo, lo_closed = seg.t_end, gap.kept_end is KeptEnd.UPPER
            pieces.append((TimeSpan(lo, self.base.window[1], lo_closed, True), self.base.eval))
        # no field, so equality and hashing ignore it
        object.__setattr__(self, "_pieces", tuple(pieces))

    @property
    def n(self) -> int:
        if self.base is not None:
            return self.base.n
        return len(self.rays[0].anchor_x)

    def contains(self, p: Event, tol: float = 0.0) -> bool:
        """Membership of p in the represented point set.  tol bounds the
        spatial distance from the trajectory; time handling is exact, so
        removed gap endpoints report False even at distance zero."""
        _require_dim(p.n, self.n)
        _require_tol(tol)
        return any(distance(x, p.x) <= tol for x in self._branches(p.t))

    def time_image(self) -> tuple[TimeSpan, ...]:
        """Per-branch time ranges of the represented set."""
        spans = (span for span, _ in self._pieces)  # type: ignore[attr-defined]
        return tuple(sorted(spans, key=lambda s: (s.lo, s.hi)))

    def sample_times(self, per_branch: int = 40, reach: float | None = None) -> list[float]:
        """Deterministic dense time sample of the represented set.

        Ray branches are sampled from 1e-3 past the anchor out to `reach`
        (default ten times the largest gap span), with a few extra points
        hugging the anchor; a time that rounds onto the anchor moves one
        ulp inside the ray.
        """
        if reach is None:
            spans = [g.segment.t_end - g.segment.t_start for g in self.gaps]
            reach = 10.0 * max([1.0] + spans)
        times: list[float] = []
        if self.base is not None:
            t0, t1 = self.base.window
            cand = {t for t, _ in self.base.vertices}
            cand.update(float(t) for t in np.linspace(t0, t1, per_branch))
            for gap in self.gaps:
                cand.add(gap.segment.t_start)
                cand.add(gap.segment.t_end)
            times.extend(t for t in sorted(cand) if self._branches(t))
        for ray in self.rays:
            offs = np.concatenate([[1e-3, 2e-3, 5e-3], np.linspace(1e-2, reach, per_branch)])
            times.extend(ray.inside(ray.anchor_t + ray.span * offs).tolist())
        return sorted(times)

    def sample_events(self, per_branch: int = 40, reach: float | None = None) -> list[Event]:
        return [Event(t, self._branches(t)[0]) for t in self.sample_times(per_branch, reach)]

    def _branches(self, t: float) -> list[tuple[float, ...]]:
        """Positions of the point set at time t: rays covering t first,
        then the base line when t lies in its window outside the gaps."""
        return [at(t) for span, at in self._pieces if span.contains(t)]  # type: ignore[attr-defined]


def make_gap_worldline(
    wl: PolyWorldLine, kept_ends: Sequence[KeptEnd | None]
) -> GapWorldLine:
    """Remove every maximal light-speed stretch of wl, keeping the named
    endpoint of each (None removes both endpoints).  Gaps must be
    pairwise disjoint and must not touch the window boundary."""
    segs = wl.light_segments()
    ends = list(kept_ends)
    for k in ends:
        if not (k is None or isinstance(k, KeptEnd)):
            raise ValueError(f"kept end must be a KeptEnd or None, got {k!r}")
    if len(ends) != len(segs):
        raise ValueError(f"expected {len(segs)} kept-end choices, got {len(ends)}")
    t0, t1 = wl.window
    for seg in segs:
        if seg.t_start == t0 or seg.t_end == t1:
            raise ValueError("light segment touches the window boundary")
    for prev, nxt in zip(segs, segs[1:]):
        if prev.t_end >= nxt.t_start:
            raise ValueError("light segments share an endpoint")
    gaps = tuple(Gap(seg, end) for seg, end in zip(segs, ends))
    return GapWorldLine(c=wl.c, base=wl, gaps=gaps)


def is_subluminal_chain_probe(gwl: GapWorldLine, p: Event) -> bool:
    """Whether p is subluminally comparable with every point of the set.
    Where a piece covers p.t, p must be its point there (the set is a
    subluminal chain by construction).  Otherwise each piece, itself a
    subluminal chain, lies wholly before or after p, and its near end
    decides: strictly subluminal to a closed end (a kept gap endpoint or
    a window end), causal <= to an open one (a removed gap endpoint or a
    ray anchor).  False certifies that p cannot extend the chain."""
    _require_dim(p.n, gwl.n)
    here = gwl._branches(p.t)
    if here:
        return all(x == p.x for x in here)
    sub = OrderSpec(OrderKind.SUBLUMINAL, gwl.c)
    causal = OrderSpec(OrderKind.CAUSAL, gwl.c)
    for span, at in gwl._pieces:  # type: ignore[attr-defined]
        if span.hi <= p.t:  # the piece lies before p
            u, v, closed = Event(span.hi, at(span.hi)), p, span.hi_closed
        else:  # after p
            u, v, closed = p, Event(span.lo, at(span.lo)), span.lo_closed
        if not (strictly_below(sub, u, v) if closed else leq(causal, u, v)):
            return False
    return True


def canonical_gap_chain(
    origin: Event,
    light_dir: Sequence[float],
    t_len: float,
    c: float,
    orientation: Direction = Direction.FORWARD,
) -> GapWorldLine:
    """Two static rays separated by a removed light-speed segment.

    The forward construction sits at `origin` for all earlier times and,
    after a silent light-speed hop of duration t_len along light_dir,
    rests at the displaced position for all later times.  Both segment
    endpoints are removed, the origin itself included, so every point of
    the chain is strictly time-like to `origin`: the chain avoids any
    subluminal antichain through that event.  Its time image omits the
    whole interval [origin.t, origin.t + t_len]; where rounding puts the
    hop's far end an ulp outside origin's light cone, that end comes a
    few ulps later, so the two rays still form a chain.  Where no push
    relates them (an offset past about 1.3e154 squares to inf, or the
    rounding of origin's coordinates swallows t_len), it raises.

    The backward orientation mirrors the construction in time.
    """
    if origin.n == 0:
        raise ValueError("need at least one space dimension")
    d = tuple(float(v) for v in light_dir)
    _require_dim(len(d), origin.n)
    nrm = distance([0.0] * len(d), d)
    if not abs(nrm - 1.0) <= 1e-9:  # nan too
        raise ValueError(f"light direction must have unit norm, got {nrm!r}")
    _require_positive(t_len, "t_len")
    _require_positive(c, "c")
    hop = tuple(x + c * t_len * v for x, v in zip(origin.x, d))
    span = 1 if orientation is Direction.FORWARD else -1
    hop_t = origin.t + span * t_len
    if hop_t == origin.t:
        raise ValueError(
            f"t_len {t_len!r} is lost in rounding at origin.t = {origin.t!r}, "
            f"whose time resolution is math.ulp(origin.t) = {math.ulp(origin.t)!r}"
        )
    # Until the kernel relates the anchors (rounding can put hop an ulp
    # off origin's cone), push hop's time out by 1, 2, 4, ... ulps of
    # t_len; 2**39 ulps close no rounding gap.
    causal = OrderSpec(OrderKind.CAUSAL, c)
    for k in range(40):
        if comparable(causal, origin, Event(hop_t, hop)):
            break
        hop_t = origin.t + span * (t_len + math.ulp(t_len) * 2.0**k)
    else:
        if distance(origin.x, hop) == math.inf:
            raise ValueError("chain anchors too far apart for the cone test")
        raise ValueError(f"t_len {t_len!r} is lost in the rounding of origin {origin!r}: "
                         "the cone test cannot relate the chain anchors")
    # the segment runs from its lower endpoint: backward, from hop to origin
    seg = LightSegment(min(origin.t, hop_t), max(origin.t, hop_t), tuple(span * v for v in d))
    rays = (Ray(origin.t, origin.x, -span), Ray(hop_t, hop, span))
    return GapWorldLine(c=c, base=None, gaps=(Gap(seg, None),), rays=rays)
