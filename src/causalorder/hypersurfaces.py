"""Space-like hypersurfaces as graphs of strictly sub-critical Lipschitz
height functions, and the gradings they induce.

A surface is pinned at finitely many anchors (x_i, h_i) and extended
everywhere by the lower envelope h(x) = min_i(h_i + k ||x - x_i||).
With k c < 1 every chord of the graph {(x, h(x))} stays strictly
outside the speed-c cone, so any sample of the graph is an antichain of
the causal order.  The induced grading g(x, t) = t - h(x) is strictly
increasing along every world line with speed at most c, which makes
level crossings unique; on a straight segment each anchor's term
crosses at the root of one quadratic, so crossing_time is closed-form.

Heights go through order._distances, the batched form of
order.distance with its bits: Hypersurface.heights for an array of
points, in row tiles, and height, its one-point case, through the
one-row order._point_distances, with no np.errstate below a radius
where nothing can overflow.  Beyond it, heights recomputes each
distance whose sum of squares overflowed from its offsets scaled by the
largest.  Grading.values, is_antichain_sample, grading_monotone_on and
crossing_time make one heights call each.  The Lipschitz check scans
row tiles of the upper triangle of anchor pairs, with the same scaled
distances where a sum of squares overflows, compares the pairs whose
height step or distance is inf again at half scale (halving till both
are finite), and names the first violating pair a pair loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .order import (
    TILE_CELLS,
    Event,
    OrderKind,
    _comparable_block,
    _coordinates,
    _distances,
    _first_upper_hit,
    _point_distances,
    _require_dim,
    _require_positive,
    _require_tol,
)

if TYPE_CHECKING:  # annotations only
    from .worldlines import PolyWorldLine


@dataclass(frozen=True)
class Hypersurface:
    """Lower-envelope extension of consistent anchors.

    anchors: ((x_i, h_i), ...) with |h_i - h_j| <= k ||x_i - x_j||.
    modulus: the Lipschitz constant k, with 0 < k and k * c < 1.
    """

    anchors: tuple[tuple[tuple[float, ...], float], ...]
    modulus: float
    c: float

    def __post_init__(self) -> None:
        k = float(self.modulus)
        c = float(self.c)
        _require_positive(c, "c")
        _require_positive(k, "modulus k")
        if k * c >= 1.0:
            raise ValueError(f"need k*c < 1 for a space-like graph, got {k * c!r}")
        if not self.anchors:
            raise ValueError("need at least one anchor")
        count, n = len(self.anchors), len(self.anchors[0][0])
        for x, _ in self.anchors:
            _require_dim(len(x), n)
        xs = np.array([x for x, _ in self.anchors], dtype=float).reshape(count, n)
        hs = np.fromiter((h for _, h in self.anchors), dtype=float, count=count)
        if not (np.isfinite(xs).all() and np.isfinite(hs).all()):
            raise ValueError("anchor coordinates must be finite")
        # offsets of at most 2^501, squared and summed over at most 2^20 axes, stay finite
        small = n <= 2**20 and np.abs(xs).max(initial=0.0) <= 2.0**500

        def exceeds(i0: int, i1: int, scale: float = 1.0) -> np.ndarray:
            a, b = xs[i0:i1] * scale, xs[i0:] * scale
            dist = _distances(a, b)
            if not small:  # where a sum of squares overflowed
                _rescale(dist, a, b)
            step = np.abs(hs[i0:i1, None] * scale - hs[None, i0:] * scale)
            out = step > k * dist
            # inf > k * inf is False: compare these cells again at half
            # scale, where each finite double is halved exactly
            inf = np.isinf(step) | np.isinf(dist)
            if inf.any():
                out[inf] = exceeds(i0, i1, scale / 2)[inf]
            return out

        with np.errstate(over="ignore"):
            bad = _first_upper_hit(count, exceeds)
        if bad is not None:
            raise ValueError(f"anchors {bad[0]} and {bad[1]} violate the Lipschitz bound")
        # the one anchor array: height and heights read one contiguous column per axis
        axes = np.asfortranarray(xs)
        for a in (hs, axes):
            a.flags.writeable = False
        bounded = small and k <= 2.0**510 and np.abs(hs).max() <= 2.0**1021
        object.__setattr__(self, "anchors", tuple(zip(map(tuple, xs.tolist()), hs.tolist())))
        object.__setattr__(self, "modulus", k)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_hs", hs)
        object.__setattr__(self, "_axes", axes)
        object.__setattr__(self, "_cols", tuple(axes.T))
        object.__setattr__(self, "_radius", 2.0**500 if bounded else 0.0)
        object.__setattr__(self, "_rows", max(1, TILE_CELLS // count))

    @property
    def dimension(self) -> int:
        return len(self.anchors[0][0])

    def heights(self, points: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """h(x) = min over anchors of h_i + k ||x - x_i|| for every row x
        of the (m, n) array points, in row tiles of at most TILE_CELLS
        point-anchor cells.  No points give no heights, whatever their
        width; points that form no (m, n) array raise ValueError."""
        axes, rows, radius = self._axes, self._rows, self._radius  # type: ignore[attr-defined]
        try:
            xs = np.asarray(points, dtype=float)
        except ValueError:  # ragged rows, or entries that are not numbers
            xs = None
        if xs is None or (xs.ndim != 2 and (xs.ndim == 0 or len(xs))):
            got = "ragged or non-numeric rows" if xs is None else f"shape {xs.shape}"
            raise ValueError(f"points must be an (m, {axes.shape[1]}) array, got {got}")
        if len(xs):
            _require_dim(xs.shape[1], axes.shape[1])
        out = np.empty(len(xs))
        with np.errstate(over="ignore"):  # a term beyond the float range is inf
            for i0 in range(0, len(xs), rows):
                tile = xs[i0:i0 + rows]
                env = _distances(tile, axes)
                if not np.abs(tile).max(initial=0.0) < radius:  # below R no square overflows
                    _rescale(env, tile, axes)
                env *= self.modulus
                env += self._hs  # type: ignore[attr-defined]
                np.minimum.reduce(env, axis=1, out=out[i0:i0 + rows])
        return out

    def height(self, x: Sequence[float]) -> float:
        """h(x), the one-point case of heights, with its bits.  Given
        |x_i| <= 2^500, |h_i| <= 2^1021, k <= 2^510 and n <= 2^20, a point
        with all |x_a| < R = 2^500 cannot overflow: offset <= 2^501, square
        <= 2^1002, sum <= 2^1022, k * dist <= 2^1021, term <= 2^1022.  Any
        other point, n = 0 and R = 0 (bounds unmet) go to heights."""
        cols, radius = self._cols, self._radius  # type: ignore[attr-defined]
        _require_dim(len(x), len(cols))
        if not (cols and all(-radius < v < radius for v in x)):
            return float(self.heights([x])[0])
        env = _point_distances(x, cols)
        env *= self.modulus
        env += self._hs  # type: ignore[attr-defined]
        return float(np.minimum.reduce(env))

    def graph_event(self, x: Sequence[float]) -> Event:
        return Event(self.height(x), x)


def _rescale(dist: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Recompute in place the inf cells of dist = _distances(a, b), whose
    sum of squares overflowed, as s * ||d / s|| with s = max |d_a| the
    largest offset, so no square exceeds 1.  A cell whose offset itself
    is inf stays inf; every finite cell keeps its bits.  One axis at a
    time, as _distances sums: each temporary holds one value per cell."""
    i, j = np.nonzero(np.isinf(dist))
    s = np.zeros(len(i))
    for axis in range(a.shape[1]):
        np.maximum(s, np.abs(b[j, axis] - a[i, axis]), out=s)
    ok = np.isfinite(s)
    i, j, s = i[ok], j[ok], s[ok]
    acc = np.zeros(len(i))
    for axis in range(a.shape[1]):
        u = (b[j, axis] - a[i, axis]) / s
        u *= u
        acc += u
    dist[i, j] = s * np.sqrt(acc, out=acc)


def make_hypersurface(
    anchors: Sequence[tuple[Sequence[float], float]], k: float, c: float
) -> Hypersurface:
    return Hypersurface(tuple((tuple(x), h) for x, h in anchors), float(k), float(c))


@dataclass(frozen=True)
class Grading:
    """The level function g(x, t) = t - h(x) of a hypersurface; the
    surface graph is exactly level zero."""

    surface: Hypersurface

    def value(self, e: Event) -> float:
        return e.t - self.surface.height(e.x)

    def values(self, events: Sequence[Event]) -> np.ndarray:
        """value(e) for every event, bit for bit, from one heights call."""
        t, xs = _coordinates(events)
        with np.errstate(over="ignore"):  # overflow to inf, as float subtraction does
            return t - self.surface.heights(xs)

    def level_contains(self, r: float, e: Event, tol: float = 0.0) -> bool:
        _require_tol(tol)
        return abs(self.value(e) - r) <= tol


def is_antichain_sample(hs: Hypersurface, points: Sequence[Sequence[float]]) -> bool:
    """Lift the sample onto the graph and verify pairwise space-likeness:
    no two lifted points equal or strictly causally related either way.
    Duplicate positions collapse to one graph point."""
    positions = list(dict.fromkeys(tuple(float(v) for v in x) for x in points))
    heights = hs.heights(positions).tolist()
    t, xs = _coordinates([Event(h, x) for h, x in zip(heights, positions)])
    return _first_upper_hit(
        len(t),
        lambda i0, i1: _comparable_block(
            OrderKind.CAUSAL, hs.c, t[i0:i1], xs[i0:i1], t[i0:], xs[i0:]
        ),
    ) is None


CROSSING_TOL = 1e-9


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of an (m, n) array a with the same row
    of b, or with b itself when b is one row of n: summed over axis 0,
    1, ... in that order, as _distances sums, so neither the memory
    layout nor a BLAS kernel picks the last bits."""
    if not a.shape[1]:
        return np.zeros(len(a))
    out = a[:, 0] * b[..., 0]
    for axis in range(1, a.shape[1]):
        out += a[:, axis] * b[..., axis]
    return out


def crossing_time(hs: Hypersurface, wl: PolyWorldLine, tol: float = CROSSING_TOL) -> float:
    """Unique time at which wl crosses the surface graph, in closed form.

    phi(t) = t - h(f(t)) is the largest of the anchor terms
    t - h_i - k ||f(t) - x_i||, each growing at rate >= 1 - k*|v| > 0
    along a segment of velocity v.  On the first segment where phi
    changes sign, the crossing is the earliest anchor root: the larger
    root of (t - h_i)^2 = k^2 ||f(t) - x_i||^2, one quadratic per anchor.
    tol only bounds the residual |phi| the answer must meet; a window end
    within tol of the graph is returned as is.  Raises ValueError when
    the crossing lies outside the window or a segment breaks the k*c < 1
    margin, RuntimeError when the residual misses tol.
    """
    return _crossing(hs, wl, tol)[0]


def _crossing(hs: Hypersurface, wl: PolyWorldLine, tol: float) -> tuple[float, float]:
    """crossing_time's t_star and its residual t_star - h(f(t_star))."""
    _require_tol(tol)
    _require_dim(wl.n, hs.dimension)
    k2 = hs.modulus * hs.modulus
    t = np.array([tv for tv, _ in wl.vertices])
    x = np.array([xv for _, xv in wl.vertices]).reshape(len(t), wl.n)
    xs, hv = hs._axes, hs._hs  # type: ignore[attr-defined]
    with np.errstate(all="ignore"):  # overflow: a NaN answer fails the residual check
        v = np.diff(x, axis=0) / np.diff(t)[:, None]
        a = 1.0 - k2 * _row_dots(v, v)
        if hs.modulus * wl.c >= 1.0 or not (a > 0).all():
            raise ValueError("world line speed bound breaks the k*c < 1 margin")
        phi = t - hs.heights(x)
        (t0, t1), (f0, f1) = wl.window, (phi[0], phi[-1])
        if abs(f0) <= tol:
            return t0, float(f0)
        if abs(f1) <= tol:
            return t1, float(f1)
        if f0 > 0 or f1 < 0:
            raise ValueError("no crossing inside the window")
        s = int(np.argmax((phi[:-1] < 0) & (phi[1:] >= 0)))
        d, lag = x[s] - xs, t[s] - hv
        beta = k2 * _row_dots(d, v[s]) - lag
        cc = lag * lag - k2 * _row_dots(d, d)
        # beta^2 - a*cc = k^2 (a |e|^2 + k^2 (e.v)^2), e = d - lag*v the
        # segment's offset from x_i at time h_i: no cancellation
        e = d - lag[:, None] * v[s]
        ev = _row_dots(e, v[s])
        root = np.sqrt(k2 * (a[s] * _row_dots(e, e) + k2 * ev * ev))
        tau = np.where(beta >= 0, (beta + root) / a[s], cc / (beta - root))
        t_star = float(np.clip(t[s] + tau.min(), t[s], t[s + 1]))
    residual = t_star - hs.height(wl.eval(t_star))
    if not abs(residual) <= tol:
        raise RuntimeError(f"crossing residual {residual!r} misses tolerance {tol!r}")
    return t_star, residual


def grading_monotone_on(
    g: Grading, wl: PolyWorldLine, sample_times: Sequence[float]
) -> bool:
    """Strict increase of the grading along the line at sorted sample times."""
    prev = None
    for t in sample_times:
        if prev is not None and not t > prev:
            raise ValueError("sample times must be strictly increasing")
        prev = t
    vals = g.values([wl.event_at(t) for t in sample_times])
    return bool((vals[:-1] < vals[1:]).all())
