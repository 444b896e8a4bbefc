"""Finite event sets under the space-time orders: sprinkling, relation
matrices, Hasse diagrams, maximal chains, antichain enumeration, cutset
checks, and reconstruction of the causal order from the subluminal one.

Relation matrices hold the strict relation (diagonal False), indexed in
input order, from order._strict_block, so matrix and scalar routes
agree bit for bit.  A set of one kernel tile (order.TILE_CELLS cells)
is read off one float32 product, exact on counts of at most
256 < 2**24; a larger one is built in time order and packed in 64-bit
words, and _cover_walk finds its covers and checks transitivity in
covers x n/64 words.  No n x n two-step, covers or float32 matrix is
held.  Every chain question reads one pass over the covers.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_right
from collections.abc import Set as AbstractSet, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterator

import numpy as np

from .order import BLOCK, TILE_CELLS, Direction, Event, OrderKind, OrderSpec
from .order import _box_events, _check_box, _coordinates, _strict_block

MAX_EVENTS = 4096
MAX_ANTICHAIN_EVENTS = 24


@dataclass(frozen=True)
class SprinkleConfig:
    """Uniform iid sprinkle: `count` events in a box, space axes first,
    time axis last.  Deterministic for a fixed 64-bit seed."""

    count: int
    dimension: int
    box: tuple[tuple[float, float], ...]
    seed: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        object.__setattr__(self, "box", _check_box(self.dimension, self.box))


def sprinkle(cfg: SprinkleConfig) -> list[Event]:
    return _box_events(np.random.default_rng(cfg.seed), cfg.box, cfg.count)


@dataclass(frozen=True)
class FiniteCausalSet:
    """Events plus the strict relation matrix of the chosen order, its
    Hasse covers (i < j with no k between, as the ascending int64 cells
    i*n + j) and its minimal elements (ascending indices of the events
    with nothing below): functions of events and spec, so equality and
    hashing use those two alone."""

    events: tuple[Event, ...]
    spec: OrderSpec
    relation: np.ndarray = field(repr=False, compare=False)
    covers: np.ndarray = field(repr=False, compare=False)
    minimal: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def _chain_table(self) -> tuple[list[list[int]], list[int]]:
        """Each vertex v's successors, ascending (the cover cells in
        [v*n, v*n + n)), then the minimal elements as those of a virtual
        vertex n; and the vertices with successors in a linear extension,
        last first, then n: sorted stably by the number of elements
        below, since u < v puts more below v than below u."""
        n = len(self.events)
        ends = np.searchsorted(self.covers, np.arange(n + 1) * n).tolist()
        cols = (self.covers % n).tolist()
        succ = [cols[a:b] for a, b in zip(ends, ends[1:])] + [self.minimal.tolist()]
        below = np.argsort(self.relation.sum(axis=0), kind="stable")[::-1].tolist()
        return succ, [v for v in below if succ[v]] + [n]


def build(events: Sequence[Event], spec: OrderSpec) -> FiniteCausalSet:
    """Construct the relation matrix and verify the strict-order axioms.

    Irreflexivity holds by construction; antisymmetry and transitivity
    are checked explicitly, and a failure aborts, because it could only
    come from a broken predicate.  The error names the first violating
    pair in row-major input order, antisymmetry before transitivity,
    from the cells the construction pass already finds.
    """
    evs = tuple(events)
    n = len(evs)
    if n > MAX_EVENTS:
        raise ValueError(f"at most {MAX_EVENTS} events supported, got {n}")
    t, xs = _coordinates(evs)
    if n * n <= TILE_CELLS:  # one kernel tile: no sort, no permute
        rel = _strict_block(spec.kind, spec.c, t, xs, t, xs)
        cells = _checked_covers(rel)
    else:
        rel, cells = _banded(spec.kind, spec.c, t, xs)
    if spec.direction is Direction.BACKWARD:  # the dual order: cell (i, j) -> (j, i)
        rel, cells = rel.T, [np.sort(m % n * n + m // n) for m in cells]
    covers, *violations = cells
    for axiom, bad in zip(("antisymmetry", "transitivity"), violations):
        if len(bad):
            i, j = divmod(int(bad[0]), n)
            raise RuntimeError(f"{axiom} violated at pair ({i}, {j})")
    minimal = (~rel.any(axis=0)).nonzero()[0]
    for m in (rel, covers, minimal):
        m.flags.writeable = False
    return FiniteCausalSet(evs, spec, rel, covers, minimal)


def _checked_covers(rel: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cells i*n + j, ascending, of a relation in input order: its
    covers rel & ~((rel @ rel) > 0), the pairs that break antisymmetry
    and the pairs that break transitivity."""
    rf = rel.astype(np.float32)
    two_step = (rf @ rf) > 0
    return tuple(m.ravel().nonzero()[0] for m in (rel > two_step, rel & rel.T, two_step > rel))


def _banded(
    kind: OrderKind, c: float, t: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The forward relation of events (t, xs) in input order and the
    cells of _checked_covers, from one pass in time order, last band
    first: band I (rows a:b) is filled from column a on, which loses no
    pair by the property stated in order._strict_block, and packed for
    _cover_walk, else _exact_cells."""
    n = len(t)
    order = np.argsort(t, kind="stable")
    t, xs = t[order], xs[order]
    rel = np.zeros((n, n), dtype=bool)
    width = -(-n // 64)
    words = np.zeros((width * 64, width), dtype=np.uint64)  # rel's rows, then zero rows
    for a in range((n - 1) // BLOCK * BLOCK, -1, -BLOCK):
        b = min(a + BLOCK, n)
        rows = max(1, TILE_CELLS // (n - a))
        for r in range(a, b, rows):
            s = min(r + rows, b)
            rel[r:s, a:] = _strict_block(kind, c, t[r:s], xs[r:s], t[a:], xs[a:])
        words.view(np.uint8)[a:b, :-(-n // 8)] = np.packbits(rel[a:b], axis=1)
    covers = _cover_walk(words, n)
    cells = _exact_cells(rel, words[:n]) if covers is None else (covers, covers[:0], covers[:0])
    del words
    back = (np.sort(order[m // n] * n + order[m % n]) for m in cells)
    return _permute(rel, np.argsort(order)), tuple(back)


def _cover_walk(words: np.ndarray, n: int) -> np.ndarray | None:
    """The cells i*n + j of the covers of a relation packed in words, or
    None if a bit lies on or below the diagonal or it is not transitive.
    In word k a candidate, at first a successor, is a cover unless a
    lower one of the word lies below it (a 64 x 64 float32 product), and
    a cover's successors past k leave its row's candidates: so every
    successor of i lies on a path from a cover of i, and transitivity
    holds exactly when each cover's successors lie among its source's
    (by induction from the last row, j on a path from a cover c has its
    successors among c's).  Then its covers are the covers."""
    cand = words.copy()
    has_succ = words.any(axis=1)  # covers with no successor skip the gather
    lower = np.tri(64, dtype=np.uint8)
    found = []
    for k in range(words.shape[1]):
        src = cand[:, k].nonzero()[0]
        bits = np.unpackbits(cand[src, k:k + 1].view(np.uint8), axis=1).astype(np.float32)
        diag = np.unpackbits(words[64 * k:64 * k + 64, k:k + 1].view(np.uint8), axis=1)
        if (src >> 6 > k).any() or (diag & lower).any():
            return None
        f = np.flatnonzero(bits > bits @ diag.astype(np.float32))
        cells = src[f >> 6] * n + (f & 63) + 64 * k
        found.append(cells)
        for s, g, heads in _runs(cells[has_succ[cells % n]], n):
            reach = np.bitwise_or.reduceat(words[g, k:], heads, axis=0)
            if (reach & ~words[s, k:]).any():
                return None
            cand[s, k + 1:] &= ~reach[:, 1:]
    return np.concatenate(found)


def _runs(cells: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Ascending cells i*n + j, max(n, 4096) at a time: their distinct
    i, their j, and where each i's run starts."""
    step = max(n, 4096)
    for lo in range(0, len(cells), step):
        i, j = np.divmod(cells[lo:lo + step], n)
        heads = np.flatnonzero(np.diff(i, prepend=-1))
        yield i[heads], j, heads


def _exact_cells(rel: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cells of _checked_covers for any relation and its packed
    rows: a row's two-step row ORs its successors' rows."""
    n = len(rel)
    cells = ([], [], [])
    for a in range(0, n, BLOCK):
        band = rel[a:a + BLOCK]
        two = np.array([np.bitwise_or.reduce(rows[r.nonzero()[0]]) for r in band])
        via = np.unpackbits(two.view(np.uint8), axis=1, count=n).view(bool)
        for out, m in zip(cells, (band > via, band & rel[:, a:a + BLOCK].T, via > band)):
            out.append(np.flatnonzero(m) + a * n)
    return tuple(map(np.concatenate, cells))


def _permute(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """m[p][:, p], C-contiguous, so later row reads are not strided,
    gathered BLOCK rows at a time with no full-size intermediate."""
    out = np.empty(m.shape, dtype=m.dtype)
    for r in range(0, len(p), BLOCK):
        out[r:r + BLOCK] = m[p[r:r + BLOCK]].take(p, axis=1)
    return out


def hasse(fcs: FiniteCausalSet) -> list[tuple[int, int]]:
    """Edges of the transitive reduction, unique for a finite strict
    order: the cover cells i*n + j, ascending."""
    rows, cols = np.divmod(fcs.covers, len(fcs))
    return list(zip(rows.tolist(), cols.tolist()))


def _chain_index(fcs: FiniteCausalSet, skip: AbstractSet[int] = frozenset()) -> list[int]:
    """For each vertex, its number of cover paths to a maximal element
    that meet no vertex of `skip` (0 for those in `skip`), and last, for
    the virtual vertex n whose successors are the minimal elements, the
    number of such maximal chains.  One pass over the set's linear
    extension, last vertex first, that reads each cover once."""
    succ, order = fcs._chain_table
    paths = [1] * len(fcs) + [0]
    get = paths.__getitem__
    for v in skip:
        paths[v] = 0
    for v in order:
        if v not in skip:
            paths[v] = sum(map(get, succ[v]))
    return paths


def _chains(succ: list[list[int]], paths: list[int]) -> Iterator[list[int]]:
    """The cover paths from the virtual vertex n that enter only vertices
    with a positive count in `paths`, lazily, in lexicographic order: a
    DFS that never backs out of a dead end, since every vertex it enters
    leads to a maximal element."""
    path: list[int] = []
    stack = [iter(succ[-1])]  # the successors still to try: n's, then each path vertex's
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            del path[-1:]  # the vertex whose successors ran out, if not n
        elif paths[w]:
            if succ[w]:
                path.append(w)
                stack.append(iter(succ[w]))
            else:
                yield path + [w]


def count_maximal_chains(fcs: FiniteCausalSet) -> int:
    """The number of maximal chains, exactly, with no cap: the cover
    paths from a minimal to a maximal element, in one pass."""
    return _chain_index(fcs)[-1]


class _MaximalChains(Sequence):
    """The maximal chains of a set as a read-only sequence of index
    lists, in lexicographic order, none built until asked for.  An index
    unranks its chain by bisecting the running path counts of the
    successors along it, each vertex's built on its first use; a slice
    returns a list; iteration is the DFS over the same counts.  len
    raises OverflowError above sys.maxsize, as range does."""

    def __init__(self, fcs: FiniteCausalSet) -> None:
        self._succ, self._paths = fcs._chain_table[0], _chain_index(fcs)
        self._total = self._paths[-1]
        self._sums: list = [None] * len(self._paths)  # each vertex's, on its first use

    def __len__(self) -> int:
        if self._total > sys.maxsize:
            raise OverflowError(
                f"{self._total} maximal chains exceed sys.maxsize; "
                "count_maximal_chains gives the count"
            )
        return self._total

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self._unrank(i) for i in range(self._total)[key]]
        i = operator.index(key)
        if i < 0:
            i += self._total
        if not 0 <= i < self._total:
            raise IndexError("maximal chain index out of range")
        return self._unrank(i)

    def _unrank(self, i: int) -> list[int]:
        succ, v, chain = self._succ, len(self._succ) - 1, []
        while succ[v]:
            sums = self._sums[v]
            if sums is None:
                sums = self._sums[v] = list(accumulate(map(self._paths.__getitem__, succ[v])))
            k = bisect_right(sums, i)
            if k:
                i -= sums[k - 1]
            v = succ[v][k]
            chain.append(v)
        return chain

    def __bool__(self) -> bool:  # without len, so a huge count is still true
        return self._total > 0

    def __iter__(self) -> Iterator[list[int]]:
        return _chains(self._succ, self._paths)


def maximal_chains(fcs: FiniteCausalSet) -> Sequence[list[int]]:
    """All maximal chains as index lists, in lexicographic order: a
    lazy, indexable view; bound the work by slicing or itertools.islice."""
    return _MaximalChains(fcs)


def maximal_antichains(fcs: FiniteCausalSet) -> list[list[int]]:
    """All maximal antichains, sorted lexicographically: the maximal
    cliques of the incomparability graph, by Bron-Kerbosch with Tomita's
    pivot (most neighbours in P, lowest index on ties) on int bitmasks
    for P, X and each event's neighbours.  Limited to 24 events, so by
    the Moon-Moser bound there are at most 3**8 of them."""
    n_ev = len(fcs)
    if n_ev > MAX_ANTICHAIN_EVENTS:
        raise ValueError(
            f"full antichain enumeration supports at most {MAX_ANTICHAIN_EVENTS} events"
        )
    rel = fcs.relation
    inc = ~(rel | rel.T | np.eye(n_ev, dtype=bool))
    nbr = (inc @ (1 << np.arange(n_ev))).tolist()  # bit j of nbr[i]: i, j incomparable
    found: list[list[int]] = []

    def bk(r: list[int], p: int, x: int) -> None:
        if not p:
            if not x:
                found.append(sorted(r))
            return
        best = -1
        px = p | x
        while px:  # the pivot, lowest bit first
            low = px & -px
            v = low.bit_length() - 1
            k = (p & nbr[v]).bit_count()
            if k > best:
                best, pivot = k, v
            px ^= low
        cand = p & ~nbr[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            bk(r + [v], p & nbr[v], x & nbr[v])
            p ^= low
            x |= low
            cand ^= low

    bk([], (1 << n_ev) - 1, 0)
    found.sort()
    return found


def _check_antichain(fcs: FiniteCausalSet, indices: Sequence[int]) -> list[int]:
    idx = [operator.index(i) for i in indices]  # bools as 0 and 1, no floats
    n_ev = len(fcs)
    for i in idx:
        if not 0 <= i < n_ev:
            raise ValueError(f"index {i} out of range")
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate indices")
    sub = fcs.relation[np.ix_(idx, idx)]
    # row-major order: the first hit is the first comparable pair a < b
    hits = np.argwhere(np.triu(sub | sub.T, 1))
    if len(hits):
        a, b = hits[0]
        raise ValueError(f"not an antichain: events {idx[a]} and {idx[b]} are comparable")
    return idx


def find_avoiding_chain(
    fcs: FiniteCausalSet, antichain: Sequence[int]
) -> list[int] | None:
    """Lexicographically first maximal chain disjoint from the
    antichain, or None: the path count with the antichain's events as
    0, then the first chain of the DFS over it."""
    paths = _chain_index(fcs, set(_check_antichain(fcs, antichain)))
    return next(_chains(fcs._chain_table[0], paths), None)


def is_cutset(fcs: FiniteCausalSet, antichain: Sequence[int]) -> bool:
    """Whether the antichain meets every maximal chain of the set."""
    return find_avoiding_chain(fcs, antichain) is None


def _value_ids(t: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """An id per event, shared by the events equal to it in value by
    exact coordinate comparison, as Event equality decides (-0.0 == 0.0)."""
    keys = np.column_stack([t, xs])
    order = np.lexsort(keys.T)
    ranked = keys[order]
    first = np.ones(len(t), dtype=bool)  # first of its value in sorted order
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(len(t), dtype=np.intp)
    ids[order] = np.cumsum(first)
    return ids


def reconstruct_order(fcs: FiniteCausalSet) -> np.ndarray:
    """Causal relation recovered from a subluminal set, using the set's
    own events as witnesses: i related to j when i is subluminally below
    j, or when every witness subluminally above j is subluminally above
    i (witnesses equal in value to either endpoint are skipped).  Each
    witness lies on or above a cover of j, and equal events have equal
    rows, so that is rel[i, j] or bit i of the AND of the packed columns
    of rel | equal at j's covers (every bit, for no cover).

    The result is a superset of the true strict causal relation on the
    same events; sparse regions may add false positives, never false
    negatives.
    """
    if fcs.spec.kind is not OrderKind.SUBLUMINAL:
        raise ValueError("reconstruction expects a subluminal relation")
    rel = fcs.relation
    n = len(rel)
    ids = _value_ids(*_coordinates(fcs.events))
    above = np.zeros((n, -(-n // 64) * 64), dtype=bool)  # row c: column c of rel | equal
    np.equal(ids[:, None], ids, out=above[:, :n])
    above[:, :n] |= rel.T
    cols = np.packbits(above, axis=1).view(np.uint64)  # row c in 64-bit words
    del above
    meet = np.full(cols.shape, ~np.uint64(0))  # row j: the AND of its covers' rows
    for j, c, heads in _runs(fcs.covers, n):
        meet[j] &= np.bitwise_and.reduceat(cols[c], heads, axis=0)
    bits = np.unpackbits(meet.view(np.uint8), axis=1, count=n).view(bool)  # row j: over i
    rec = np.logical_or(bits.T, rel, order="C")
    np.fill_diagonal(rec, False)
    rec.flags.writeable = False
    return rec


@dataclass(frozen=True)
class RelationDiff:
    """Cell-level comparison of two strict relation matrices."""

    agreements: int
    false_positives: int
    false_negatives: int
    samples: tuple[tuple[int, int, str], ...]  # at most 100, lexicographic


def compare_relations(
    candidate: np.ndarray, truth: np.ndarray, sample_cap: int = 100
) -> RelationDiff:
    """Agreements off the diagonal; false positives, false negatives
    and the first sample_cap differing cells (lexicographic) over every
    cell."""
    cand = np.asarray(candidate, dtype=bool)
    ref = np.asarray(truth, dtype=bool)
    if cand.shape != ref.shape or cand.ndim != 2 or cand.shape[0] != cand.shape[1]:
        raise ValueError("relation matrices must be square and share a shape")
    if sample_cap < 0:
        raise ValueError("sample_cap must be >= 0")
    n = cand.shape[0]
    differ = cand != ref
    upto = np.cumsum(np.count_nonzero(differ, axis=1))  # differing cells in rows <= i
    n_differ = int(upto[-1]) if n else 0
    fp = int(np.count_nonzero(differ & cand))
    # argwhere's row-major order is lexicographic, and the rows up to
    # the one with the sample_cap-th differing cell hold every sample.
    head = differ[: np.searchsorted(upto, sample_cap) + 1]
    samples = [
        (int(i), int(j), "fp" if cand[i, j] else "fn")
        for i, j in np.argwhere(head)[:sample_cap]
    ]
    return RelationDiff(
        agreements=n * (n - 1) - (n_differ - int(np.count_nonzero(np.diagonal(differ)))),
        false_positives=fp,
        false_negatives=n_differ - fp,
        samples=tuple(samples),
    )
