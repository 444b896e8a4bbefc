"""Finite event sets under the space-time orders: sprinkling, relation
matrices, Hasse diagrams, maximal chains, antichain enumeration, cutset
checks, and reconstruction of the causal order from the subluminal one.

Maximal chains are cover paths from a minimal to a maximal element,
counted, walked and unranked from the covers alone, so their cost
follows the number of covers, not of chains.

Relation matrices hold the strict relation (diagonal False), indexed in
input order.  build fills them with order._strict_block, the batched
form of the strict cone predicate, so matrix and scalar routes agree
bit for bit; the order axioms are re-verified on every construction and
a violation aborts, since it would mean the predicate is broken.  The
pass that finds the covers also finds the violating cells, so a failing
build holds no more memory than one that passes.

In all three orders u < v implies t_u < t_v (order._strict_block
states it for the kernel), so a set sorted by time (stably) has a
strictly upper triangular relation.  A set that fits one kernel tile
(order.TILE_CELLS cells) is built in input order, a larger one by
_banded in time order, one order.BLOCK-row band at a time, so no n x n
two-step, covers or float32 matrix is held.

build's two-step products run as float32 BLAS matmuls on 0/1 matrices,
each operand cast where its product is taken.  They are exact: every
entry of a product, whole or over a span of blocks, is an integer count
of at most n <= MAX_EVENTS = 4096 < 2**24, and every partial sum is a
smaller such count, so each is representable in float32 and no
summation order, blocking or fused multiply-add can round it.

reconstruct_order takes no product: it reads the stored covers.  All
that lies above j lies on or above one of j's covers, and equal events
have equal relation rows, so every witness above j, those equal to i
aside, is above i exactly when each cover of j is above i or equal to
it in value: one bitwise AND of packed columns per cover.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
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
    i*n + j) and its minimal elements (the indices, ascending, of the
    events with nothing below them): functions of events and spec, so
    equality and hashing use those two alone."""

    events: tuple[Event, ...]
    spec: OrderSpec
    relation: np.ndarray = field(repr=False, compare=False)
    covers: np.ndarray = field(repr=False, compare=False)
    minimal: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.events)


def build(events: Sequence[Event], spec: OrderSpec) -> FiniteCausalSet:
    """Construct the relation matrix and verify the strict-order axioms.

    Irreflexivity holds by construction; antisymmetry and transitivity
    are checked explicitly, and a failure aborts, because it could only
    come from a broken predicate.  The error names the first violating
    pair in row-major input order, antisymmetry before transitivity,
    from the cells the construction pass already finds.  The banded
    route (see _banded) checks every pair the kernel can relate, by the
    property stated in order._strict_block.
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
    """The forward relation of events (t, xs) in input order, and the
    cells of _checked_covers, from one pass over them in time order,
    last band first.  The kernel writes band I (rows a:b) from column a
    on, so antisymmetry can only fail in its diagonal block, and block
    (I, J) of its two-step relation sums over K = I..J (the later bands
    are filled).  Nothing left of a band is asked for, which loses no
    pair by the property stated in order._strict_block.  The band is
    cast to float32 once, and each block's right operand where it is
    multiplied."""
    n = len(t)
    order = np.argsort(t, kind="stable")
    t, xs = t[order], xs[order]
    rel = np.zeros((n, n), dtype=bool)
    covers, asym, broken = [], [], []
    for a in range((n - 1) // BLOCK * BLOCK, -1, -BLOCK):
        b = min(a + BLOCK, n)
        rows = max(1, TILE_CELLS // (n - a))
        for r in range(a, b, rows):
            s = min(r + rows, b)
            rel[r:s, a:] = _strict_block(kind, c, t[r:s], xs[r:s], t[a:], xs[a:])
        left = rel[a:b, a:].astype(np.float32)
        for j in range(a, n, BLOCK):
            k = min(j + BLOCK, n)
            two_step = (left[:, :k - a] @ rel[a:k, j:k].astype(np.float32)) > 0
            block = rel[a:b, j:k]
            ids = order[a:b, None] * n + order[j:k]  # the block's input-order cells
            if j == a:
                asym.append(ids[block & block.T])
            covers.append(ids[block > two_step])  # rel & ~two_step
            broken.append(ids[two_step > block])  # two_step & ~rel
    cells = (np.sort(np.concatenate(m)) for m in (covers, asym, broken))
    return _permute(rel, np.argsort(order)), tuple(cells)


def _permute(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """m[p][:, p], C-contiguous, so later row reads are not strided,
    gathered BLOCK rows at a time with no full-size intermediate."""
    out = np.empty(m.shape, dtype=m.dtype)
    for r in range(0, len(p), BLOCK):
        out[r:r + BLOCK] = m[p[r:r + BLOCK]].take(p, axis=1)
    return out


def hasse(fcs: FiniteCausalSet) -> list[tuple[int, int]]:
    """Edges of the transitive reduction, in lexicographic order.  For a
    finite strict order the reduction is unique: (i, j) is an edge iff
    i < j with no element strictly between, the cover cell i*n + j, so
    the ascending cells are the edges in order."""
    rows, cols = np.divmod(fcs.covers, len(fcs))
    return list(zip(rows.tolist(), cols.tolist()))


def _cover_rows(fcs: FiniteCausalSet) -> tuple[list[int], list[int]]:
    """(ends, cols): the successors of v, ascending, are
    cols[ends[v]:ends[v + 1]], the cells in [v*n, v*n + n)."""
    n = len(fcs)
    ends = np.searchsorted(fcs.covers, np.arange(n + 1) * n).tolist()
    return ends, (fcs.covers % n).tolist()


def _walk(fcs: FiniteCausalSet, skip: Sequence[int] = ()) -> Iterator[list[int]]:
    """Maximal chains disjoint from `skip`, lazily, in lexicographic
    order: a DFS over the Hasse covers, since a maximal chain of a
    finite order is a cover path from a minimal to a maximal element.
    A vertex whose subtree yields no chain is dead and never entered
    again, so reaching the first chain, or proving there is none, takes
    each cover once.  With `skip` empty nothing dies: every chain comes.
    A vertex's successors are its slice of _cover_rows."""
    ends, cols = _cover_rows(fcs)
    roots = fcs.minimal.tolist()
    dead = set(skip)
    found = 0  # chains yielded so far
    path: list[int] = []
    # One frame per vertex on the path, plus the roots' frame: the
    # successors still to try, and `found` when the vertex was entered.
    stack = [(iter(roots), found)]
    while stack:
        ups, before = stack[-1]
        nxt = next(ups, None)
        if nxt is None:
            stack.pop()
            if path:
                v = path.pop()
                if found == before:
                    dead.add(v)
        elif nxt in dead:
            continue
        else:
            row = cols[ends[nxt]:ends[nxt + 1]]
            if row:
                path.append(nxt)
                stack.append((iter(row), found))
            else:
                found += 1
                yield path + [nxt]


def _chain_index(fcs: FiniteCausalSet) -> tuple[list[list[int]], list, int]:
    """The successor lists of _cover_rows, with the minimal
    elements as the successors of a virtual last vertex n; for each
    vertex with successors, the running sums of their numbers of cover
    paths to a maximal element; and the number of maximal chains, the
    paths from n.  One pass over a linear extension, last vertex first:
    sorting stably by the number of elements below is one, in every
    order and direction, since u < v puts more below v than below u."""
    n = len(fcs)
    ends, cols = _cover_rows(fcs)
    succ = [cols[a:b] for a, b in zip(ends, ends[1:])]
    succ.append(fcs.minimal.tolist())
    paths = [1] * n
    sums: list = [None] * (n + 1)
    for v in np.argsort(fcs.relation.sum(axis=0), kind="stable")[::-1].tolist():
        if succ[v]:
            sums[v] = list(accumulate([paths[w] for w in succ[v]]))
            paths[v] = sums[v][-1]
    sums[n] = list(accumulate([paths[r] for r in succ[n]]))
    return succ, sums, sums[n][-1] if n else 0


def count_maximal_chains(fcs: FiniteCausalSet) -> int:
    """The number of maximal chains, exactly, with no cap: each is a
    cover path from a minimal to a maximal element, counted in one pass
    that reads each cover once."""
    return _chain_index(fcs)[2]


class _MaximalChains(Sequence):
    """The maximal chains of a set as a read-only sequence of index
    lists, in lexicographic order, none built until asked for.  An index
    unranks its chain by bisecting the running path counts of the
    successors along it; a slice returns a list; iteration is the lazy
    walk.  len raises OverflowError above sys.maxsize, as range does;
    count_maximal_chains gives the count then."""

    def __init__(self, fcs: FiniteCausalSet) -> None:
        self._fcs = fcs
        self._succ, self._sums, self._total = _chain_index(fcs)

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
        v, chain = len(self._fcs), []
        while self._succ[v]:
            sums = self._sums[v]
            k = bisect_right(sums, i)
            if k:
                i -= sums[k - 1]
            v = self._succ[v][k]
            chain.append(v)
        return chain

    def __bool__(self) -> bool:  # without len, so a huge count is still true
        return self._total > 0

    def __iter__(self) -> Iterator[list[int]]:
        return _walk(self._fcs)


def maximal_chains(fcs: FiniteCausalSet) -> Sequence[list[int]]:
    """All maximal chains as index lists, in lexicographic order: a
    lazy, indexable view, so the caller bounds the work by slicing or
    with itertools.islice."""
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
    # Row-major order of the upper triangle is the order of the pairs
    # (a, b), a < b, so the first hit is the first comparable pair.
    hits = np.argwhere(np.triu(sub | sub.T, 1))
    if len(hits):
        a, b = hits[0]
        raise ValueError(f"not an antichain: events {idx[a]} and {idx[b]} are comparable")
    return idx


def find_avoiding_chain(
    fcs: FiniteCausalSet, antichain: Sequence[int]
) -> list[int] | None:
    """Lexicographically first maximal chain disjoint from the
    antichain, or None.  One pruned walk over the covers, with no
    enumeration of the other chains."""
    return next(_walk(fcs, _check_antichain(fcs, antichain)), None)


def is_cutset(fcs: FiniteCausalSet, antichain: Sequence[int]) -> bool:
    """Whether the antichain meets every maximal chain of the set."""
    return find_avoiding_chain(fcs, antichain) is None


def _value_ids(t: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """An id per event, shared by the events equal to it in value: equal
    rows by exact coordinate comparison, as Event equality decides it
    (-0.0 == 0.0), are adjacent once sorted."""
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
    i (witnesses equal in value to either endpoint are skipped).  As
    the module docstring shows, that is rel[i, j] or bit i of the AND
    of the columns of rel | equal at j's covers, packed in 64-bit
    words; the AND of no cover has every bit set.

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
    step = max(n, 4096)  # cover rows per gather, n / 8 bytes each
    for lo in range(0, len(fcs.covers), step):
        js, cs = np.divmod(fcs.covers[lo:lo + step], n)
        heads = np.flatnonzero(np.diff(js, prepend=-1))  # each j's first cover here
        meet[js[heads]] &= np.bitwise_and.reduceat(cols[cs], heads, axis=0)
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
    # argwhere's row-major order is the lexicographic order of the
    # samples, and the rows up to the one that holds the sample_cap-th
    # differing cell hold them all.
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
