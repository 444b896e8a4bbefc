"""Finite event sets under the space-time orders: sprinkling, relation
matrices, Hasse diagrams, chain/antichain enumeration, cutset checks,
and reconstruction of the causal order from the subluminal one.

Relation matrices hold the strict relation (diagonal False), indexed in
input order.  They are built by order._strict_matrix, the batched form
of order.py's strict cone predicate, so matrix and scalar routes agree
bit for bit; the order axioms are re-verified on every construction and
a violation aborts, since it would mean the predicate is broken.

In all three orders u < v implies t_u < t_v, so a set sorted by time
(stably) has a strictly upper triangular relation.  Sets of more than
order.BLOCK events are worked on in that order, in BLOCK-wide blocks:
_strict_matrix evaluates only the row bands against the columns from
the band on, and the two-step relation (behind the transitivity check
and the Hasse covers) sums each output block only over the span of
blocks where both factors hold a True cell.  Every block left out is
zero, in any matrix, so both results are exact, and they are permuted
back to input order.  Reconstruction's witness counts use one symmetric
product R R^T instead.

The products run as float32 BLAS matmuls on 0/1 matrices.  They are
exact: every entry of a product, whole or over a span of blocks, is an
integer count of at most n <= MAX_EVENTS < 2**24, and every partial sum
is a smaller such count, so each is representable in float32 and no
summation order, blocking or fused multiply-add can round it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .order import BLOCK, MAX_SPACE_DIM, Event, OrderKind, OrderSpec, _permute, _strict_matrix

MAX_EVENTS = 2000
MAX_ANTICHAIN_EVENTS = 24
DEFAULT_CHAIN_CAP = 1_000_000


class CapExceeded(Exception):
    """Enumeration hit its cap; .partial holds the results found so far."""

    def __init__(self, message: str, partial: tuple):
        super().__init__(message)
        self.partial = partial


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
        if not 0 <= self.dimension <= MAX_SPACE_DIM:
            raise ValueError(f"space dimension must be in [0, {MAX_SPACE_DIM}]")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if len(box) != self.dimension + 1:
            raise ValueError(
                f"box needs {self.dimension + 1} axes (space then time), got {len(box)}"
            )
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("box axes need finite lo < hi")
        object.__setattr__(self, "box", box)


def sprinkle(cfg: SprinkleConfig) -> list[Event]:
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([a for a, _ in cfg.box])
    hi = np.array([b for _, b in cfg.box])
    draws = rng.uniform(lo, hi, size=(cfg.count, cfg.dimension + 1))
    return [
        Event(float(row[-1]), tuple(float(v) for v in row[:-1])) for row in draws
    ]


@dataclass(frozen=True)
class FiniteCausalSet:
    """Events plus the strict relation matrix of the chosen order, its
    two-step relation (two_step[i, j] when some k has i < k < j), its
    Hasse covers (relation & ~two_step) and its minimal elements (the
    indices, ascending, of the events with nothing below them).  All
    four are functions of events and spec, so equality and hashing use
    those two alone."""

    events: tuple[Event, ...]
    spec: OrderSpec
    relation: np.ndarray = field(repr=False, compare=False)
    two_step: np.ndarray = field(repr=False, compare=False)
    covers: np.ndarray = field(repr=False, compare=False)
    minimal: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.events)


def build(events: Sequence[Event], spec: OrderSpec) -> FiniteCausalSet:
    """Construct the relation matrix and verify the strict-order axioms.

    Irreflexivity holds by construction; antisymmetry and transitivity
    are checked explicitly, on the input-order matrices, and a failure
    aborts, because it could only come from a broken predicate.  The
    two-step relation is computed in time order, where _two_step skips
    the all-zero blocks.
    """
    evs = tuple(events)
    if len(evs) > MAX_EVENTS:
        raise ValueError(f"at most {MAX_EVENTS} events supported, got {len(evs)}")
    if evs:
        n = evs[0].n
        for e in evs:
            if e.n != n:
                raise ValueError("all events must share one space dimension")
    rel = _strict_matrix(evs, spec)
    anti = rel & rel.T
    if anti.any():  # ndarray.any: np.any's overhead outweighs a tiny set's check
        i, j = map(int, np.argwhere(anti)[0])
        raise RuntimeError(f"antisymmetry violated at pair ({i}, {j})")
    two_step = _two_step(rel, [e.t for e in evs])
    closure_gap = two_step & ~rel
    if closure_gap.any():
        i, j = map(int, np.argwhere(closure_gap)[0])
        raise RuntimeError(f"transitivity violated at pair ({i}, {j})")
    covers = rel & ~two_step
    minimal = (~rel.any(axis=0)).nonzero()[0]
    for m in (rel, two_step, covers, minimal):
        m.flags.writeable = False
    return FiniteCausalSet(evs, spec, rel, two_step, covers, minimal)


def _two_step(rel: np.ndarray, t: Sequence[float]) -> np.ndarray:
    """(rel @ rel) > 0 for a square boolean matrix on events at times t.
    Above BLOCK events, the matrix is sorted by time (stably) and
    multiplied as a product of BLOCK-wide blocks: output block (I, J)
    sums over the span of K blocks from the first to the last K at which
    both factors, rel[I, K] and rel[K, J], hold a True cell, and is
    False when there is none.  The blocks outside the span contribute
    zero, so the result is exact for any matrix, whatever its order.  A
    strict relation sorted by time is strictly upper triangular: the
    span of (I, J) is I..J, and the work falls towards a sixth of the
    full product's as the number of blocks grows."""
    n = len(rel)
    if n <= BLOCK:  # one block: nothing to skip
        rf = rel.astype(np.float32)
        return (rf @ rf) > 0
    order = np.argsort(t, kind="stable")
    rel = _permute(rel, order)
    rf = rel.astype(np.float32)
    starts = np.arange(0, n, BLOCK)
    nz = np.logical_or.reduceat(np.logical_or.reduceat(rel, starts, axis=0), starts, axis=1)
    both = nz[:, :, None] & nz[None, :, :]  # both[I, K, J]
    first = both.argmax(axis=1)
    last = len(starts) - both[:, ::-1, :].argmax(axis=1)  # one past the span
    out = np.zeros((n, n), dtype=bool)
    for i, j in np.argwhere(both.any(axis=1)):
        rows = slice(i * BLOCK, (i + 1) * BLOCK)
        cols = slice(j * BLOCK, (j + 1) * BLOCK)
        span = slice(first[i, j] * BLOCK, last[i, j] * BLOCK)
        np.greater(rf[rows, span] @ rf[span, cols], 0, out=out[rows, cols])
    return _permute(out, np.argsort(order))  # back to input order


def hasse(fcs: FiniteCausalSet) -> list[tuple[int, int]]:
    """Edges of the transitive reduction, in lexicographic order.  For a
    finite strict order the reduction is unique: (i, j) is an edge iff
    i < j with no element strictly between."""
    rows, cols = np.nonzero(fcs.covers)
    return list(zip(rows.tolist(), cols.tolist()))


def _walk(fcs: FiniteCausalSet, skip: Sequence[int] = ()) -> Iterator[list[int]]:
    """Maximal chains disjoint from `skip`, lazily, in lexicographic
    order: a DFS over the Hasse covers, since a maximal chain of a
    finite order is a cover path from a minimal to a maximal element.
    A vertex whose subtree yields no chain is dead and never entered
    again, so reaching the first chain, or proving there is none, takes
    each cover once.  With `skip` empty nothing dies: every chain comes.
    A vertex's successor list is read off its covers row when the walk
    first enters it, so a walk pruned at the roots reads no row."""
    covers = fcs.covers
    succ: list[list[int] | None] = [None] * len(fcs)
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
            row = succ[nxt]
            if row is None:
                row = succ[nxt] = np.flatnonzero(covers[nxt]).tolist()
            if row:
                path.append(nxt)
                stack.append((iter(row), found))
            else:
                found += 1
                yield path + [nxt]


def maximal_chains(
    fcs: FiniteCausalSet, cap: int = DEFAULT_CHAIN_CAP
) -> list[list[int]]:
    """All maximal chains as index lists, in lexicographic order;
    CapExceeded carries the first `cap` when enumeration overruns."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    out: list[list[int]] = []
    for chain in _walk(fcs):
        if len(out) >= cap:
            raise CapExceeded(f"more than {cap} maximal chains", tuple(out))
        out.append(chain)
    return out


def maximal_antichains(fcs: FiniteCausalSet) -> list[list[int]]:
    """All maximal antichains: maximal cliques of the incomparability
    graph, via pivoted Bron-Kerbosch.  Limited to 24 events, so by the
    Moon-Moser bound there are at most 3**8 of them; output is sorted
    lexicographically."""
    n_ev = len(fcs)
    if n_ev > MAX_ANTICHAIN_EVENTS:
        raise ValueError(
            f"full antichain enumeration supports at most {MAX_ANTICHAIN_EVENTS} events"
        )
    rel = fcs.relation
    nbr = [
        {j for j in range(n_ev) if j != i and not rel[i, j] and not rel[j, i]}
        for i in range(n_ev)
    ]
    found: list[list[int]] = []

    def bk(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            found.append(sorted(r))
            return
        pivot = min(sorted(p | x), key=lambda v: (-len(p & nbr[v]), v))
        for v in sorted(p - nbr[pivot]):
            bk(r | {v}, p & nbr[v], x & nbr[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(n_ev)), set())
    found.sort()
    return found


def _check_antichain(fcs: FiniteCausalSet, indices: Sequence[int]) -> list[int]:
    idx = list(indices)
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


def reconstruct_order(fcs: FiniteCausalSet) -> np.ndarray:
    """Causal relation recovered from a subluminal set, using the set's
    own events as witnesses: i related to j when i is subluminally below
    j, or when every witness subluminally above j is subluminally above
    i (witnesses equal in value to either endpoint are skipped).

    The result is a superset of the true strict causal relation on the
    same events; sparse regions may add false positives, never false
    negatives.
    """
    if fcs.spec.kind is not OrderKind.SUBLUMINAL:
        raise ValueError("reconstruction expects a subluminal relation")
    rel = fcs.relation
    # counts[i, j] = number of witnesses w with j <' w but not i <' w,
    # over w not equal in value to i or j: the |above j| witnesses above
    # j, less the (R R^T)[i, j] above both.  Witnesses equal to j add
    # nothing (equal events are unrelated); each of the mult[i] witnesses
    # equal to i adds rel[j, i], which the last subtraction removes.
    # rf @ rf.T is one symmetric rank-k product (numpy sees the
    # transpose of the same buffer), exact in float32 like every count.
    per_value = Counter(fcs.events)
    mult = np.array([per_value[e] for e in fcs.events], dtype=np.float32)
    rf = rel.astype(np.float32)
    counts = rf @ rf.T
    np.subtract(rf.sum(axis=1), counts, out=counts)
    rf *= mult
    counts -= rf.T
    rec = rel | (counts == 0)
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
