"""Finite sprinkled posets: relation matrices, Hasse reduction,
maximal chain counts and views, antichain enumeration, cutsets, and
matrix-level reconstruction."""

import copy
import dataclasses
import math
import pickle
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from causalorder import finite
from causalorder.cones import cone_order_leq, standard_cone
from causalorder.finite import (
    MAX_ANTICHAIN_EVENTS,
    MAX_EVENTS,
    SprinkleConfig,
    build,
    compare_relations,
    count_maximal_chains,
    find_avoiding_chain,
    hasse,
    is_cutset,
    maximal_antichains,
    maximal_chains,
    reconstruct_order,
    sprinkle,
)
from causalorder.order import (
    TILE_CELLS,
    Direction,
    Event,
    OrderKind,
    OrderSpec,
    PairClass,
    apply_dilation,
    apply_space_isometry,
    classify_pair,
    event,
    leq,
    reconstruct_causal_analytic,
    reconstruct_causal_sampled,
    _coordinates,
    _strict_block,
)

CAUSAL = OrderSpec(OrderKind.CAUSAL, 1.0)
SUBLUMINAL = OrderSpec(OrderKind.SUBLUMINAL, 1.0)
TEMPORAL = OrderSpec(OrderKind.TEMPORAL)

BOX2 = ((-5.0, 5.0), (-5.0, 5.0), (0.0, 10.0))


def sprinkle2(count, seed):
    return sprinkle(SprinkleConfig(count, 2, BOX2, seed))


# --------------------------------------------------------------- sprinkling

def test_sprinkle_determinism_and_bounds():
    a = sprinkle2(50, 1)
    b = sprinkle2(50, 1)
    assert a == b
    assert a != sprinkle2(50, 2)
    for e in a:
        assert 0.0 <= e.t <= 10.0
        assert all(-5.0 <= v <= 5.0 for v in e.x)
    assert sprinkle2(0, 0) == []


def test_sprinkle_rejects_bad_box():
    with pytest.raises(ValueError):
        SprinkleConfig(5, 1, ((1.0, 0.0), (0.0, 1.0)), 0)
    with pytest.raises(ValueError):
        SprinkleConfig(5, 2, ((0.0, 1.0),), 0)


# ------------------------------------------------------------------- build

def test_build_frozen_small_sets():
    chain = [event(0.0, 0.0), event(1.0, 0.2), event(2.0, 0.0)]
    fcs = build(chain, CAUSAL)
    assert int(fcs.relation.sum()) == 3
    anti = [event(0.0, float(i)) for i in range(4)]
    assert int(build(anti, CAUSAL).relation.sum()) == 0
    assert int(build([event(1.0, 1.0)], CAUSAL).relation.sum()) == 0


def test_build_matches_scalar_leq():
    # vectorized relation kernel against the scalar predicate, all pairs;
    # the integer grids put many pairs exactly on the cone (3-4-5 in 2+1),
    # and c * dt and the squared offset of the last pair overflow to inf
    grid1 = [event(float(t), float(x)) for t in range(4) for x in range(-3, 4)]
    grid2 = [event(float(t), float(x), float(y))
             for t in (0, 5) for x in (0, 3, 4) for y in (0, 3, 4)]
    overflow = [event(0.0, 0.0), event(1e308, 1e300)]
    for events, c in ((sprinkle2(80, 5), 1.0), (grid1, 1.0), (grid2, 1.0), (overflow, 10.0)):
        for kind in OrderKind:
            spec = OrderSpec(kind, c)
            fcs = build(events, spec)
            for i, u in enumerate(events):
                for j, v in enumerate(events):
                    expected = i != j and u != v and leq(spec, u, v)
                    assert bool(fcs.relation[i, j]) == expected


def test_overflow_pair_agrees_on_every_route():
    # exact arithmetic: 1e300 < 10 * 1e308, so v is time-like above u
    u, v = event(0.0, 0.0), event(1e308, 1e300)
    spec = OrderSpec(OrderKind.CAUSAL, 10.0)
    assert leq(spec, u, v)
    assert classify_pair(u, v, 10.0) in (PairClass.TIMELIKE_FORWARD, PairClass.LIGHTLIKE_FORWARD)
    assert build([u, v], spec).relation.tolist() == [[False, True], [False, False]]
    assert reconstruct_causal_analytic(u, v, 10.0)
    cone = standard_cone(OrderKind.CAUSAL, Direction.FORWARD, 10.0, 1)
    assert cone_order_leq(cone, u, v)


def test_finite_sets_compare_by_events_and_spec():
    events = sprinkle2(10, 6)
    a, b = build(events, CAUSAL), build(events, CAUSAL)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != build(events, SUBLUMINAL)
    assert a != build(events[:-1], CAUSAL)
    # the minimal elements, made on first use, change neither equality
    # nor hash, and survive copies made before and after that use
    minimal = np.flatnonzero(~a.relation.any(axis=0))
    assert len(minimal) > 1
    twins = [pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)]
    assert np.array_equal(a.minimal, minimal) and a == b and hash(a) == hash(b)
    twins += [pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)]
    for twin in twins:
        assert twin == a and hash(twin) == hash(a)
        assert np.array_equal(twin.minimal, minimal)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.minimal = minimal[1:]
    assert np.array_equal(a.minimal, minimal)


def test_build_backward_is_transpose():
    events = sprinkle2(60, 9)
    fwd = build(events, CAUSAL).relation
    bwd = build(events, OrderSpec(OrderKind.CAUSAL, 1.0, Direction.BACKWARD)).relation
    assert np.array_equal(bwd, fwd.T)


def test_relation_nesting_subluminal_causal_temporal():
    events = sprinkle2(120, 3)
    sub = build(events, SUBLUMINAL).relation
    cau = build(events, CAUSAL).relation
    tem = build(events, TEMPORAL).relation
    assert not (sub & ~cau).any()
    assert not (cau & ~tem).any()


def test_relation_invariant_under_isometry_and_dilation():
    events = sprinkle2(40, 17)
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    b = tuple(float(v) for v in rng.uniform(-3, 3, 2))
    moved = [apply_dilation(2.0, apply_space_isometry(q, b, e)) for e in events]
    for spec in (CAUSAL, SUBLUMINAL):
        assert np.array_equal(build(events, spec).relation, build(moved, spec).relation)


def test_build_rejects_oversized_input():
    with pytest.raises(ValueError, match=f"at most {MAX_EVENTS} events supported, got 4097"):
        build([event(float(t), 0.0) for t in range(4097)], CAUSAL)


def test_build_names_the_first_dimension_that_differs():
    # one (n, dim) coordinate array, 0 events and 0-D included; a ragged
    # set names the first event's dimension and the first that differs
    for events, dim in (([], 0), ([event(0.0), event(1.0)], 0), ([event(0.0, 1.0, 2.0)], 2)):
        t, xs = _coordinates(events)
        assert t.shape == (len(events),) and xs.shape == (len(events), dim)
    for events, message in (([event(0, 0), event(0, 5), event(1, 0, 0)], "1 vs 2"),
                            ([event(0), event(1, 2), event(2)], "0 vs 1"),
                            ([event(0, 1, 2), event(1)], "2 vs 0")):
        with pytest.raises(ValueError, match=rf"^dimension mismatch: {message}$"):
            build(events, CAUSAL)


def test_float32_products_are_exact_up_to_max_events():
    # float32 products are taken only on one kernel tile (counts of at
    # most 256 events) and by the cover walk on 64 x 64 word blocks
    # (counts of at most 64): integers below MAX_EVENTS < 2**24
    assert MAX_EVENTS == 4096 < 2**24


def test_banded_build_and_reconstruction_hold_no_float32_square(monkeypatch):
    # A float32 copy of an n x n relation alone takes 4n^2 bytes, and a
    # bool one n^2.  build holds the relation in input order and, packed
    # in time order, its rows and the cover walk's candidates (n^2 / 8
    # bytes each); reconstruct_order one padded bool copy of the
    # relation's columns (freed once packed), its 64-bit packings of
    # n^2 / 8 bytes each, the unpacked meets and its result.  A build that
    # fails its axiom check unpacks its time-ordered relation for the
    # exact cells and raises before the relation in input order would be
    # made, so it holds no more than one bool square either.
    n = 2000
    events = sprinkle2(n, 3)
    _, v, w = _violating_triple(  # w after v in time, where the kernel is asked
        events, ((u, v, w) for u in range(WORD) for v in range(u + 1, n) for w in range(v + 1, n))
    )
    tracemalloc.start()
    try:
        build(events, CAUSAL)
        build_peak = tracemalloc.get_traced_memory()[1]
        sub = build(events, SUBLUMINAL)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        reconstruct_order(sub)
        rec_alloc = tracemalloc.get_traced_memory()[1] - base
        del sub
        monkeypatch.setattr(finite, "_strict_block", _with_pairs(events, [(v, w)]))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(RuntimeError, match=r"^transitivity violated at pair "):
            build(events, CAUSAL)
        failing_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert build_peak <= 2 * n * n
    assert failing_peak <= 2 * n * n
    assert rec_alloc <= 3 * n * n


def _diamond_sprinkle(n, dim, seed):
    """n events uniform in the causal diamond |x| <= 1 - |t| of 1+dim
    space-time, by rejection from its bounding box."""
    rng = np.random.default_rng(seed)
    events = []
    while len(events) < n:
        p = rng.uniform(-1.0, 1.0, (n, dim + 1))  # time last
        inside = p[np.linalg.norm(p[:, :-1], axis=1) <= 1.0 - np.abs(p[:, -1])]
        events += [Event(float(q[-1]), tuple(q[:-1].tolist())) for q in inside]
    return events[:n]


@pytest.mark.parametrize("d, fraction, seed", [(2, 0.5, 21), (3, 0.2286, 22), (4, 0.1, 23)])
def test_ordering_fraction_matches_the_continuum(d, fraction, seed):
    # A uniform sprinkle into a causal diamond of d-dimensional Minkowski
    # space relates a fraction 2f(d) = G(d+1)G(d/2) / (2G(3d/2)) of its
    # pairs.  The sample fraction is a U-statistic of order 2; Hoeffding's
    # variance gives its standard error from the spread of each event's
    # own fraction of related partners, and the bound is four of them.
    exact = math.gamma(d + 1) * math.gamma(d / 2) / (2 * math.gamma(3 * d / 2))
    assert exact == pytest.approx(fraction, abs=5e-5)
    n = 2000
    rel = build(_diamond_sprinkle(n, d - 1, seed), CAUSAL).relation
    related = rel | rel.T
    frac = rel.sum() / (n * (n - 1) / 2)
    per_event = related.sum(axis=1) / (n - 1)
    var = (4 * (n - 2) * per_event.var() + 2 * frac * (1 - frac)) / (n * (n - 1))
    assert abs(frac - exact) <= 4 * math.sqrt(var)


def _doctored(rel):
    """A kernel for finite.build to call in place of _strict_block: it
    answers a set that fits one tile with the given matrix."""
    return lambda kind, c, ta, xa, tb, xb: rel.copy()


def test_build_rejects_non_transitive_matrix(monkeypatch):
    rel = np.zeros((3, 3), dtype=bool)
    rel[0, 1] = rel[1, 2] = True
    monkeypatch.setattr(finite, "_strict_block", _doctored(rel))
    with pytest.raises(RuntimeError, match=r"transitivity violated at pair \(0, 2\)"):
        build(sprinkle2(3, 0), CAUSAL)


def test_build_rejects_antisymmetry_violation(monkeypatch):
    rel = np.zeros((2, 2), dtype=bool)
    rel[0, 1] = rel[1, 0] = True
    monkeypatch.setattr(finite, "_strict_block", _doctored(rel))
    with pytest.raises(RuntimeError, match="antisymmetry violated"):
        build(sprinkle2(2, 0), CAUSAL)


def _two_step(rel):
    """Brute force: (i, j) when some k has i < k < j, the union of the
    rows of the events above i."""
    rows = [rel[rel[i]].any(axis=0) for i in range(len(rel))]
    return np.array(rows, dtype=bool).reshape(rel.shape)


def _dense_covers(fcs):
    """The covers as an n x n bool matrix, rebuilt from their cells."""
    n = len(fcs)
    m = np.zeros(n * n, dtype=bool)
    m[fcs.covers] = True
    return m.reshape(n, n)


def test_two_step_relation_is_read_only():
    fcs = build(sprinkle2(20, 4), CAUSAL)
    rel = fcs.relation
    expected = np.array(
        [[any(rel[i, k] and rel[k, j] for k in range(20)) for j in range(20)]
         for i in range(20)]
    )
    assert expected.any()
    assert np.array_equal(rel & ~_dense_covers(fcs), expected)
    assert not fcs.covers.flags.writeable
    assert "covers" not in repr(fcs)
    assert not hasattr(fcs, "two_step")


# ------------------------------------------------------- hasse, enumeration

def _diamond():
    # a < b, a < c, b < d, c < d with b, c spacelike
    return build(
        [event(0.0, 0.0), event(1.0, 0.6), event(1.0, -0.6), event(2.0, 0.0)],
        CAUSAL,
    )


def test_hasse_frozen_examples():
    chain3 = build([event(0.0, 0.0), event(1.0, 0.0), event(2.0, 0.0)], CAUSAL)
    assert hasse(chain3) == [(0, 1), (1, 2)]
    anti = build([event(0.0, float(i)) for i in range(3)], CAUSAL)
    assert hasse(anti) == []
    assert hasse(_diamond()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_hasse_closure_roundtrip():
    events = sprinkle2(60, 23)
    fcs = build(events, CAUSAL)
    n = len(events)
    closure = np.zeros((n, n), dtype=bool)
    for i, j in hasse(fcs):
        closure[i, j] = True
    # Floyd-Warshall style closure, small n
    reach = closure.copy()
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    assert np.array_equal(reach, fcs.relation)


def _small_sets():
    """Small random sets in 1+1 and 2+1, some with duplicated events,
    then integer-grid sets (many exactly light-like pairs) with up to
    four extra copies of their events."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for dim in (1, 2):
            box = ((-1.0, 1.0),) * dim + ((0.0, 2.0),)
            events = sprinkle(SprinkleConfig(12, dim, box, seed))
            if seed % 2:
                events += [events[int(k)] for k in rng.choice(12, 3)]
            yield events
    rng = np.random.default_rng(41)
    for trial in range(24):
        dim = 1 + trial % 2
        events = [Event(float(r[0]), tuple(float(v) for v in r[1:]))
                  for r in rng.integers(-2, 3, (10, dim + 1))]
        events += [events[int(k)] for k in rng.choice(10, int(rng.integers(1, 5)))]
        yield events


def _hasse_reference(rel):
    n = len(rel)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if rel[i, j] and not any(rel[i, k] and rel[k, j] for k in range(n))
    ]


def _reconstruct_reference(events, rel):
    n = len(events)
    rec = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            witnesses = [
                w for w in range(n) if events[w] not in (events[i], events[j])
            ]
            rec[i, j] = rel[i, j] or all(rel[i, w] for w in witnesses if rel[j, w])
    return rec


def test_hasse_matches_reference_all_orders():
    for events in _small_sets():
        for kind in OrderKind:
            for direction in Direction:
                fcs = build(events, OrderSpec(kind, 1.0, direction))
                assert hasse(fcs) == _hasse_reference(fcs.relation)


def test_reconstruct_matches_reference():
    for events in _small_sets():
        for direction in Direction:
            fcs = build(events, OrderSpec(OrderKind.SUBLUMINAL, 1.0, direction))
            rec = reconstruct_order(fcs)
            assert np.array_equal(rec, _reconstruct_reference(events, fcs.relation))
        # forward, against the scalar finite-witness predicate
        rec = reconstruct_order(build(events, SUBLUMINAL))
        for i, u in enumerate(events):
            for j, v in enumerate(events):
                expected = i != j and reconstruct_causal_sampled(u, v, 1.0, events)
                assert bool(rec[i, j]) == expected
    with pytest.raises(ValueError):
        reconstruct_order(build(sprinkle2(5, 0), CAUSAL))


def test_maximal_chains_frozen():
    chain3 = build([event(0.0, 0.0), event(1.0, 0.0), event(2.0, 0.0)], CAUSAL)
    assert list(maximal_chains(chain3)) == [[0, 1, 2]]
    anti = build([event(0.0, float(i)) for i in range(3)], CAUSAL)
    assert list(maximal_chains(anti)) == [[0], [1], [2]]
    assert list(maximal_chains(_diamond())) == [[0, 1, 3], [0, 2, 3]]


def _cover_paths(fcs):
    """Every cover path from a minimal to a maximal element, lazily, by
    recursion over hasse's edges: in lexicographic order, since the
    edges come in that order and no maximal chain is a prefix of
    another."""
    succ = [[] for _ in range(len(fcs))]
    for i, j in hasse(fcs):
        succ[i].append(j)

    def up(path):
        if not succ[path[-1]]:
            yield path
        for w in succ[path[-1]]:
            yield from up(path + [w])

    for m in fcs.minimal.tolist():
        yield from up([m])


def test_chain_count_and_view_match_the_cover_paths():
    # the count against the enumerated cover paths, and every index and
    # slice of the view against the list, on every small set and the
    # empty one
    slices = [slice(None), slice(2, None), slice(None, -3), slice(-5, -1),
              slice(1, None, 3), slice(None, None, -1), slice(-2, 0, -4), slice(7, 3)]
    for events in [*_small_sets(), []]:
        for kind in OrderKind:
            for direction in Direction:
                fcs = build(events, OrderSpec(kind, 1.0, direction))
                walk = list(_cover_paths(fcs))
                assert walk == sorted(walk)
                view = maximal_chains(fcs)
                assert count_maximal_chains(fcs) == len(view) == len(walk)
                assert list(view) == walk
                assert [view[i] for i in range(-len(walk), len(walk))] == walk + walk
                for sl in slices:
                    assert view[sl] == walk[sl]
                for i in (len(walk), -len(walk) - 1):
                    with pytest.raises(IndexError):
                        view[i]


def test_wide_fan_out_view_matches_the_cover_paths():
    # one event below 4095 mutually space-like ones: the root's 4095
    # successors, each one chain, unranked and walked in index order
    events = [event(0.0, 0.0)] + [event(1e4, float(x)) for x in range(-2047, 2048)]
    fcs = build(events, CAUSAL)
    expected = [[0, k] for k in range(1, MAX_EVENTS)]
    assert list(_cover_paths(fcs)) == expected
    view = maximal_chains(fcs)
    assert view[:] == list(view) == expected


def test_empty_and_one_event_sets_have_no_covers():
    for events, chains in (([], []), ([event(0.0, 0.0)], [[0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # n = 0 divides the empty cells by 0
            fcs = build(events, CAUSAL)
            assert hasse(fcs) == []
            assert count_maximal_chains(fcs) == len(chains)
            assert list(maximal_chains(fcs)) == chains
            assert find_avoiding_chain(fcs, []) == (chains[0] if chains else None)
            assert find_avoiding_chain(fcs, range(len(events))) is None


def test_chain_count_past_sys_maxsize():
    # 64 layers of two events, each below both of the next layer: a
    # chain picks one event per layer, so there are 2**64 of them, and
    # chain i picks the odd event of layer k when bit 63 - k of i is set
    ladder = build([event(float(k), x) for k in range(64) for x in (0.0, 0.1)], CAUSAL)
    assert count_maximal_chains(ladder) == 2**64
    view = maximal_chains(ladder)
    with pytest.raises(OverflowError, match="count_maximal_chains"):
        len(view)
    assert view and not maximal_chains(build([], CAUSAL))
    assert view[0] == list(range(0, 128, 2))
    assert view[2**63] == [1] + list(range(2, 128, 2))
    assert view[-1] == view[2**64 - 1] == list(range(1, 128, 2))
    assert view[2**64 - 2:] == [view[-2], view[-1]]
    assert view[:3] == [chain for _, chain in zip(range(3), view)]
    with pytest.raises(IndexError):
        view[2**64]


def test_maximal_antichains_frozen():
    chain3 = build([event(0.0, 0.0), event(1.0, 0.0), event(2.0, 0.0)], CAUSAL)
    assert maximal_antichains(chain3) == [[0], [1], [2]]
    anti = build([event(0.0, float(i)) for i in range(3)], CAUSAL)
    assert maximal_antichains(anti) == [[0, 1, 2]]
    assert maximal_antichains(_diamond()) == [[0], [1, 2], [3]]


def test_maximal_antichains_size_cap():
    events = sprinkle2(25, 2)
    with pytest.raises(ValueError):
        maximal_antichains(build(events, CAUSAL))


def test_maximal_antichains_reach_moon_moser_bound():
    # eight mutually space-like three-event chains: 24 events with the
    # most maximal antichains any 24-vertex graph allows, 3**8
    events = [event(float(t), 10.0 * c) for c in range(8) for t in range(3)]
    antichains = maximal_antichains(build(events, CAUSAL))
    assert len(antichains) == 3**8
    assert antichains[0] == list(range(0, 24, 3)) and antichains[-1] == list(range(2, 24, 3))


def test_maximal_antichains_are_maximal():
    events = sprinkle2(18, 31)
    fcs = build(events, CAUSAL)
    rel = fcs.relation
    for ac in maximal_antichains(fcs):
        for i in ac:
            for j in ac:
                assert not rel[i, j]
        outside = set(range(len(events))) - set(ac)
        for o in outside:
            assert any(rel[o, i] or rel[i, o] for i in ac)


def _maximal_antichains_reference(fcs):
    """The set-based pivoted Bron-Kerbosch that the bitmask form
    replaced, kept as the reference it must equal list for list."""
    n_ev = len(fcs)
    rel = fcs.relation
    nbr = [
        {j for j in range(n_ev) if j != i and not rel[i, j] and not rel[j, i]}
        for i in range(n_ev)
    ]
    found = []

    def bk(r, p, x):
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


def _antichain_sets(max_events, count, seed):
    """Random 1+1 and 2+1 sets, of every size from max_events down to 0
    and then of random sizes, with varying space-like spread; in every
    other pair of sets one to three events copy earlier ones."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        dim = 1 + trial % 2
        n = max_events - trial if trial <= max_events else int(rng.integers(max_events + 1))
        width = float(rng.choice([0.3, 1.0, 3.0]))
        box = ((-width, width),) * dim + ((0.0, 2.0),)
        events = sprinkle(SprinkleConfig(n, dim, box, seed * 1000 + trial))
        if trial % 4 >= 2 and n > 1:
            copies = int(rng.integers(1, min(4, n)))
            events[n - copies:] = [events[int(k)] for k in rng.choice(n - copies, copies)]
        yield events


def _all_specs():
    return [OrderSpec(kind, 1.0, direction) for kind in OrderKind for direction in Direction]


def test_maximal_antichains_match_set_based_reference():
    sets = list(_antichain_sets(MAX_ANTICHAIN_EVENTS, 40, 12))
    sets += _small_sets()
    sets.append([event(float(t), 10.0 * c) for c in range(8) for t in range(3)])
    assert max(map(len, sets)) == MAX_ANTICHAIN_EVENTS and min(map(len, sets)) == 0
    duplicated = 0
    for events in sets:
        duplicated += len(set(events)) < len(events)
        for spec in _all_specs():
            fcs = build(events, spec)
            assert maximal_antichains(fcs) == _maximal_antichains_reference(fcs)
    assert duplicated >= 10


def _maximal_antichains_by_brute_force(fcs):
    """Every subset of the events, as a bitmask, kept when it is an
    antichain that no outside event extends."""
    n = len(fcs)
    comp = (fcs.relation | fcs.relation.T).tolist()
    members = [[i for i in range(n) if s >> i & 1] for s in range(1 << n)]
    anti = {s for s in range(1 << n)
            if not any(comp[i][j] for i in members[s] for j in members[s])}
    return sorted(members[s] for s in anti
                  if all(s | 1 << j not in anti for j in range(n) if not s >> j & 1))


def test_maximal_antichains_are_complete():
    sets = [ev for ev in _small_sets() if len(ev) <= 12]
    sets += list(_antichain_sets(12, 20, 13))
    assert max(map(len, sets)) == 12
    for events in sets:
        for spec in _all_specs():
            fcs = build(events, spec)
            assert maximal_antichains(fcs) == _maximal_antichains_by_brute_force(fcs)


def test_first_chains_of_a_large_count():
    events = sprinkle2(100, 4)
    fcs = build(events, CAUSAL)
    view = maximal_chains(fcs)
    walk = _cover_paths(fcs)
    assert view[:3] == [next(walk) for _ in range(3)]


# ----------------------------------------------------------------- cutsets

def _cutset_trio():
    return build([event(0.0, 0.0, 0.0), event(1.0, 0.0, 0.0), event(2.0, 5.0, 0.0)], CAUSAL)


def test_cutset_frozen_examples():
    fcs = _cutset_trio()
    assert list(maximal_chains(fcs)) == [[0, 1], [2]]
    assert is_cutset(fcs, [1, 2])
    assert not is_cutset(fcs, [2])
    assert find_avoiding_chain(fcs, [2]) == [0, 1]
    assert find_avoiding_chain(fcs, [1, 2]) is None


def test_cutset_rejects_comparable_input():
    with pytest.raises(ValueError, match="antichain"):
        is_cutset(_cutset_trio(), [0, 1])
    # 1 < 3 and 2 < 3 in the diamond; the first comparable pair in
    # input order is named
    with pytest.raises(ValueError) as exc:
        is_cutset(_diamond(), [1, 2, 3])
    assert str(exc.value) == "not an antichain: events 1 and 3 are comparable"
    with pytest.raises(ValueError) as exc:
        find_avoiding_chain(_diamond(), [3, 2, 1])
    assert str(exc.value) == "not an antichain: events 3 and 2 are comparable"
    # against the pair loop, on random index lists
    fcs = build(sprinkle2(30, 8), CAUSAL)
    rel = fcs.relation
    rng = np.random.default_rng(8)
    rejected = 0
    for _ in range(200):
        idx = rng.permutation(30)[: int(rng.integers(0, 8))].tolist()
        pairs = [(i, j) for a, i in enumerate(idx) for j in idx[a + 1:]
                 if rel[i, j] or rel[j, i]]
        if not pairs:
            find_avoiding_chain(fcs, idx)
            continue
        with pytest.raises(ValueError) as exc:
            find_avoiding_chain(fcs, idx)
        i, j = pairs[0]
        assert str(exc.value) == f"not an antichain: events {i} and {j} are comparable"
        rejected += 1
    assert 0 < rejected < 200


def test_antichain_indices_are_integers():
    # 0 < 1 and 2 space-like to both: a bool is the index 0 or 1, in the
    # antichain check and in the walk alike, never a mask
    fcs = _cutset_trio()
    for ac in ([True, False], [1, 0], [np.int64(1), np.int8(0)]):
        with pytest.raises(ValueError, match=r"^not an antichain: events 1 and 0 are comparable$"):
            find_avoiding_chain(fcs, ac)
    assert find_avoiding_chain(fcs, [True]) == find_avoiding_chain(fcs, [1]) == [2]
    assert find_avoiding_chain(fcs, [False]) == [2]
    assert is_cutset(fcs, [True, 2]) and not is_cutset(fcs, [False])
    for ac in ([1.0], [np.float64(0.0)], ["1"], [2, 0.5]):
        for query in (find_avoiding_chain, is_cutset):
            with pytest.raises(TypeError):
                query(fcs, ac)


def test_time_level_of_a_lattice_is_a_causal_cutset_only():
    # the paper's distinction on exact data: in the 1+1 integer lattice
    # the t = 0 level meets every maximal causal chain, but a subluminal
    # chain jumps over it from (-1, -3) to (1, -2), since both level
    # points causally between them, (0, -3) and (0, -2), are light-like
    # to one end
    events = [event(float(t), float(x)) for t in range(-3, 4) for x in range(-3, 4)]
    level = [i for i, e in enumerate(events) if e.t == 0.0]
    assert is_cutset(build(events, CAUSAL), level)
    sub = build(events, SUBLUMINAL)
    assert not is_cutset(sub, level)
    chain = [(events[i].t, events[i].x[0]) for i in find_avoiding_chain(sub, level)]
    assert chain == [(-3, -3), (-2, -3), (-1, -3), (1, -2), (2, -2), (3, -2)]
    # the same distinction as a number: how many maximal chains miss
    # each level, counted by enumeration; a level is a cutset exactly
    # when none does
    expected = {CAUSAL: (3387, {-3: 0, 0: 0, 2: 0}),
                SUBLUMINAL: (471, {-3: 0, 0: 220, 2: 262})}
    for spec, (total, misses) in expected.items():
        fcs = build(events, spec)
        chains = list(maximal_chains(fcs))
        assert len(chains) == count_maximal_chains(fcs) == total
        for t, missed in misses.items():
            at_t = {i for i, e in enumerate(events) if e.t == t}
            assert sum(not at_t & set(ch) for ch in chains) == missed
            assert is_cutset(fcs, sorted(at_t)) == (missed == 0)


def test_whole_antichain_set_is_cutset():
    anti = build([event(0.0, float(i)) for i in range(5)], CAUSAL)
    assert is_cutset(anti, list(range(5)))


def _antichain_queries(fcs, rng):
    """Every maximal antichain, and three random subsets of each,
    possibly empty."""
    for ac in maximal_antichains(fcs):
        yield ac
        for _ in range(3):
            size = int(rng.integers(0, len(ac) + 1))
            yield rng.permutation(ac)[:size].tolist()


def test_avoiding_chain_matches_enumeration():
    # the walker against the first enumerated chain disjoint from the
    # antichain, on sets of at most 20 events, some with duplicates
    rng = np.random.default_rng(5)
    sets = list(_small_sets())
    for seed in range(8):
        dim = 1 + seed % 2
        box = ((-1.0, 1.0),) * dim + ((0.0, 2.0),)
        events = sprinkle(SprinkleConfig(17, dim, box, 100 + seed))
        sets.append(events + [events[int(k)] for k in rng.choice(17, 3)])
    queries = 0
    for events in sets:
        assert len(events) <= 20
        for kind in OrderKind:
            for direction in Direction:
                fcs = build(events, OrderSpec(kind, 1.0, direction))
                chains = list(maximal_chains(fcs))
                for ac in _antichain_queries(fcs, rng):
                    expected = next((ch for ch in chains if not set(ac) & set(ch)), None)
                    assert find_avoiding_chain(fcs, ac) == expected
                    assert is_cutset(fcs, ac) == (expected is None)
                    queries += 1
    assert queries > 5000


def _chain_count_reference(fcs):
    """Cover paths counted the other way: from the minimal elements up,
    in time order, summed over the maximal elements."""
    n = len(fcs)
    into = [[] for _ in range(n)]
    for i, j in hasse(fcs):
        into[j].append(i)
    paths = [0] * n
    for j in sorted(range(n), key=lambda i: fcs.events[i].t):
        paths[j] = sum(paths[i] for i in into[j]) if into[j] else 1
    return sum(paths[i] for i in range(n) if not fcs.relation[i].any())


def test_cutset_check_at_max_events():
    # about 1e19 maximal chains: far too many to list, counted exactly;
    # 2000 events, the limit before MAX_EVENTS was 4096
    box = ((-1.0, 1.0), (-1.0, 1.0))
    fcs = build(sprinkle(SprinkleConfig(2000, 1, box, 11)), CAUSAL)
    assert count_maximal_chains(fcs) == _chain_count_reference(fcs) == 9991468692842737627
    minimal = np.flatnonzero(~fcs.relation.any(axis=0)).tolist()
    assert is_cutset(fcs, minimal)
    covers = set(hasse(fcs))
    for k in (0, len(minimal) // 2, len(minimal) - 1):
        chain = find_avoiding_chain(fcs, minimal[:k] + minimal[k + 1:])
        assert chain[0] == minimal[k]
        assert all((a, b) in covers for a, b in zip(chain, chain[1:]))
        assert not fcs.relation[chain[-1]].any()


def test_chain_count_and_cutset_at_max_events():
    # the largest set build accepts: about 4.5e26 maximal chains, and
    # the minimal elements meet every one
    box = ((-1.0, 1.0), (-1.0, 1.0))
    fcs = build(sprinkle(SprinkleConfig(MAX_EVENTS, 1, box, 11)), CAUSAL)
    assert count_maximal_chains(fcs) == _chain_count_reference(fcs) == 446090948046780787498084048
    assert is_cutset(fcs, fcs.minimal.tolist())


# ---------------------------------------------------------- reconstruction

def test_reconstruct_frozen_lightlike_witness():
    # lightlike pair plus a witness above the upper event
    events = [event(0.0, 0.0), event(1.0, 1.0), event(3.0, 1.0)]
    sub = build(events, SUBLUMINAL)
    rec = reconstruct_order(sub)
    assert rec[0, 1]  # lightlike pair recovered
    truth = build(events, CAUSAL).relation
    diff = compare_relations(rec, truth)
    assert diff.false_negatives == 0


def test_reconstruct_separating_witness_kills_spacelike_pair():
    u = event(0.0, 0.0)
    v = event(1.0, 2.0)
    w = event(2.0, 2.5)  # timelike above v, superluminal from u
    rec = reconstruct_order(build([u, v, w], SUBLUMINAL))
    assert not rec[0, 1]


def test_reconstruct_vacuous_quantifier_false_positive():
    rec = reconstruct_order(build([event(0.0, 0.0), event(1.0, 5.0)], SUBLUMINAL))
    assert rec[0, 1] and rec[1, 0]


def test_reconstruct_never_false_negative_on_sprinkles():
    for seed in range(5):
        events = sprinkle2(100, seed)
        rec = reconstruct_order(build(events, SUBLUMINAL))
        truth = build(events, CAUSAL).relation
        assert compare_relations(rec, truth).false_negatives == 0


def test_reconstruct_handles_duplicate_events():
    # duplicates force the value-level witness quantifier: a duplicate of
    # u must not act as a witness against u itself
    events = [event(0.0, 0.0), event(0.0, 0.0), event(1.0, 1.0), event(3.0, 1.0)]
    sub = build(events, SUBLUMINAL)
    rec = reconstruct_order(sub)
    truth = build(events, CAUSAL).relation
    assert compare_relations(rec, truth).false_negatives == 0
    assert rec[0, 2] and rec[1, 2]


def test_multiplicity_counts_equal_events_as_event_equality():
    # -0.0 == 0.0, so (0, -0) and (-0, 0) are one value, as for Event
    rng = np.random.default_rng(5)
    for dim in (0, 1, 2, 3):
        grid = rng.integers(-1, 2, (60, dim + 1)).astype(float)
        grid[rng.random(grid.shape) < 0.3] *= -0.0  # signed zeros and zeros
        events = [Event(r[0], tuple(r[1:])) for r in grid]
        ids = finite._value_ids(*_coordinates(events)).tolist()
        assert [[a == b for b in ids] for a in ids] == [[u == v for v in events] for u in events]
    assert finite._value_ids(np.empty(0), np.empty((0, 2))).shape == (0,)


def test_reconstruct_treats_signed_zeros_as_one_event():
    events = [event(0.0, 0.0), event(-0.0, -0.0), event(1.0, 1.0), event(3.0, 1.0), event(1.0, -0.0)]
    for direction in Direction:
        fcs = build(events, OrderSpec(OrderKind.SUBLUMINAL, 1.0, direction))
        assert np.array_equal(reconstruct_order(fcs), _witness_reconstruction(events, fcs.relation))


def test_compare_relations_counts_and_validation():
    a = np.zeros((3, 3), dtype=bool)
    b = a.copy()
    b[0, 1] = True
    diff = compare_relations(a, b)
    assert (diff.false_negatives, diff.false_positives) == (1, 0)
    assert compare_relations(b, a).false_positives == 1
    assert compare_relations(b, b).false_positives == 0
    with pytest.raises(ValueError):
        compare_relations(a, np.zeros((2, 2), dtype=bool))


def test_compare_relations_samples_lexicographic_and_capped():
    rng = np.random.default_rng(8)
    cand = rng.random((30, 30)) < 0.3
    ref = rng.random((30, 30)) < 0.3
    np.fill_diagonal(cand, False)
    np.fill_diagonal(ref, False)
    expected = sorted(
        [(i, j, "fp") for i in range(30) for j in range(30) if cand[i, j] and not ref[i, j]]
        + [(i, j, "fn") for i in range(30) for j in range(30) if ref[i, j] and not cand[i, j]]
    )
    diff = compare_relations(cand, ref)
    assert diff.samples == tuple(expected[:100])
    assert diff.false_positives + diff.false_negatives == len(expected)
    assert compare_relations(cand, ref, sample_cap=7).samples == tuple(expected[:7])


def test_compare_relations_agreements_skip_the_diagonal():
    cand = np.zeros((4, 4), dtype=bool)
    ref = cand.copy()
    cand[1, 1] = cand[0, 3] = True
    ref[2, 0] = True
    diff = compare_relations(cand, ref)
    assert diff.agreements == 4 * 3 - 2
    assert (diff.false_positives, diff.false_negatives) == (2, 1)
    assert diff.samples == ((0, 3, "fp"), (1, 1, "fp"), (2, 0, "fn"))
    assert compare_relations(cand, ref, sample_cap=0).samples == ()
    assert compare_relations(np.zeros((0, 0), bool), np.zeros((0, 0), bool)).agreements == 0
    with pytest.raises(ValueError, match="sample_cap"):
        compare_relations(cand, ref, sample_cap=-1)


# ------------------------------------------------------ time-ordered blocks
# Sets that outgrow one kernel tile are built in time order, one 64-row
# word of rows at a time, each asked from the word's first column on;
# these sets span eleven words.

WORD = 64
MULTI = 10 * WORD + 5


def _multiblock_set(seed, dim=2, n=MULTI):
    """n events in shuffled (not time) order, with times on a 0.1 grid,
    so that ties straddle block boundaries, and min(20, n // 2) of them
    duplicates."""
    rng = np.random.default_rng(seed)
    box = ((-5.0, 5.0),) * dim + ((0.0, 10.0),)
    dups = min(20, n // 2)
    events = [Event(round(e.t, 1), e.x)
              for e in sprinkle(SprinkleConfig(n - dups, dim, box, seed))]
    events += [events[int(k)] for k in rng.integers(0, len(events), dups)]
    return [events[int(k)] for k in rng.permutation(n)]


def _time_sorted(events):
    return np.argsort([e.t for e in events], kind="stable")


def test_multiblock_set_is_shuffled_with_ties_across_blocks():
    events = _multiblock_set(3)
    ts = np.array([e.t for e in events])
    order = _time_sorted(events)
    assert not np.array_equal(order, np.arange(MULTI))
    assert any(ts[order[b - 1]] == ts[order[b]] for b in range(WORD, MULTI, WORD))
    assert len(set(events)) < MULTI


@pytest.mark.parametrize("kind", list(OrderKind))
@pytest.mark.parametrize("direction", list(Direction))
def test_multiblock_build_matches_brute_force(kind, direction):
    events = _multiblock_set(3)
    spec = OrderSpec(kind, 1.0, direction)
    fcs = build(events, spec)
    t = np.array([e.t for e in events])
    xs = np.array([e.x for e in events])
    rel = _strict_block(kind, 1.0, t, xs, t, xs)  # every cell, input order
    if direction is Direction.BACKWARD:
        rel = rel.T
    assert np.array_equal(fcs.relation, rel)
    rng = np.random.default_rng(5)
    for i, j in rng.integers(0, MULTI, (2000, 2)):
        assert fcs.relation[i, j] == (leq(spec, events[i], events[j])
                                      and events[i] != events[j])
    covers = rel & ~_two_step(rel)
    dense = _dense_covers(fcs)
    assert np.array_equal(dense, covers)
    assert np.array_equal(fcs.relation & ~dense, _two_step(rel))
    assert hasse(fcs) == [(i, j) for i in range(MULTI) for j in range(MULTI) if covers[i, j]]
    assert fcs.minimal.tolist() == [j for j in range(MULTI) if not rel[:, j].any()]
    for m in (fcs.relation, fcs.covers, fcs.minimal):
        assert not m.flags.writeable
        # row reads (hasse, the chain walk) stay contiguous
        assert m.flags.c_contiguous or direction is Direction.BACKWARD


@pytest.mark.parametrize("n", [100, MULTI])  # one kernel tile, then bands
@pytest.mark.parametrize("direction", list(Direction))
def test_covers_are_the_ascending_cells_of_the_hasse_edges(n, direction):
    fcs = build(_multiblock_set(2, 2, n), OrderSpec(OrderKind.CAUSAL, 1.0, direction))
    covers = fcs.covers
    assert covers.dtype == np.int64 and covers.ndim == 1
    assert (np.diff(covers) > 0).all()
    assert not covers.flags.writeable
    assert covers.nbytes == 8 * len(hasse(fcs)) > 0


@pytest.mark.parametrize("n", [100, MULTI])
def test_backward_covers_are_the_forward_covers_swapped(n):
    events = _multiblock_set(4, 2, n)
    for kind in OrderKind:
        fwd = hasse(build(events, OrderSpec(kind, 1.0)))
        bwd = hasse(build(events, OrderSpec(kind, 1.0, Direction.BACKWARD)))
        assert fwd and bwd == sorted((j, i) for i, j in fwd)


def _by_position(ts, rel):
    """A kernel for finite.build to call in place of _strict_block on
    events with distinct times ts: it answers from rel, indexed by the
    events' positions in time order."""
    ts = np.sort(ts)

    def kernel(kind, c, ta, xa, tb, xb):
        return rel[np.ix_(np.searchsorted(ts, ta), np.searchsorted(ts, tb))]

    return kernel


@pytest.mark.parametrize("seed", range(3))
def test_block_product_is_exact_on_any_matrix(seed, monkeypatch):
    # A strict order that is not time-ordered: i < j when i dominates j
    # in two keys.  The first key grows with the word, so every pair
    # lies where the kernel is asked (a word's rows against the columns
    # from the word on), and inside a word the order runs both ways in
    # time.
    rng = np.random.default_rng(seed)
    word = np.arange(MULTI) // WORD
    keys = word + rng.random(MULTI), rng.random(MULTI)
    by_time = (keys[0][:, None] < keys[0][None, :]) & (keys[1][:, None] < keys[1][None, :])
    assert (np.tril(by_time) & (word[:, None] == word[None, :])).any()
    ts = rng.permutation(MULTI).astype(float)  # input order -> time
    pos = np.argsort(np.argsort(ts))  # input order -> position in time
    monkeypatch.setattr(finite, "_strict_block", _by_position(ts, by_time))
    fcs = build([Event(t, (0.0,)) for t in ts], CAUSAL)
    rel = by_time[np.ix_(pos, pos)]
    assert np.array_equal(fcs.relation, rel)
    assert np.array_equal(fcs.relation & ~_dense_covers(fcs), _two_step(rel))


def _with_pairs(events, pairs):
    """The kernel finite.build calls, doctored to also relate each given
    pair (i, j) of events, found by their coordinates."""

    def at(e, t, xs):
        return (t == e.t) & (xs == np.array(e.x)).all(axis=1)

    def kernel(kind, c, ta, xa, tb, xb):
        out = _strict_block(kind, c, ta, xa, tb, xb)
        for i, j in pairs:
            out |= at(events[i], ta, xa)[:, None] & at(events[j], tb, xb)[None, :]
        return out

    return kernel


def _first_violation(events, pairs, direction=Direction.FORWARD, kind=OrderKind.CAUSAL):
    """The message build must raise for the doctored kernel, by brute
    force on the whole input-order matrix: the first antisymmetric pair,
    else the first pair that breaks transitivity, in row-major order;
    None for a strict order."""
    t, xs = (np.array([e.t for e in events]), np.array([e.x for e in events]))
    rel = _with_pairs(events, pairs)(kind, 1.0, t, xs, t, xs)
    if direction is Direction.BACKWARD:
        rel = rel.T
    anti = rel & rel.T
    if anti.any():
        return "antisymmetry violated at pair ({}, {})".format(*np.argwhere(anti)[0])
    gap = _two_step(rel) & ~rel
    if gap.any():
        return "transitivity violated at pair ({}, {})".format(*np.argwhere(gap)[0])
    return None


def _violating_triple(events, positions):
    """Input indices (u, v, w) of unique events, from candidate
    positions in time order, with u < v causally while w is unrelated
    to u and v: relating v to w breaks transitivity at (u, w)."""
    by_time = _time_sorted(events)
    rel = build(events, CAUSAL).relation
    per_value = Counter(events)
    for u, v, w in positions:
        iu, iv, iw = by_time[u], by_time[v], by_time[w]
        if (all(per_value[events[i]] == 1 for i in (iu, iv, iw)) and rel[iu, iv]
                and not (rel[iu, iw] or rel[iw, iu] or rel[iv, iw] or rel[iw, iv])):
            return iu, iv, iw
    raise AssertionError("no candidate triple")


@pytest.mark.parametrize("direction", list(Direction))
def test_build_reports_backward_edge_across_blocks(monkeypatch, direction):
    # u -> v forward in time across two words, then v -> w backward in
    # time inside v's word, so (u, w) breaks transitivity: the exact
    # cells of u's row must read the cell that v's word wrote.
    events = _multiblock_set(4)
    ts = np.sort([e.t for e in events])
    pairs = []
    for ub, vb in ((0, 3), (1, 2)):
        u, v, w = _violating_triple(events, (
            (u, v, w) for u in range(ub * WORD, (ub + 1) * WORD)
            for v in range(vb * WORD, (vb + 1) * WORD)
            for w in range(vb * WORD, v) if ts[w] < ts[v]
        ))
        assert events[w].t < events[v].t
        pairs.append((v, w))
    monkeypatch.setattr(finite, "_strict_block", _with_pairs(events, pairs))
    message = _first_violation(events, pairs, direction)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        build(events, OrderSpec(OrderKind.CAUSAL, 1.0, direction))


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("doctored", ["loop", "two-way", "intransitive"])
def test_build_reports_violation_inside_one_row_tile(monkeypatch, doctored, direction):
    # every doctored cell and the triple behind it lie in the first row
    # tile, here the whole first word, of a set that fits one kernel tile
    # and of one that spans words; the kernel answers the forward order.
    # A loop (u, u) counts as an antisymmetric pair, as in input order;
    # on one tile it breaks no transitivity, so the check must still look
    # for antisymmetric pairs there.  A failing build raises before it
    # unpacks its relation in input order: past one tile the one unpack
    # is the time-ordered one of the exact cells.
    rows, unpacked = WORD, finite._unpacked
    for n in (100, MULTI):
        events = _multiblock_set(4, 2, n)
        assert TILE_CELLS // n >= rows
        u, v, w = _violating_triple(events, (
            (u, v, w) for u in range(rows) for v in range(u + 1, rows) for w in range(rows)
        ))
        pairs = {"loop": [(u, u)], "two-way": [(v, u)], "intransitive": [(v, w)]}[doctored]
        message = _first_violation(events, pairs, direction)
        assert message.startswith("transitivity" if doctored == "intransitive" else "antisymmetry")
        perms = []
        with monkeypatch.context() as m:
            m.setattr(finite, "_strict_block", _with_pairs(events, pairs))
            m.setattr(finite, "_unpacked", lambda words, p: perms.append(p) or unpacked(words, p))
            with pytest.raises(RuntimeError, match=re.escape(message)):
                build(events, OrderSpec(OrderKind.CAUSAL, 1.0, direction))
        assert [p.tolist() for p in perms] == ([list(range(n))] if n == MULTI else [])


@pytest.mark.parametrize("direction", list(Direction))
def test_dense_cover_reconstruct_matches_witness_definition(direction):
    # two spacelike layers, every lower event below every upper one: each
    # lower event has all 150 upper ones as covers
    rng = np.random.default_rng(11)
    events = [event(t, float(x)) for t in (0.0, 1.0) for x in rng.uniform(0.0, 0.5, 150)]
    fcs = build(events, OrderSpec(OrderKind.SUBLUMINAL, 1.0, direction))
    assert len(fcs.covers) == 150 * 150
    assert np.array_equal(reconstruct_order(fcs), _witness_reconstruction(events, fcs.relation))


@pytest.mark.parametrize("direction", list(Direction))
def test_multiblock_reconstruct_matches_witness_definition(direction):
    events = _multiblock_set(6, dim=1)
    fcs = build(events, OrderSpec(OrderKind.SUBLUMINAL, 1.0, direction))
    assert np.array_equal(reconstruct_order(fcs), _witness_reconstruction(events, fcs.relation))


def _witness_reconstruction(events, rel):
    """reconstruct_order by its definition, one row at a time."""
    n = len(events)
    ids = {}
    value = np.array([ids.setdefault(e, len(ids)) for e in events], dtype=int)
    eq = value[:, None] == value[None, :]
    above_j = rel & ~eq  # w above j and not equal to j
    expected = np.zeros((n, n), dtype=bool)
    for i in range(n):
        # some witness w above j, equal to neither endpoint, not above i
        escapes = above_j & ~(eq[i] | rel[i])[None, :]
        expected[i] = rel[i] | ~escapes.any(axis=1)
    np.fill_diagonal(expected, False)
    return expected


# Set sizes at the edges of the kernel's row tiles and of the 64-bit
# words: a set of up to ONE_TILE events fits one tile, the last word
# holds 63, 64 or 1 rows and columns, and from SPLIT events on the
# first word splits into two row tiles, the second of one row.
ONE_TILE = math.isqrt(TILE_CELLS)
SPLIT = TILE_CELLS // WORD + 1
EDGE_SIZES = sorted({0, 1, 2, ONE_TILE - 1, ONE_TILE, ONE_TILE + 1,
                     2 * WORD - 1, 2 * WORD, 2 * WORD + 1, 4 * WORD + 1, 8 * WORD + 1, SPLIT,
                     5 * WORD - 1, 5 * WORD, 5 * WORD + 1, 6 * WORD, 8 * WORD - 1, 8 * WORD})


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_build_matches_brute_force_at_tile_and_band_edges(n):
    for dim in (1, 2):
        events = _multiblock_set(n + dim, dim, n)
        t = np.array([e.t for e in events])
        xs = np.array([e.x for e in events]).reshape(n, dim)
        for kind in OrderKind:
            fwd = _strict_block(kind, 1.0, t, xs, t, xs)  # every cell, input order
            for direction in Direction:
                fcs = build(events, OrderSpec(kind, 1.0, direction))
                rel = fwd.T if direction is Direction.BACKWARD else fwd
                assert np.array_equal(fcs.relation, rel)
                assert np.array_equal(fcs.relation & ~_dense_covers(fcs), _two_step(rel))
                assert hasse(fcs) == list(map(tuple, np.argwhere(rel & ~_two_step(rel)).tolist()))
                minimal = fcs.minimal  # made on first use, then kept
                assert fcs.minimal is minimal and "minimal" not in repr(fcs)
                assert not minimal.flags.writeable and minimal.flags.c_contiguous
                assert np.array_equal(minimal, np.flatnonzero(~fcs.relation.any(axis=0)))
                if kind is OrderKind.SUBLUMINAL:
                    assert np.array_equal(reconstruct_order(fcs),
                                          _witness_reconstruction(events, rel))


@pytest.mark.parametrize("n", [300, 1000])
def test_build_on_a_grid_names_the_kernels_first_violation_or_returns_its_covers(n):
    # 1+1 events on a 0.1 grid, from the real kernel: where its relation
    # breaks an order axiom (it decides near-light pairs on rounded
    # differences), the cover walk refuses it and build names the first
    # violating pair from the exact cells; where it is an order, build
    # returns its covers.
    box = ((-5.0, 5.0), (0.0, 10.0))
    events = [Event(round(e.t, 1), (round(e.x[0], 1),))
              for e in sprinkle(SprinkleConfig(n, 1, box, n))]
    t = np.array([e.t for e in events])
    xs = np.array([e.x for e in events])
    for kind in (OrderKind.CAUSAL, OrderKind.SUBLUMINAL):
        for direction in Direction:
            spec = OrderSpec(kind, 1.0, direction)
            message = _first_violation(events, [], direction, kind)
            if message is not None:
                with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
                    build(events, spec)
                continue
            rel = _strict_block(kind, 1.0, t, xs, t, xs)
            rel = rel.T if direction is Direction.BACKWARD else rel
            fcs = build(events, spec)
            assert np.array_equal(fcs.relation, rel)
            assert np.array_equal(_dense_covers(fcs), rel & ~_two_step(rel))
