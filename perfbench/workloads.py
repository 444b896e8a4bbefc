"""The four benchmark workloads.

Each workload makes its inputs from the seed in its constructor (the
set-up), keeps a pool of `pool` distinct inputs, and runs one op per
pool entry; the runner cycles through the pool.  `op` holds only the
calls into causalorder, each inside a span named after the library
function it times.  `check` runs after the op's clock has stopped: it
verifies the outputs and returns the op's counts.

Outcome status: "ok"; "defect" when the op shows one of the known seed
defects (near-light `build` failures, classify_pair disagreeing with
exact arithmetic, the cutset-check traceback); "failed" for any other
wrong output.
"""

from __future__ import annotations

import math
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from causalorder import (
    ConeKind,
    Direction,
    Event,
    KeptEnd,
    OrderKind,
    OrderSpec,
    PairClass,
    SprinkleConfig,
    affine_cone,
    build,
    canonical_gap_chain,
    check_invariance,
    classify_cone,
    classify_pair,
    compare_relations,
    crossing_time,
    dot_digraph,
    find_avoiding_chain,
    hasse,
    interval_is_chain,
    interval_is_chain_sampled,
    is_cutset,
    is_subluminal_chain_probe,
    leq,
    make_gap_worldline,
    make_hypersurface,
    make_polyline,
    maximal_antichains,
    maximal_chains,
    pairwise_comparable,
    read_events,
    reconstruct_order,
    sprinkle,
    standard_cone,
    write_events,
    write_surface,
    write_worldline,
)
from causalorder.hypersurfaces import CROSSING_TOL, Grading

CAUSAL = OrderSpec(OrderKind.CAUSAL, 1.0)
SUBLUMINAL = OrderSpec(OrderKind.SUBLUMINAL, 1.0)


@dataclass
class Outcome:
    status: str = "ok"
    counts: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    checks: int = 0

    def expect(self, cond: bool, what: str) -> None:
        """One output check; a miss marks the op failed."""
        self.checks += 1
        if not cond:
            self.status = "failed"
            self.notes.append(what)

    def defect(self, what: str) -> None:
        if self.status == "ok":
            self.status = "defect"
        self.notes.append(what)


def sub_seed(seed: int, *path: int) -> int:
    """Independent 63-bit seed for one input of one workload."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0] >> 1)


def median_of(durs: dict[str, list[float]], name: str) -> float:
    return statistics.median(durs[name])


class Workload:
    name = ""
    pool = 1
    min_passes = 1

    def __init__(self, root: Path, out: Path, seed: int, tiny: bool, tr) -> None:
        self.root = root
        self.out = out
        self.seed = seed
        self.tiny = tiny
        self.tr = tr

    def sizes(self) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run every code path once on small inputs, untimed."""

    def probes(self, tr) -> None:
        """Extra traced-only measurements that are not ops."""

    def op(self, k: int, tr):
        raise NotImplementedError

    def check(self, k: int, res) -> Outcome:
        raise NotImplementedError

    def layer_metrics(self, durs: dict[str, list[float]], counts: dict[str, float]) -> dict:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ sprinkle-large

class SprinkleLarge(Workload):
    """Matrix path of `finite` at the ROADMAP's n = 1000 row: read the
    event file, causal build with its axiom check, Hasse covers and DOT,
    subluminal build, reconstruction and comparison."""

    name = "sprinkle-large"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.n = 60 if self.tiny else 1000
        cfg = SprinkleConfig(self.n, 2, ((0.0, 1.0),) * 3, sub_seed(self.seed, 0))
        events = sprinkle(cfg)
        self.path = self.out / "sprinkle-large.events"
        with self.tr.span("fileio.write_events"):
            write_events(self.path, events, CAUSAL)

    def sizes(self) -> dict:
        return {"events": self.n, "space_dim": 2, "c": 1.0, "box": "[0,1]^3"}

    def warm_up(self) -> None:
        events, spec = read_events(self.path)
        small = events[:40]
        fcs = build(small, spec)
        dot_digraph(len(fcs), hasse(fcs))
        sub = build(small, SUBLUMINAL)
        compare_relations(reconstruct_order(sub), fcs.relation)

    def op(self, k: int, tr):
        with tr.span("fileio.read_events"):
            events, spec = read_events(self.path)
        with tr.span("finite.build"):
            fcs = build(events, spec)
        with tr.span("finite.hasse"):
            edges = hasse(fcs)
        with tr.span("fileio.dot_digraph"):
            dot = dot_digraph(len(fcs), edges)
        with tr.span("finite.build_subluminal"):
            sub = build(events, OrderSpec(OrderKind.SUBLUMINAL, spec.c))
        with tr.span("finite.reconstruct_order"):
            rec = reconstruct_order(sub)
        with tr.span("finite.compare_relations"):
            diff = compare_relations(rec, fcs.relation)
        return fcs, edges, dot, sub, diff

    def check(self, k: int, res) -> Outcome:
        fcs, edges, dot, sub, diff = res
        out = Outcome()
        rel = fcs.relation
        out.expect(len(fcs) == self.n, "event count read back")
        out.expect(diff.false_negatives == 0, f"reconstruct false_negatives {diff.false_negatives}")
        ij = np.array(edges, dtype=np.int64).reshape(-1, 2)
        out.expect(bool(rel[ij[:, 0], ij[:, 1]].all()), "hasse edge outside the relation")
        out.expect(bool((sub.relation <= rel).all()), "subluminal relation not inside causal")
        out.expect(dot.count("->") == len(edges), "dot edge count")
        out.counts = {
            "finite.build.relations": int(rel.sum()),
            "finite.hasse.edges": len(edges),
            "finite.reconstruct.false_positives": diff.false_positives,
            "fileio.bytes_read": self.path.stat().st_size,
        }
        return out

    def layer_metrics(self, durs, counts) -> dict:
        build_s = median_of(durs, "finite.build")
        m = {
            "finite.build.s": (build_s, "s"),
            "finite.build.cells_per_s": (self.n * self.n / build_s, "1/s"),
        }
        for name in ("finite.hasse", "finite.reconstruct_order", "finite.compare_relations",
                     "fileio.read_events", "fileio.dot_digraph", "fileio.write_events"):
            m[name + ".s"] = (median_of(durs, name), "s")
        m["fileio.bytes_read"] = (counts["fileio.bytes_read"], "bytes")
        for name in ("finite.build.relations", "finite.hasse.edges",
                     "finite.reconstruct.false_positives"):
            m[name] = (counts[name], "count")
        return m


# -------------------------------------------------------------- finite-small

def nudge(t: float, ulps: int) -> float:
    """t moved by ulps (-1, 0 or +1) units in the last place."""
    return math.nextafter(t, math.copysign(math.inf, ulps)) if ulps else t


def near_light_triple(rng: np.random.Generator, c: float) -> list[Event]:
    """Three events on one light ray in 1+1 dimensions, each time then
    moved by -1, 0 or +1 ulp."""
    t0, x0 = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return [Event(nudge(t0 + dt, int(rng.integers(-1, 2))), (x0 + sign * c * dt,))
            for dt in (0.0, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.35, 0.9)))]


class FiniteSmall(Workload):
    """The same `finite` layer used combinatorially on a 1+1 sprinkle
    with one duplicated event: chain enumeration, cutset search,
    antichains and the duplicate path of reconstruct_order.  Each op
    also builds a batch of near-light triples, which the seed's float
    predicate sometimes rejects as breaking transitivity."""

    name = "finite-small"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.n = 30 if self.tiny else 150
        self.pool = 2 if self.tiny else 6
        self.n_triples = 8 if self.tiny else 64
        self.head = 12 if self.tiny else 24
        self.scenes = []
        for k in range(self.pool):
            cfg = SprinkleConfig(self.n, 1, ((-1.0, 1.0), (-0.6, 0.6)), sub_seed(self.seed, 1, k))
            events = sprinkle(cfg)
            rng = np.random.default_rng(sub_seed(self.seed, 2, k))
            events.append(events[int(rng.integers(self.n))])
            triples = [near_light_triple(rng, 1.0) for _ in range(self.n_triples)]
            self.scenes.append((events, triples))

    def sizes(self) -> dict:
        return {"events": self.n + 1, "duplicates": 1, "space_dim": 1, "c": 1.0,
                "box": "x[-1,1] t[-0.6,0.6]", "pool": self.pool,
                "near_light_triples_per_op": self.n_triples, "antichain_events": self.head}

    def warm_up(self) -> None:
        events = self.scenes[0][0]
        small = events[:20] + [events[0]]
        fcs = build(small, CAUSAL)
        maximal_chains(fcs)
        maximal_antichains(build(small[:8], CAUSAL))
        reconstruct_order(build(small, SUBLUMINAL))

    def op(self, k: int, tr):
        events, triples = self.scenes[k]
        with tr.span("finite.build"):
            fcs = build(events, CAUSAL)
        with tr.span("finite.maximal_chains"):
            chains = maximal_chains(fcs)
        # Keep a sample, not the list, so that memory holds one
        # enumeration at a time.
        chain_sample = (len(chains), chains[:50] + chains[-50:])
        del chains
        minimal = np.flatnonzero(~fcs.relation.any(axis=0)).tolist()
        with tr.span("finite.find_avoiding_chain"):
            avoiding = find_avoiding_chain(fcs, minimal)
        with tr.span("finite.is_cutset"):
            partial_cut = is_cutset(fcs, minimal[1:])
        with tr.span("finite.build_head"):
            head = build(events[: self.head], CAUSAL)
        with tr.span("finite.maximal_antichains"):
            antichains = maximal_antichains(head)
        with tr.span("finite.build_subluminal"):
            sub = build(events, SUBLUMINAL)
        with tr.span("finite.reconstruct_order_dup"):
            rec = reconstruct_order(sub)
        failures = []
        with tr.span("finite.build_near_light"):
            for triple in triples:
                try:
                    build(triple, CAUSAL)
                except RuntimeError as exc:
                    failures.append(str(exc))
        return fcs, chain_sample, minimal, avoiding, partial_cut, head, antichains, rec, failures

    def check(self, k: int, res) -> Outcome:
        fcs, (n_chains, chains), minimal, avoiding, partial_cut, head, antichains, rec, failures = res
        out = Outcome()
        rel = fcs.relation
        out.expect(avoiding is None, "minimal elements must meet every maximal chain")
        out.expect(partial_cut is False, "minimal elements minus one are not a cutset")
        for chain in chains:
            ok = chain[0] in minimal and all(rel[a, b] for a, b in zip(chain, chain[1:]))
            out.expect(ok, f"maximal chain {chain[:4]}... is not a chain from a minimal element")
        hr = head.relation
        for ac in antichains[:50]:
            out.expect(not any(hr[a, b] for a in ac for b in ac), "antichain has a relation")
        fn = int((rel & ~rec).sum())
        out.expect(fn == 0, f"reconstruct false_negatives {fn}")
        for msg in failures:
            out.expect(bool(re.search(r"(antisymmetry|transitivity) violated", msg)),
                       f"unexpected build error {msg}")
        if failures:
            out.defect(f"{len(failures)} near-light triples failed build")
        out.counts = {
            "finite.maximal_chains.count": n_chains,
            "finite.maximal_antichains.count": len(antichains),
            "finite.build.failed": len(failures),
        }
        return out

    def layer_metrics(self, durs, counts) -> dict:
        m = {}
        for name in ("finite.maximal_chains", "finite.find_avoiding_chain",
                     "finite.maximal_antichains", "finite.reconstruct_order_dup"):
            m[name + ".s"] = (median_of(durs, name), "s")
        for name in ("finite.maximal_chains.count", "finite.maximal_antichains.count",
                     "finite.build.failed"):
            m[name] = (counts[name], "count")
        return m


# ----------------------------------------------------------- geometry-probes

_MIRROR = {
    PairClass.TIMELIKE_FORWARD: PairClass.TIMELIKE_BACKWARD,
    PairClass.LIGHTLIKE_FORWARD: PairClass.LIGHTLIKE_BACKWARD,
    PairClass.SPACELIKE: PairClass.SPACELIKE,
}


def exact_class(u: Event, v: Event, c: float) -> PairClass:
    """classify_pair evaluated in exact rational arithmetic on the given
    doubles: the sign of (c*dt)^2 - |dx|^2."""
    if u == v:
        return PairClass.EQUAL
    dt = Fraction(v.t) - Fraction(u.t)
    if dt == 0:
        return PairClass.SPACELIKE
    q = (Fraction(c) * dt) ** 2 - sum((Fraction(b) - Fraction(a)) ** 2 for a, b in zip(u.x, v.x))
    cls = (PairClass.TIMELIKE_FORWARD if q > 0 else
           PairClass.LIGHTLIKE_FORWARD if q == 0 else PairClass.SPACELIKE)
    return cls if dt > 0 else _MIRROR[cls]


CAUSAL_FWD = {PairClass.EQUAL, PairClass.TIMELIKE_FORWARD, PairClass.LIGHTLIKE_FORWARD}
SUB_FWD = {PairClass.EQUAL, PairClass.TIMELIKE_FORWARD}

# (kind, direction, c, linear map on (x, y, t) or None).  The affine
# entries break rotation invariance, so check_invariance must flag them;
# they are wide enough that 50 samples miss them in 1 seed of 400.
CONE_ZOO = (
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
)
PAIR_SPEEDS = (1.0, 0.7, 1.5)
SURFACE_K = 0.5


def surface_anchors(rng: np.random.Generator, count: int) -> list:
    """Anchors of a height function with Lipschitz constant 0.45 < k."""
    p = rng.uniform(-5, 5, 2)
    out = []
    for x in rng.uniform(-5, 5, (count, 2)):
        f = 0.5 * math.hypot(*(x - p)) + 0.4 * math.sin(x[0])
        out.append(((float(x[0]), float(x[1])), SURFACE_K * f))
    return out


def worldline_vertices(rng: np.random.Generator, count: int) -> tuple[list, list[int]]:
    """Vertices over t in [-10, 10]; segment i runs at exactly c = 1 when
    i % 4 == 1 (never first or last) and at most 0.3 c otherwise."""
    times = [float(t) for t in np.linspace(-10.0, 10.0, count)]
    light = [i for i in range(1, count - 2) if i % 4 == 1]
    x, y = 0.0, 0.0
    verts = [(times[0], (x, y))]
    for i in range(count - 1):
        dt = times[i + 1] - times[i]
        speed = 1.0 if i in light else 0.3 * float(rng.random())
        phi = float(rng.uniform(0, 2 * math.pi))
        x, y = x + speed * dt * math.cos(phi), y + speed * dt * math.sin(phi)
        verts.append((times[i + 1], (x, y)))
    return verts, light


def pair_batch(rng: np.random.Generator, c: float, generic: int, near: int, extreme: int):
    """(u, v, c) triples: uniform pairs, pairs on the speed-c cone with
    the later time moved by up to one ulp, and pairs at magnitudes where
    squaring overflows or underflows (the two ROADMAP pairs first)."""
    pairs = [(Event(a[0], (a[1], a[2])), Event(b[0], (b[1], b[2])), c)
             for a, b in rng.uniform(-5, 5, (generic, 2, 3)).tolist()]
    starts = rng.uniform(-5, 5, (near, 3)).tolist()
    spans = rng.uniform(0.1, 5, near).tolist()
    angles = rng.uniform(0, 2 * math.pi, near).tolist()
    steps = rng.integers(-1, 2, near).tolist()
    for (t, x, y), dt, phi, step in zip(starts, spans, angles, steps):
        v = Event(nudge(t + dt, step), (x + c * dt * math.cos(phi), y + c * dt * math.sin(phi)))
        pairs.append((Event(t, (x, y)), v, c))
    pairs.append((Event(0.0, (0.0, 0.0)), Event(1e300, (1e299, 0.0)), 1.0))
    pairs.append((Event(0.0, (0.0,)), Event(1e-200, (1e-170,)), 1.0))
    for i in range(extreme - 2):
        scale = (1e300, 1e200, 1e-160, 1e-200)[i % 4]
        phi = float(rng.uniform(0, 2 * math.pi))
        ratio = float(rng.uniform(0.2, 0.9) if scale > 1 else rng.uniform(1.1, 5.0))
        r = ratio * scale / 2
        pairs.append((Event(0.0, (0.0, 0.0)), Event(scale / 2, (r * math.cos(phi), r * math.sin(phi))), 1.0))
    return pairs


@dataclass
class Scene:
    seed: int
    anchors: list
    vertices: list
    n_light: int
    probes: list[tuple[Event, bool]]  # (event, expected verdict)
    light_dir: tuple[float, float]
    level_params: list[float]
    pairs: list
    specs: dict
    cone: tuple
    oracle: object
    exact: list | None = None


class GeometryProbes(Workload):
    """Scalar Python predicates in 2+1 dimensions: surfaces, world lines
    and their light-speed surgery, the canonical two-ray chain, a pair
    batch through classify_pair/leq, and one cone oracle per scene."""

    name = "geometry-probes"

    def __init__(self, *a) -> None:
        super().__init__(*a)
        t = self.tiny
        self.pool = len(CONE_ZOO)
        self.n_anchors = 20 if t else 200
        self.n_vertices = 12 if t else 40
        self.n_levels = 100 if t else 2000
        self.n_pairs = (60, 20, 10) if t else (3000, 800, 200)
        self.n_invariance = 100 if t else 200
        self.per_branch = 10 if t else 60
        self.scenes = [self._scene(k) for k in range(self.pool)]

    def _scene(self, k: int) -> Scene:
        seed = sub_seed(self.seed, 3, k)
        rng = np.random.default_rng(seed)
        anchors = surface_anchors(rng, self.n_anchors)
        verts, light = worldline_vertices(rng, self.n_vertices)
        wl = make_polyline(verts, 1.0)
        probes = []
        for i in [i for i in range(len(verts) - 1) if i % 4 == 3][:4]:
            mid = wl.event_at(0.5 * (verts[i][0] + verts[i + 1][0]))
            probes += [(mid, True), (Event(mid.t, (mid.x[0] + 50.0, mid.x[1])), False)]
        phi = float(rng.uniform(0, 2 * math.pi))
        half = self.n_levels // 2
        level = np.concatenate([-rng.uniform(1e-3, 10.0, half),
                                1.0 + rng.uniform(1e-3, 10.0, self.n_levels - half)])
        c = PAIR_SPEEDS[k % len(PAIR_SPEEDS)]
        pairs = pair_batch(rng, c, *self.n_pairs)
        specs = {cc: (OrderSpec(OrderKind.CAUSAL, cc), OrderSpec(OrderKind.SUBLUMINAL, cc))
                 for cc in {p[2] for p in pairs}}
        cone = CONE_ZOO[k]
        kind, direction, speed, matrix = cone
        oracle = standard_cone(OrderKind(kind), Direction(direction), speed or 1.0, 2)
        if matrix is not None:
            oracle = affine_cone(oracle, matrix)
        return Scene(seed, anchors, verts, len(light), probes,
                     (math.cos(phi), math.sin(phi)), [float(p) for p in level],
                     pairs, specs, cone, oracle)

    def sizes(self) -> dict:
        return {"space_dim": 2, "pool": self.pool, "surface_anchors": self.n_anchors,
                "worldline_vertices": self.n_vertices, "level_samples": self.n_levels,
                "pairs_generic_near_extreme": list(self.n_pairs),
                "invariance_samples": self.n_invariance, "chain_per_branch": self.per_branch,
                "cone_zoo": [f"{a}:{b}:{c}{'' if m is None else ':affine'}"
                             for a, b, c, m in CONE_ZOO]}

    def warm_up(self) -> None:
        s = self.scenes[0]
        hs = make_hypersurface(s.anchors[:5], SURFACE_K, 1.0)
        wl = make_polyline(s.vertices, 1.0)
        crossing_time(hs, wl)
        make_gap_worldline(wl, [KeptEnd.LOWER] * len(wl.light_segments()))
        classify_cone(s.oracle, seed=s.seed)

    def op(self, k: int, tr):
        s = self.scenes[k]
        r = {}
        with tr.span("hypersurfaces.make_hypersurface"):
            hs = make_hypersurface(s.anchors, SURFACE_K, 1.0)
        with tr.span("worldlines.make_polyline"):
            wl = make_polyline(s.vertices, 1.0)
        with tr.span("hypersurfaces.crossing_time"):
            t_star = crossing_time(hs, wl)
        r["residual"] = t_star - hs.height(wl.eval(t_star))
        with tr.span("worldlines.light_segments"):
            segs = wl.light_segments()
        r["segments"] = len(segs)
        with tr.span("worldlines.extend_probe"):
            r["extend"] = [wl.extend_probe(p, CAUSAL) for p, _ in s.probes]
        kept = [KeptEnd.LOWER if i % 2 else KeptEnd.UPPER for i in range(len(segs))]
        with tr.span("worldlines.make_gap_worldline"):
            gwl = make_gap_worldline(wl, kept)
        with tr.span("worldlines.is_subluminal_chain_probe"):
            r["gap_probe"] = [is_subluminal_chain_probe(gwl, p) for p, _ in s.probes]
        origin = hs.graph_event(s.anchors[0][0])
        with tr.span("worldlines.canonical_gap_chain"):
            chain = canonical_gap_chain(origin, s.light_dir, 1.0, 1.0)
            sample = chain.sample_events(per_branch=self.per_branch)
        grading = Grading(hs)
        with tr.span("hypersurfaces.level_scan"):
            hits = 0
            for p in s.level_params:
                t = origin.t + p
                ray = next(ray for ray in chain.rays if ray.covers(t))
                if grading.level_contains(0.0, Event(t, ray.position(t))):
                    hits += 1
        r["hits"] = hits
        with tr.span("order.pairwise_comparable"):
            r["chain_ok"] = pairwise_comparable(OrderSpec(OrderKind.SUBLUMINAL, 1.0), sample)
        a = Event(0.0, (0.0, 0.0))
        with tr.span("order.interval_is_chain_sampled"):
            r["interval"] = [interval_is_chain_sampled(a, b, 1.0, samples=400, seed=s.seed)
                             for b in (Event(2.0, (0.5, 0.0)), Event(2.0, (2.0, 0.0)))]
        with tr.span("order.classify_pair"):
            r["classes"] = [classify_pair(u, v, c) for u, v, c in s.pairs]
        specs = s.specs
        with tr.span("order.leq"):
            r["leq"] = [(leq(specs[c][0], u, v), leq(specs[c][1], u, v)) for u, v, c in s.pairs]
        with tr.span("cones.check_invariance"):
            r["invariance"] = check_invariance(s.oracle, self.n_invariance, seed=s.seed)
        with tr.span("cones.classify_cone"):
            r["cone"] = classify_cone(s.oracle, seed=s.seed)
        return r

    def check(self, k: int, r) -> Outcome:
        s = self.scenes[k]
        out = Outcome()
        out.expect(abs(r["residual"]) <= CROSSING_TOL, f"crossing residual {r['residual']!r}")
        verdicts = [e for _, e in s.probes]
        out.expect(r["segments"] == s.n_light, f"light segments {r['segments']}")
        out.expect(r["extend"] == verdicts, "extend_probe verdicts")
        out.expect(r["gap_probe"] == verdicts, "subluminal chain probe verdicts")
        out.expect(r["hits"] == 0, f"canonical chain met the surface {r['hits']} times")
        out.expect(r["chain_ok"], "canonical chain sample is not a subluminal chain")
        out.expect(r["interval"] == [False, True], f"interval_is_chain_sampled {r['interval']}")
        a = Event(0.0, (0.0, 0.0))
        out.expect(r["interval"] == [interval_is_chain(a, b, 1.0) for b in
                                     (Event(2.0, (0.5, 0.0)), Event(2.0, (2.0, 0.0)))],
                   "sampled interval test disagrees with the analytic one")
        if s.exact is None:
            s.exact = [exact_class(u, v, c) for u, v, c in s.pairs]
        wrong = [a != b for a, b in zip(r["classes"], s.exact)]
        generic = self.n_pairs[0]
        mismatches = sum(wrong)
        out.expect(all((cls in CAUSAL_FWD, cls in SUB_FWD) == lq
                       for cls, lq in zip(r["classes"], r["leq"])),
                   "leq disagrees with classify_pair")
        # Only the near-light and extreme pairs are the known defect; a
        # uniform pair far from the cone must match exact arithmetic.
        out.expect(not any(wrong[:generic]),
                   f"{sum(wrong[:generic])} generic classify_pair results differ from exact arithmetic")
        if any(wrong[generic:]):
            out.defect(f"{sum(wrong[generic:])} near-light/extreme classify_pair results "
                       "differ from exact arithmetic")
        kind, direction, speed, matrix = s.cone
        inv, cone = r["invariance"], r["cone"]
        if matrix is None:
            out.expect(inv.passed, f"invariance failed on {s.cone}: {inv.counterexample}")
            out.expect((cone.kind, cone.direction, cone.c_estimate)
                       == (ConeKind(kind), Direction(direction), speed),
                       f"classify_cone {cone.kind} {cone.direction} {cone.c_estimate} for {s.cone}")
        else:
            out.expect(not inv.passed, f"affine oracle {s.cone} passed the invariance check")
        out.counts = {
            "order.classify_pair.exact_mismatches": mismatches,
            "cones.classify_cone.probes": cone.evidence.probes,
            "cones.check_invariance.checks": inv.checks,
            "hypersurfaces.crossing_time.residual_max": abs(r["residual"]),
            "order.classify_pair.pairs": len(s.pairs),
        }
        return out

    def layer_metrics(self, durs, counts) -> dict:
        pairs_per_op = counts["order.classify_pair.pairs"] / self.pool
        m = {"order.classify_pair.pairs_per_s":
             (pairs_per_op / median_of(durs, "order.classify_pair"), "1/s")}
        for name in ("order.pairwise_comparable", "order.interval_is_chain_sampled",
                     "worldlines.make_polyline", "worldlines.extend_probe",
                     "worldlines.make_gap_worldline", "worldlines.is_subluminal_chain_probe",
                     "worldlines.canonical_gap_chain", "hypersurfaces.make_hypersurface",
                     "hypersurfaces.crossing_time", "hypersurfaces.level_scan",
                     "cones.classify_cone", "cones.check_invariance"):
            m[name + ".s"] = (median_of(durs, name), "s")
        m["order.classify_pair.exact_mismatches"] = (
            counts["order.classify_pair.exact_mismatches"], "count")
        m["cones.classify_cone.probes"] = (counts["cones.classify_cone.probes"], "count")
        m["cones.check_invariance.checks"] = (counts["cones.check_invariance.checks"], "count")
        m["hypersurfaces.crossing_time.residual_max"] = (
            counts["hypersurfaces.crossing_time.residual_max"], "coord")
        return m


# ----------------------------------------------------------------- cli-suite

CLI_TIMEOUT_S = 150.0
ELAPSED = re.compile(rb"^# elapsed .*\n?", re.MULTILINE)
CAP_DEFECT = re.compile(r"CapExceeded|maximal chains")


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: str


class CliSuite(Workload):
    """Every subcommand as a subprocess, in a fixed order, on files
    written during set-up.  Process start and import dominate the short
    commands; this is the only workload that parses files through the
    CLI and formats its reports."""

    name = "cli-suite"
    min_passes = 2

    def __init__(self, *a) -> None:
        super().__init__(*a)
        t = self.tiny
        self.n = 40 if t else 400
        self.n_cut = 30 if t else 250
        self.n_anchors = 10 if t else 100
        self.samples = 200 if t else 2000
        self.invariance = 20 if t else 200
        rng = np.random.default_rng(sub_seed(self.seed, 4))
        out = self.out
        events = sprinkle(SprinkleConfig(self.n, 2, ((-1.0, 1.0),) * 3, self.seed))
        with self.tr.span("fileio.write_events"):
            write_events(out / "cli.events", events, CAUSAL)
        cut_events = sprinkle(SprinkleConfig(self.n_cut, 1, ((-1.0, 1.0),) * 2, sub_seed(self.seed, 5)))
        with self.tr.span("fileio.write_events"):
            write_events(out / "cli-cut.events", cut_events, CAUSAL)
        rel = build(cut_events, CAUSAL).relation
        minimal = np.flatnonzero(~rel.any(axis=0)).tolist()
        hs = make_hypersurface(surface_anchors(rng, self.n_anchors), SURFACE_K, 1.0)
        write_surface(out / "cli.surface", hs)
        write_worldline(out / "cli.worldline", make_polyline(worldline_vertices(rng, 40)[0], 1.0))
        i, j = (int(v) for v in rng.choice(self.n, 2, replace=False))
        rel_dir = out.relative_to(self.root)
        f = lambda name: str(rel_dir / name)  # noqa: E731
        self.expected_class = classify_pair(events[i], events[j], 1.0).value
        self.commands = [
            ("sprinkle", ["sprinkle", "--count", str(self.n), "--dim", "2", "--box=-1:1",
                          "--seed", str(self.seed), "--out", f("cli-sprinkled.events")]),
            ("relate", ["relate", f("cli.events"), str(i), str(j)]),
            ("hasse", ["hasse", f("cli.events"), "--dot", f("cli.dot")]),
            ("reconstruct_analytic", ["reconstruct", f("cli.events"), "--mode", "analytic"]),
            ("reconstruct_sampled", ["reconstruct", f("cli.events"), "--mode", "sampled"]),
            ("cutset-check", ["cutset-check", f("cli-cut.events"),
                              "--indices", ",".join(map(str, minimal))]),
            ("grade", ["grade", f("cli.events"), "--surface", f("cli.surface")]),
            ("crossing", ["crossing", "--surface", f("cli.surface"),
                          "--worldline", f("cli.worldline")]),
            ("counterexample", ["counterexample", "--surface", f("cli.surface"),
                                "--samples", str(self.samples), "--seed", str(self.seed)]),
            ("cone-classify", ["cone-classify", "--oracle", "subluminal:0.5:bwd", "--dim", "2",
                               "--invariance-samples", str(self.invariance),
                               "--seed", str(self.seed)]),
        ]
        self.pool = len(self.commands)
        self.first_stdout: dict[int, bytes] = {}
        self.max_child_rss_kb = 0
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def sizes(self) -> dict:
        return {"events": self.n, "cutset_events": self.n_cut, "surface_anchors": self.n_anchors,
                "counterexample_samples": self.samples, "invariance_samples": self.invariance,
                "commands": [name for name, _ in self.commands]}

    def _run(self, argv: list[str]) -> CliResult:
        """One subprocess with its own rusage, taken by wait4."""
        so, se = self.out / "cli.stdout", self.out / "cli.stderr"
        with open(so, "wb") as fo, open(se, "wb") as fe:
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, so.read_bytes(), se.read_text(errors="replace"))

    def warm_up(self) -> None:
        # Also writes the package's bytecode cache on a fresh checkout.
        res = self._run(["-c", "import causalorder.cli"])
        if res.code != 0:
            raise RuntimeError(f"cannot import causalorder.cli: {res.stderr}")

    def probes(self, tr) -> None:
        for _ in range(3):
            with tr.span("cli.startup"):
                self._run(["-c", "import causalorder.cli"])

    def op(self, k: int, tr):
        name, argv = self.commands[k]
        with tr.span(f"cli.{name}"):
            return self._run(["-m", "causalorder.cli", *argv])

    def check(self, k: int, res: CliResult) -> Outcome:
        name = self.commands[k][0]
        out = Outcome()
        text = res.stdout.decode(errors="replace")
        lines = dict(line.split(" ", 1) for line in text.splitlines() if " " in line)
        tracebacks = res.stderr.count("Traceback (most recent call last)")
        if name == "cutset-check" and res.code != 0 and CAP_DEFECT.search(res.stderr):
            out.defect("cutset-check gave up at the chain enumeration cap")
        else:
            out.expect(res.code == 0, f"{name} exited {res.code}: {res.stderr[-300:]}")
            out.expect(tracebacks == 0, f"{name} printed a traceback")
            stable = ELAPSED.sub(b"", res.stdout)
            first = self.first_stdout.setdefault(k, stable)
            out.expect(stable == first, f"{name} stdout differs between passes")
            want = {
                "sprinkle": lambda: (self.out / "cli-sprinkled.events").read_bytes()
                == (self.out / "cli.events").read_bytes(),
                "relate": lambda: lines.get("class") == self.expected_class,
                "hasse": lambda: lines.get("events") == str(self.n) and "edges" in lines,
                "reconstruct_analytic": lambda: lines.get("differences") == "0",
                "reconstruct_sampled": lambda: lines.get("false_negatives") == "0",
                "cutset-check": lambda: lines.get("cutset") == "true",
                "grade": lambda: text.count("\ngrade ") == self.n,
                "crossing": lambda: abs(float(lines.get("residual", "inf"))) <= CROSSING_TOL,
                "counterexample": lambda: lines.get("chain_ok") == "true"
                and lines.get("surface_hits") == f"0 / {self.samples}",
                "cone-classify": lambda: (lines.get("kind"), lines.get("direction"),
                                          lines.get("c_estimate"), lines.get("invariance"))
                == ("subluminal", "bwd", "0.5", "pass"),
            }[name]
            out.expect(want(), f"{name} output: {text[-300:]}")
        out.counts = {"cli.traceback_count": tracebacks}
        return out

    def layer_metrics(self, durs, counts) -> dict:
        m = {"cli.startup.s": (median_of(durs, "cli.startup"), "s")}
        for name, _ in self.commands:
            m[f"cli.{name}.s"] = (median_of(durs, f"cli.{name}"), "s")
        m["cli.traceback_count"] = (counts["cli.traceback_count"], "count")
        return m

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (SprinkleLarge, FiniteSmall, GeometryProbes, CliSuite)}
