"""Command-line front end.

Exit codes: 0 success, 1 a check command found a failing property or
could not finish (an order-axiom violation), 2 usage or parse errors
(a size flag over its cap among them), or an allocation that failed
for want of memory.  Every error is one `error:` line on stderr.
Each command returns its exit code and report lines; `main` alone
writes them. Reports echo the command and seed; every line except the
trailing `# elapsed` one is byte-deterministic for fixed inputs and
seed. `# elapsed` is the wall time from after argument parsing to the
report write, so it includes reading the inputs and the command's lazy
imports.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import fileio
from .fileio import _fmt
from .order import (
    TILE_CELLS,
    Direction,
    Event,
    OrderKind,
    OrderSpec,
    _analytic_block,
    _coordinates,
    _equal_block,
    _require_tol,
    classify_pair,
    leq,
)

# finite, hypersurfaces, worldlines and cones are imported inside the
# commands that call them, so a process loads only its command's modules.
if TYPE_CHECKING:
    from .cones import ConeOracle

# Caps on the size flags, checked before a command allocates anything.
# At each cap the largest run peaks near or under 1 GB of RSS:
# `sprinkle --dim 8` at about 1.1 GB, `counterexample` at 0.2 GB and
# `cone-classify --dim 8` at 0.3 GB.
MAX_COUNT = 1_000_000
MAX_SAMPLES = 10_000_000
MAX_INVARIANCE_SAMPLES = 100_000


def _require_at_most(value: int, cap: int, flag: str) -> None:
    if value > cap:
        raise ValueError(f"{flag} must be <= {cap}, got {value}")


def _parse_box(text: str, axes: int) -> tuple[tuple[float, float], ...]:
    parts = text.split(",")
    try:
        pairs = []
        for part in parts:
            lo, hi = part.split(":")
            pairs.append((float(lo), float(hi)))
    except ValueError:
        raise ValueError(f"box must be lo:hi[,lo:hi...], got {text!r}") from None
    if len(pairs) == 1:
        pairs = pairs * axes
    if len(pairs) != axes:
        raise ValueError(f"box needs 1 or {axes} axis ranges, got {len(pairs)}")
    return tuple(pairs)


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"bad index list {text!r}") from None


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _spec_from_args(args, default: OrderSpec) -> OrderSpec:
    """default, but for each of --order, --c and --dir the command has and the call sets."""
    kind = OrderKind(args.order) if vars(args).get("order") else default.kind
    c = args.c if args.c is not None else default.c
    direction = Direction(args.dir) if vars(args).get("dir") else default.direction
    return OrderSpec(kind, c, direction)


def _parse_oracle(text: str, dim: int) -> ConeOracle:
    """Oracle specs: causal:<c>:<fwd|bwd>, subluminal:<c>:<fwd|bwd>,
    temporal:<fwd|bwd>, affine:<r;r;...>:<spec> with ';'-separated rows
    of ','-separated entries acting on (x, t)."""
    from .cones import affine_cone, standard_cone

    head, _, rest = text.partition(":")
    if head == "temporal":
        if rest not in ("fwd", "bwd"):
            raise ValueError(f"bad oracle spec {text!r}")
        return standard_cone(OrderKind.TEMPORAL, Direction(rest), 1.0, dim)
    if head in ("causal", "subluminal"):
        c_text, _, d_text = rest.partition(":")
        try:
            c = float(c_text)
        except ValueError:
            raise ValueError(f"bad speed in {text!r}") from None
        if d_text not in ("fwd", "bwd"):
            raise ValueError(f"bad direction in {text!r}")
        return standard_cone(OrderKind(head), Direction(d_text), c, dim)
    if head == "affine":
        m_text, _, base_text = rest.partition(":")
        try:
            rows = [[float(v) for v in row.split(",")] for row in m_text.split(";")]
        except ValueError:
            raise ValueError(f"bad matrix in {text!r}") from None
        return affine_cone(_parse_oracle(base_text, dim), rows)
    raise ValueError(f"unknown oracle kind {head!r}")


# ---------------------------------------------------------------- commands

def cmd_sprinkle(args) -> tuple[int, list[str]]:
    from .finite import SprinkleConfig, sprinkle

    _require_at_most(args.count, MAX_COUNT, "--count")
    box = _parse_box(args.box, args.dim + 1)
    spec = _spec_from_args(args, OrderSpec(OrderKind.CAUSAL))
    events = sprinkle(SprinkleConfig(args.count, args.dim, box, args.seed))
    fileio.write_events(args.out, events, spec, dim=args.dim)
    return 0, [f"written {args.out}", f"events {len(events)}"]


def cmd_relate(args) -> tuple[int, list[str]]:
    events, spec = fileio.read_events(args.file)
    if not (0 <= args.i < len(events) and 0 <= args.j < len(events)):
        raise ValueError(f"indices must be in [0, {len(events) - 1}]")
    u, v = events[args.i], events[args.j]
    _require_tol(args.tol)  # named for the flag, not for classify_pair's eps
    spec = _spec_from_args(args, spec)
    lines = [f"pair {args.i} {args.j}", f"class {classify_pair(u, v, spec.c, args.tol).value}"]
    for kind in OrderKind:
        val = leq(OrderSpec(kind, spec.c, spec.direction), u, v)
        lines.append(f"leq {kind.value} {str(val).lower()}")
    return 0, lines


def cmd_hasse(args) -> tuple[int, list[str]]:
    from .finite import build, hasse

    events, spec = fileio.read_events(args.file)
    fcs = build(events, _spec_from_args(args, spec))
    edges = hasse(fcs)
    lines = [f"events {len(fcs)}", f"edges {len(edges)}"]
    if args.dot:
        Path(args.dot).write_text(fileio.dot_digraph(len(fcs), edges), encoding="utf-8")
        lines.append(f"written {args.dot}")
    return 0, lines


def cmd_cutset_check(args) -> tuple[int, list[str]]:
    from .finite import build, find_avoiding_chain

    indices = _parse_indices(args.indices)
    events, spec = fileio.read_events(args.file)
    fcs = build(events, _spec_from_args(args, spec))
    witness = find_avoiding_chain(fcs, indices)
    lines = [f"antichain {','.join(str(i) for i in indices)}"]
    if witness is None:
        return 0, [*lines, "cutset true"]
    return 1, [*lines, "cutset false", f"avoiding_chain {','.join(str(i) for i in witness)}"]


def cmd_grade(args) -> tuple[int, list[str]]:
    from .hypersurfaces import Grading

    hs = fileio.read_surface(args.surface)
    events, _ = fileio.read_events(args.file)
    return 0, [f"grade {i} {_fmt(v)}" for i, v in enumerate(Grading(hs).values(events).tolist())]


def cmd_crossing(args) -> tuple[int, list[str]]:
    from .hypersurfaces import _crossing

    hs = fileio.read_surface(args.surface)
    wl, _ = fileio.read_worldline(args.worldline)
    t_star, residual = _crossing(hs, wl, args.tol)
    return 0, [f"t_star {_fmt(t_star)}", f"residual {_fmt(residual)}"]


def cmd_reconstruct(args) -> tuple[int, list[str]]:
    from .finite import build, compare_relations, reconstruct_order

    events, spec = fileio.read_events(args.file)
    c = _spec_from_args(args, spec).c
    if args.mode == "analytic":
        causal = build(events, OrderSpec(OrderKind.CAUSAL, c))
        t, xs = _coordinates(events)
        diffs, rows = 0, max(1, TILE_CELLS // max(len(t), 1))
        for a in range(0, len(t), rows):
            band = t[a:a + rows], xs[a:a + rows]
            truth = causal.relation[a:a + rows] | _equal_block(*band, t, xs)
            wrong = _analytic_block(c, *band, t, xs) != truth
            np.fill_diagonal(wrong[:, a:], False)  # the pairs (i, i)
            diffs += int(np.count_nonzero(wrong))
        return 0 if diffs == 0 else 1, ["mode analytic", f"differences {diffs}"]
    sub = build(events, OrderSpec(OrderKind.SUBLUMINAL, c))
    causal = build(events, OrderSpec(OrderKind.CAUSAL, c))
    diff = compare_relations(reconstruct_order(sub), causal.relation)
    lines = ["mode sampled", f"false_positives {diff.false_positives}",
             f"false_negatives {diff.false_negatives}"]
    return 0 if diff.false_negatives == 0 else 1, lines


def cmd_counterexample(args) -> tuple[int, list[str]]:
    from .worldlines import canonical_gap_chain

    if args.samples < 0:
        raise ValueError("samples must be >= 0")
    _require_at_most(args.samples, MAX_SAMPLES, "--samples")
    hs = fileio.read_surface(args.surface)
    n = hs.dimension
    if args.basepoint:
        x0 = tuple(_parse_floats(args.basepoint, "--basepoint"))
        if len(x0) != n:
            raise ValueError(f"basepoint needs {n} coordinates")
    else:
        x0 = hs.anchors[0][0]
    h0 = hs.height(x0)
    if args.base_t is not None and not abs(args.base_t - h0) <= 1e-9:  # nan too
        raise ValueError("surface does not pass through the requested base event")
    origin = Event(h0, x0)
    d = [1.0] + [0.0] * (n - 1)
    if args.light_dir:
        d = _parse_floats(args.light_dir, "--light-dir")
    direction = Direction(args.dir)
    # the largest sample parameter; a t-len not positive and finite is the chain's to refuse
    if args.t_len < np.inf and 11.0 * args.t_len == np.inf:
        raise ValueError("t-len too large: samples reach 11 * t-len, which must be finite")
    chain = canonical_gap_chain(origin, d, args.t_len, hs.c, direction)
    # a static ray at x_r meets the surface only at t = h(x_r)
    ray_heights = hs.heights([ray.anchor_x for ray in chain.rays])
    if not np.isfinite(ray_heights).all():
        raise ValueError("surface height at the chain overflows")
    avoided = not any(ray.covers(h) for ray, h in zip(chain.rays, ray_heights.tolist()))
    if args.samples:  # as Grading.level_contains, once there is a sample
        _require_tol(args.tol)
    # the first draws lie on the ray anchored at origin, the rest on the displaced one
    rng = np.random.default_rng(args.seed)
    lower = args.samples // 2
    gap = 1e-3 if 1e-3 <= 10.0 * args.t_len else 1e-3 * args.t_len  # least offset past an anchor
    params = [-rng.uniform(gap, 10.0 * args.t_len, lower),
              args.t_len + rng.uniform(gap, 10.0 * args.t_len, args.samples - lower)]
    sign = 1.0 if direction is Direction.FORWARD else -1.0
    hits = 0
    with np.errstate(over="ignore"):  # a time that overflows is rejected below
        for ray, h, p in zip(chain.rays, ray_heights.tolist(), params):
            ts = ray.inside(origin.t + sign * p)
            if not np.isfinite(ts).all():
                raise ValueError("sample time overflows")
            hits += int(np.count_nonzero(np.abs(ts - h) <= args.tol))  # each sample sits at x_r
    # two rays open at their anchors form a chain iff the anchors are causally ordered
    below, above = sorted(chain.rays, key=lambda ray: ray.span)
    chain_ok = leq(OrderSpec(OrderKind.CAUSAL, chain.c), Event(below.anchor_t, below.anchor_x),
                   Event(above.anchor_t, above.anchor_x))
    spans = chain.time_image()
    lines = [f"surface_hits {hits} / {args.samples}",
             f"surface_avoided_certified {str(avoided).lower()}",
             f"chain_ok {str(chain_ok).lower()}"]
    for s in spans:
        lines.append(f"time_branch {'[' if s.lo_closed else '('}{_fmt(s.lo)}, "
                     f"{_fmt(s.hi)}{']' if s.hi_closed else ')'}")
    gap_lo = min(seg.segment.t_start for seg in chain.gaps)
    gap_hi = max(seg.segment.t_end for seg in chain.gaps)
    omitted = all(s.hi <= gap_lo or s.lo >= gap_hi for s in spans)
    lines.append(f"time_gap_certified {str(omitted).lower()}")
    return 0 if hits == 0 and avoided and chain_ok and omitted else 1, lines


def cmd_cone_classify(args) -> tuple[int, list[str]]:
    from .cones import ConeKind, check_invariance, classify_cone

    _require_at_most(args.invariance_samples, MAX_INVARIANCE_SAMPLES, "--invariance-samples")
    oracle = _parse_oracle(args.oracle, args.dim)
    lines = []
    code = 0
    if args.invariance_samples:
        inv = check_invariance(oracle, args.invariance_samples, args.seed)
        lines.append(f"invariance {'pass' if inv.passed else 'fail'}")
        if not inv.passed:
            lines.append(f"invariance_witness {inv.counterexample}")
            code = 1
    result = classify_cone(oracle, seed=args.seed)
    lines.append(f"kind {result.kind.value}")
    lines.append(f"direction {result.direction.value if result.direction else 'unknown'}")
    if result.c_estimate is not None:
        lines.append(f"c_estimate {_fmt(result.c_estimate)}")
    if result.evidence.witness:
        lines.append(f"witness {result.evidence.witness}")
    lines.append(f"probes {result.evidence.probes}")
    return 1 if result.kind is ConeKind.UNKNOWN else code, lines


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on one line, as every other exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="causalorder",
        description="Space-time order toolkit: sprinkles, relations, "
        "Hasse diagrams, gradings, crossings, and cone classification.",
        epilog="exit codes: 0 ok, 1 failed or unfinished check, 2 usage/parse error",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def order_flags(p):
        p.add_argument("--order", choices=[k.value for k in OrderKind])
        p.add_argument("--c", type=float)
        p.add_argument("--dir", choices=[d.value for d in Direction])

    p = sub.add_parser("sprinkle", help="write a uniform random event file")
    p.add_argument("--count", type=int, required=True, help=f"at most {MAX_COUNT}")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--box", required=True, help="lo:hi[,lo:hi...], space axes then time")
    p.add_argument("--seed", type=int, default=0)
    order_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sprinkle)

    p = sub.add_parser("relate", help="classify one event pair")
    p.add_argument("file")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--tol", type=float, default=0.0, help="light-cone tolerance")
    p.add_argument("--c", type=float)
    p.add_argument("--dir", choices=[d.value for d in Direction])
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser("hasse", help="relation matrix summary and DOT export")
    p.add_argument("file")
    order_flags(p)
    p.add_argument("--dot", help="write the cover digraph here")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("cutset-check", help="does the antichain meet every maximal chain")
    p.add_argument("file")
    p.add_argument("--indices", required=True)
    order_flags(p)
    p.set_defaults(func=cmd_cutset_check)

    p = sub.add_parser("grade", help="grading values of events against a surface")
    p.add_argument("file")
    p.add_argument("--surface", required=True)
    p.set_defaults(func=cmd_grade)

    p = sub.add_parser("crossing", help="surface/world-line crossing time")
    p.add_argument("--surface", required=True)
    p.add_argument("--worldline", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_crossing)

    p = sub.add_parser("reconstruct", help="recover the causal order from the subluminal one")
    p.add_argument("file")
    p.add_argument("--mode", choices=["analytic", "sampled"], default="analytic")
    p.add_argument("--c", type=float)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("counterexample", help="two-ray chain that dodges a surface antichain")
    p.add_argument("--surface", required=True)
    p.add_argument("--basepoint", help="comma-separated spatial point on the surface")
    p.add_argument("--base-t", type=float, help="expected surface time at the basepoint")
    p.add_argument("--light-dir", help="comma-separated unit direction")
    p.add_argument("--t-len", type=float, default=1.0)
    p.add_argument("--dir", choices=[d.value for d in Direction], default="fwd")
    p.add_argument("--samples", type=int, default=10_000, help=f"at most {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.0)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("cone-classify", help="identify a cone membership oracle",
                       description="A classification ends within 1158 probes of the oracle.")
    p.add_argument("--oracle", required=True,
                   help="causal:<c>:<fwd|bwd> | subluminal:<c>:<fwd|bwd> | "
                        "temporal:<fwd|bwd> | affine:<rows>:<spec>")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--invariance-samples", type=int, default=0,
                   help=f"at most {MAX_INVARIANCE_SAMPLES}")
    p.set_defaults(func=cmd_cone_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    t0 = time.perf_counter()
    try:
        code, lines = args.func(args)
    except MemoryError as exc:  # numpy's failed allocations too
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ValueError, OSError)) else 1
    head = [f"# command: {' '.join(argv)}"]
    if "seed" in args:  # sprinkle, counterexample and cone-classify
        head.append(f"# seed: {args.seed}")
    elapsed = f"# elapsed {time.perf_counter() - t0:.3f}s"
    sys.stdout.write("\n".join([*head, *lines, elapsed]) + "\n")
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
