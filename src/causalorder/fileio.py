"""Plain-text file formats: event sets, hypersurfaces, world lines, and
DOT export.

Every format is line-oriented UTF-8: `#` starts a comment, blank lines
are skipped, the first payload line is a `key=value` header, and data
rows are whitespace-separated numbers written with 17 significant
digits so values round-trip exactly.  A world line is a causal, forward
line: its header must say order=causal dir=fwd, as write_worldline does.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .order import MAX_SPACE_DIM, Direction, Event, OrderKind, OrderSpec, _require_dim

# hypersurfaces and worldlines load inside the readers that build their
# objects, so reading or writing events loads neither.
if TYPE_CHECKING:
    from .hypersurfaces import Hypersurface
    from .worldlines import GapWorldLine, KeptEnd, PolyWorldLine


class ParseError(ValueError):
    pass


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _read_header(
    path: Path, keys: Sequence[str]
) -> tuple[int, dict[str, str], int, float | OrderSpec, list[tuple[int, str]]]:
    """The header every format starts with: its line number, its fields
    (exactly keys, dim and c among them), dim in [0, MAX_SPACE_DIM], c as
    a number (as the OrderSpec of c, order and dir where keys hold them),
    and the numbered payload lines after it."""
    rows = []
    for no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((no, line))
    if not rows:
        raise ParseError(f"{path}:1: missing header")
    no, header = rows[0]
    fields: dict[str, str] = {}
    for tok in header.split():
        if "=" not in tok:
            raise ParseError(f"{path}:{no}: malformed header token {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
    if sorted(fields) != sorted(keys):
        raise ParseError(f"{path}:{no}: header must have exactly {' '.join(keys)}")
    try:
        dim = int(fields["dim"])
    except ValueError:
        raise ParseError(f"{path}:{no}: dim must be an integer") from None
    if not 0 <= dim <= MAX_SPACE_DIM:
        raise ParseError(f"{path}:{no}: dim must be in [0, {MAX_SPACE_DIM}]")
    c = _parse_float(path, no, fields["c"], "c")
    if "order" in fields:
        try:
            c = OrderSpec(OrderKind(fields["order"]), c, Direction(fields["dir"]))
        except ValueError as exc:
            raise ParseError(f"{path}:{no}: {exc}") from None
    return no, fields, dim, c, rows[1:]


def _parse_floats(path: Path, no: int, line: str, want: int) -> list[float]:
    toks = line.split()
    if len(toks) != want:
        raise ParseError(f"{path}:{no}: expected {want} numbers, got {len(toks)}")
    try:
        return [float(t) for t in toks]
    except ValueError as exc:
        raise ParseError(f"{path}:{no}: {exc}") from None


def _parse_float(path: Path, no: int, val: str, key: str) -> float:
    try:
        return float(val)
    except ValueError:
        raise ParseError(f"{path}:{no}: {key} must be a number") from None


# ---------------------------------------------------------------- events

def write_events(
    path: str | Path, events: Iterable[Event], spec: OrderSpec, dim: int | None = None
) -> None:
    """Event file: header `dim= c= order= dir=`, one `t x1 .. xn` row
    per event.  dim pins the header dimension for empty event lists."""
    events = list(events)
    n = dim if dim is not None else (events[0].n if events else 0)
    lines = [
        f"dim={n} c={_fmt(spec.c)} order={spec.kind.value} dir={spec.direction.value}"
    ]
    for e in events:
        _require_dim(e.n, n)
        lines.append(" ".join([_fmt(e.t)] + [_fmt(v) for v in e.x]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_events(path: str | Path) -> tuple[list[Event], OrderSpec]:
    path = Path(path)
    _, _, dim, spec, rows = _read_header(path, ["dim", "c", "order", "dir"])
    events = []
    for no, line in rows:
        vals = _parse_floats(path, no, line, dim + 1)
        try:
            events.append(Event(vals[0], vals[1:]))
        except ValueError as exc:
            raise ParseError(f"{path}:{no}: {exc}") from None
    return events, spec


# --------------------------------------------------------------- surfaces

def write_surface(path: str | Path, hs: Hypersurface) -> None:
    """Surface file: header `dim= c= k=`, one `h x1 .. xn` row per anchor."""
    lines = [f"dim={hs.dimension} c={_fmt(hs.c)} k={_fmt(hs.modulus)}"]
    for x, h in hs.anchors:
        lines.append(" ".join([_fmt(h)] + [_fmt(v) for v in x]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_surface(path: str | Path) -> Hypersurface:
    from .hypersurfaces import make_hypersurface

    path = Path(path)
    no, fields, dim, c, rows = _read_header(path, ["dim", "c", "k"])
    k = _parse_float(path, no, fields["k"], "k")
    if not rows:
        raise ParseError(f"{path}:{no}: surface needs at least one anchor")
    anchors = []
    for no, line in rows:
        vals = _parse_floats(path, no, line, dim + 1)
        anchors.append((tuple(vals[1:]), vals[0]))
    try:
        return make_hypersurface(anchors, k, c)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


# ------------------------------------------------------------ world lines

def write_worldline(
    path: str | Path, wl: PolyWorldLine, gaps: Sequence[tuple[float, float, KeptEnd]] = ()
) -> None:
    """World-line file: event header plus `t x1 .. xn` vertex rows; gap
    rows `gap t_start t_end lower|upper` describe removed stretches."""
    lines = [f"dim={wl.n} c={_fmt(wl.c)} order=causal dir=fwd"]
    for t, x in wl.vertices:
        lines.append(" ".join([_fmt(t)] + [_fmt(v) for v in x]))
    for t0, t1, kept in gaps:
        lines.append(f"gap {_fmt(t0)} {_fmt(t1)} {kept.value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_gap_worldline(path: str | Path, gwl: GapWorldLine) -> None:
    if gwl.base is None:
        raise ValueError("only base-backed gap world lines serialize")
    rows = [
        (g.segment.t_start, g.segment.t_end, g.kept_end)
        for g in gwl.gaps
    ]
    if any(k is None for _, _, k in rows):
        raise ValueError("gap rows need a kept endpoint")
    write_worldline(path, gwl.base, rows)  # type: ignore[arg-type]


def read_worldline(
    path: str | Path,
) -> tuple[PolyWorldLine, list[tuple[float, float, KeptEnd]]]:
    from .worldlines import KeptEnd, make_polyline

    path = Path(path)
    no, _, dim, spec, rows = _read_header(path, ["dim", "c", "order", "dir"])
    if (spec.kind, spec.direction) != (OrderKind.CAUSAL, Direction.FORWARD):
        raise ParseError(f"{path}:{no}: a world line needs order=causal dir=fwd")
    vertices: list[tuple[float, tuple[float, ...]]] = []
    gaps: list[tuple[float, float, KeptEnd]] = []
    for no, line in rows:
        if line.startswith("gap"):
            toks = line.split()
            if len(toks) != 4:
                raise ParseError(f"{path}:{no}: gap row needs t_start t_end kept")
            try:
                gaps.append((float(toks[1]), float(toks[2]), KeptEnd(toks[3])))
            except ValueError as exc:
                raise ParseError(f"{path}:{no}: {exc}") from None
            continue
        vals = _parse_floats(path, no, line, dim + 1)
        vertices.append((vals[0], tuple(vals[1:])))
    try:
        wl = make_polyline(vertices, spec.c)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return wl, gaps


def gap_worldline_from_file(path: str | Path) -> GapWorldLine:
    """Rebuild a GapWorldLine: gap rows must match the line's own light
    segments one for one."""
    from .worldlines import make_gap_worldline

    wl, gap_rows = read_worldline(path)
    segs = wl.light_segments()
    if len(gap_rows) != len(segs):
        raise ParseError(
            f"{path}: file lists {len(gap_rows)} gaps, line has {len(segs)} light segments"
        )
    kept: list[KeptEnd] = []
    for (t0, t1, end), seg in zip(sorted(gap_rows), segs):
        span = seg.t_end - seg.t_start
        if not (abs(t0 - seg.t_start) <= 1e-9 * span and abs(t1 - seg.t_end) <= 1e-9 * span):
            raise ParseError(
                f"{path}: gap ({t0:g}, {t1:g}) does not match a light segment"
            )
        kept.append(end)
    return make_gap_worldline(wl, kept)


# ------------------------------------------------------------------- DOT

def dot_digraph(num_nodes: int, edges: Sequence[tuple[int, int]]) -> str:
    """DOT digraph `hasse` with 0-based index nodes and lexicographic edges."""
    edges = sorted(edges)
    # sorted, the sources run from edges[0][0] to edges[-1][0]
    cols = [j for _, j in edges]
    if edges and not (0 <= edges[0][0] and edges[-1][0] < num_nodes
                      and 0 <= min(cols) and max(cols) < num_nodes):
        i, j = next((i, j) for i, j in edges if not (0 <= i < num_nodes and 0 <= j < num_nodes))
        raise ValueError(f"edge ({i}, {j}) outside node range [0, {num_nodes})")
    name = list(map(str, range(num_nodes)))  # each index stringified once
    return "".join([
        "digraph hasse {\n",
        *[f"  {s};\n" for s in name],
        *[f"  {name[i]} -> {name[j]};\n" for i, j in edges],
        "}\n",
    ])
