"""Plain-text file formats: round-trips, located parse errors, DOT export."""

import math
import re

import pytest

from causalorder.fileio import (
    ParseError,
    dot_digraph,
    gap_worldline_from_file,
    read_events,
    read_surface,
    read_worldline,
    write_events,
    write_gap_worldline,
    write_surface,
    write_worldline,
)
from causalorder.hypersurfaces import make_hypersurface
from causalorder.order import Direction, Event, OrderKind, OrderSpec, event
from causalorder.worldlines import KeptEnd, make_gap_worldline, make_polyline


def test_event_roundtrip_preserves_floats(tmp_path):
    path = tmp_path / "ev.txt"
    events = [
        event(0.1 + 0.2, 1.0 / 3.0, -7.25),
        event(-1e-17, 2.0**-40, 12345.6789),
    ]
    spec = OrderSpec(OrderKind.SUBLUMINAL, 0.75, Direction.BACKWARD)
    write_events(path, events, spec)
    back, back_spec = read_events(path)
    assert back == events  # 17 significant digits reproduce doubles exactly
    assert back_spec == spec


def test_write_events_rejects_mixed_dimensions(tmp_path):
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 1$"):
        write_events(tmp_path / "ev.txt", [event(0.0, 0.0), event(1.0, 0.0, 0.0)],
                     OrderSpec(OrderKind.CAUSAL))


def test_event_file_comments_and_blank_lines(tmp_path):
    path = tmp_path / "ev.txt"
    path.write_text(
        "# sprinkle output\n"
        "dim=1 c=2 order=temporal dir=bwd\n"
        "\n"
        "0.5 1.0  # trailing comment\n"
        "1.5 -1.0\n"
    )
    events, spec = read_events(path)
    assert events == [event(0.5, 1.0), event(1.5, -1.0)]
    assert spec == OrderSpec(OrderKind.TEMPORAL, 2.0, Direction.BACKWARD)


def test_event_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n1 a\n")
    with pytest.raises(ParseError, match=r"bad\.txt:3"):
        read_events(path)

    path.write_text("dim=1 c=1 order=causal dir=fwd\n0 0 0\n")
    with pytest.raises(ParseError, match="expected 2 numbers, got 3"):
        read_events(path)

    path.write_text("dim=1 c=1\n0 0\n")
    with pytest.raises(ParseError, match="order"):
        read_events(path)

    path.write_text("")
    with pytest.raises(ParseError, match="header"):
        read_events(path)


def test_event_header_value_validation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim=1 c=-1 order=causal dir=fwd\n0 0\n")
    with pytest.raises(ParseError):
        read_events(path)
    path.write_text("dim=1 c=1 order=galilean dir=fwd\n0 0\n")
    with pytest.raises(ParseError):
        read_events(path)


def test_surface_roundtrip(tmp_path):
    hs = make_hypersurface([((0.0, 0.0), 0.0), ((3.0, 4.0), 2.5)], 0.5, 1.0)
    path = tmp_path / "surf.txt"
    write_surface(path, hs)
    back = read_surface(path)
    assert back.anchors == hs.anchors
    assert back.modulus == hs.modulus and back.c == hs.c
    assert back.height((1.0, 1.0)) == hs.height((1.0, 1.0))


def test_surface_inconsistent_anchors_reported(tmp_path):
    path = tmp_path / "surf.txt"
    path.write_text("dim=1 c=1 k=0.5\n0 0\n10 1\n")
    with pytest.raises(ParseError, match="anchors 0 and 1"):
        read_surface(path)


def test_worldline_roundtrip_with_gaps(tmp_path):
    wl = make_polyline(
        [(-1.0, (0.5,)), (0.0, (0.0,)), (1.0, (1.0,)), (3.0, (1.0,)), (4.0, (0.0,)), (5.0, (0.3,))],
        1.0,
    )
    gwl = make_gap_worldline(wl, [KeptEnd.LOWER, KeptEnd.UPPER])
    path = tmp_path / "gw.txt"
    write_gap_worldline(path, gwl)
    back = gap_worldline_from_file(path)
    assert back.base.vertices == wl.vertices
    assert [(g.segment.t_start, g.segment.t_end, g.kept_end) for g in back.gaps] == [
        (0.0, 1.0, KeptEnd.LOWER),
        (3.0, 4.0, KeptEnd.UPPER),
    ]

    plain = tmp_path / "wl.txt"
    write_worldline(plain, wl)
    back_wl, rows = read_worldline(plain)
    assert back_wl.vertices == wl.vertices and rows == []


def test_gap_rows_must_match_light_segments(tmp_path):
    path = tmp_path / "gw.txt"
    path.write_text(
        "dim=1 c=1 order=causal dir=fwd\n"
        "-1 0.5\n0 0\n1 1\n2 1\n"
        "gap 0.25 0.75 lower\n"  # not a light segment of the line
    )
    with pytest.raises(ParseError, match="light segment"):
        gap_worldline_from_file(path)
    # a NaN row matches no segment, though abs(nan - t) > tol is False
    path.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n1 0\n2 1\n3 1\ngap nan nan lower\n")
    with pytest.raises(ParseError, match=r"gw\.txt: gap \(nan, nan\) does not match a light segment$"):
        gap_worldline_from_file(path)
    path.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n1 0.5\ngap 0 1 lower\n")
    with pytest.raises(ParseError, match=r"gw\.txt: file lists 1 gaps, line has 0 light segments$"):
        gap_worldline_from_file(path)


def test_gap_row_syntax_errors(tmp_path):
    path = tmp_path / "gw.txt"
    path.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n1 0.5\ngap 0 1\n")
    with pytest.raises(ParseError, match=r"gw\.txt:4"):
        read_worldline(path)
    path.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n1 0.5\ngap 0 1 middle\n")
    with pytest.raises(ParseError):
        read_worldline(path)


def test_worldline_header_must_be_causal_forward(tmp_path):
    # the header's order and dir are what write_worldline writes, never
    # another order the reader would silently ignore
    path = tmp_path / "wl.txt"
    for order, direction in [("causal", "bwd"), ("subluminal", "fwd"), ("temporal", "bwd")]:
        path.write_text(f"# a comment\ndim=1 c=1 order={order} dir={direction}\n0 0\n1 0.5\n")
        want = rf"^{re.escape(str(path))}:2: a world line needs order=causal dir=fwd$"
        for reader in (read_worldline, gap_worldline_from_file):
            with pytest.raises(ParseError, match=want):
                reader(path)
    path.write_text("# a comment\ndim=1 c=1 order=causal dir=fwd\n0 0\n1 0.5\n")
    assert read_worldline(path)[0].vertices == ((0.0, (0.0,)), (1.0, (0.5,)))


def test_ray_backed_chains_do_not_serialize(tmp_path):
    from causalorder.worldlines import canonical_gap_chain

    gwl = canonical_gap_chain(event(0.0, 0.0), (1.0,), 1.0, 1.0)
    with pytest.raises(ValueError):
        write_gap_worldline(tmp_path / "nope.txt", gwl)
    light = make_polyline([(0.0, (0.0,)), (1.0, (0.0,)), (2.0, (1.0,)), (3.0, (1.0,))], 1.0)
    with pytest.raises(ValueError, match=r"^gap rows need a kept endpoint$"):
        write_gap_worldline(tmp_path / "nope.txt", make_gap_worldline(light, [None]))


def test_dot_export_golden():
    text = dot_digraph(3, [(2, 0), (0, 1)])
    assert text == (
        "digraph hasse {\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        "  0 -> 1;\n"
        "  2 -> 0;\n"
        "}\n"
    )
    assert dot_digraph(0, []) == "digraph hasse {\n}\n"


def test_dot_rejects_out_of_range_edges():
    # the message names the first bad edge in lexicographic order
    for edges, bad in [
        ([(0, 5)], (0, 5)),
        ([(1, 0), (3, 0)], (3, 0)),
        ([(0, 1), (-1, 0)], (-1, 0)),
        ([(1, 0), (0, -1)], (0, -1)),
        ([(1, 9), (0, 1), (1, 0), (0, 7)], (0, 7)),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"edge {bad} outside node range [0, 2)")):
            dot_digraph(2, edges)
