"""Command-line surface: in-process invocations, exit codes, determinism."""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalorder import cli, cones, finite
from causalorder.cli import main
from causalorder.fileio import (_fmt, read_events, read_surface, write_events, write_surface,
                                write_worldline)
from causalorder.hypersurfaces import Grading, Hypersurface, make_hypersurface
from causalorder.order import Direction, Event, OrderKind, OrderSpec
from causalorder.worldlines import canonical_gap_chain, make_polyline


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def body(text):
    """Report lines minus the trailing timing line."""
    return [l for l in text.splitlines() if not l.startswith("# elapsed")]


@pytest.fixture()
def event_file(tmp_path):
    path = tmp_path / "ev.txt"
    code, _, err = run(
        ["sprinkle", "--count", "30", "--dim", "2", "--box=-5:5,-5:5,0:10",
         "--seed", "3", "--out", str(path)]
    )
    assert code == 0, err
    return path


def test_sprinkle_writes_deterministic_files(tmp_path):
    args = ["sprinkle", "--count", "20", "--dim", "1", "--box=-2:2,0:5", "--seed", "9"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(args + ["--out", str(a)])[0] == 0
    assert run(args + ["--out", str(b)])[0] == 0
    assert a.read_text() == b.read_text()
    assert len(a.read_text().splitlines()) == 21  # header + 20 rows


def test_sprinkle_zero_count_header_only(tmp_path):
    out = tmp_path / "empty.txt"
    code, _, _ = run(["sprinkle", "--count", "0", "--dim", "1", "--box=0:1,0:1", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("dim=1 ")
    assert len(out.read_text().splitlines()) == 1


def test_relate_frozen_lightlike_pair(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n1 1\n")
    code, out, _ = run(["relate", str(path), "0", "1"])
    assert code == 0
    lines = body(out)
    assert "class lightlike-forward" in lines
    assert "leq causal true" in lines
    assert "leq subluminal false" in lines
    assert "leq temporal true" in lines

    code, out, _ = run(["relate", str(path), "0", "0"])
    assert code == 0
    assert "class equal" in body(out)

    path.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n0 1\n")
    code, out, _ = run(["relate", str(path), "0", "1"])
    assert "class spacelike" in body(out)
    assert "leq causal false" in body(out)


def test_relate_takes_no_order_flag(event_file):
    # relate prints leq under all three orders, so there is no --order to pick one
    code, out, err = run(["relate", str(event_file), "3", "17", "--order", "causal"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --order causal")


def test_relate_bad_index_is_usage_error(event_file):
    code, _, err = run(["relate", str(event_file), "0", "99"])
    assert code == 2
    assert "indices" in err


def test_hasse_frozen_counts(tmp_path):
    chain = tmp_path / "chain.txt"
    chain.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n1 0\n2 0\n")
    dot = tmp_path / "chain.dot"
    code, out, _ = run(["hasse", str(chain), "--dot", str(dot)])
    assert code == 0
    assert "edges 2" in body(out)
    text = dot.read_text()
    assert text.startswith("digraph hasse {") and "0 -> 1;" in text and "1 -> 2;" in text

    empty = tmp_path / "empty.txt"
    empty.write_text("dim=1 c=1 order=causal dir=fwd\n")
    code, out, _ = run(["hasse", str(empty)])
    assert code == 0 and "edges 0" in body(out)

    diamond = tmp_path / "diamond.txt"
    diamond.write_text("dim=1 c=1 order=causal dir=fwd\n0 0\n1 0.6\n1 -0.6\n2 0\n")
    code, out, _ = run(["hasse", str(diamond)])
    assert "edges 4" in body(out)


def test_cutset_check_verdicts(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("dim=2 c=1 order=causal dir=fwd\n0 0 0\n1 0 0\n2 5 0\n")
    code, out, _ = run(["cutset-check", str(path), "--indices", "1,2"])
    assert code == 0 and "cutset true" in body(out)

    code, out, _ = run(["cutset-check", str(path), "--indices", "2"])
    assert code == 1
    assert "cutset false" in body(out)
    assert "avoiding_chain 0,1" in body(out)

    code, _, err = run(["cutset-check", str(path), "--indices", "0,1"])
    assert code == 2 and "antichain" in err


def test_axiom_violation_is_one_line_exit_1(monkeypatch, event_file):
    def broken(kind, c, ta, xa, tb, xb):  # the kernel, on 30 events: one tile
        rel = np.zeros((len(ta), len(tb)), dtype=bool)
        rel[0, 1] = rel[1, 2] = True
        return rel

    monkeypatch.setattr(finite, "_strict_block", broken)
    code, out, err = run(["hasse", str(event_file)])
    assert code == 1 and out == ""
    assert err == "error: transitivity violated at pair (0, 2)\n"


@pytest.mark.parametrize("message", ["", "Unable to allocate 1.49 GiB for an array"])
def test_out_of_memory_is_one_line_exit_2(monkeypatch, tmp_path, message):
    # numpy's allocation failure is a MemoryError with a message; a bare
    # one has none, and gets a fixed text
    def sprinkle(cfg):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(finite, "sprinkle", sprinkle)
    out_file = tmp_path / "big.txt"
    code, out, err = run(["sprinkle", "--count", str(cli.MAX_COUNT), "--dim", "1", "--box=0:1",
                          "--out", str(out_file)])
    assert code == 2 and out == ""
    assert err == f"error: {message or 'out of memory'}\n"
    assert not out_file.exists()


def test_cutset_check_has_no_chain_cap(tmp_path):
    # 250 events in 1+1 have more than a million maximal chains, so the
    # check must not enumerate them
    path = tmp_path / "cut.txt"
    code, _, err = run(["sprinkle", "--count", "250", "--dim", "1", "--box=-1:1",
                        "--seed", "1", "--out", str(path)])
    assert code == 0, err
    events, spec = read_events(path)
    fcs = finite.build(events, spec)
    minimal = np.flatnonzero(~fcs.relation.any(axis=0)).tolist()
    indices = ",".join(map(str, minimal))
    code, out, err = run(["cutset-check", str(path), "--indices", indices])
    assert code == 0 and err == ""
    assert "cutset true" in body(out)

    # a maximal chain is a cover path from a minimal element to a
    # maximal one, so an avoiding chain must start at the one left out
    indices = ",".join(map(str, minimal[1:]))
    code, out, err = run(["cutset-check", str(path), "--indices", indices])
    assert code == 1 and err == ""
    lines = body(out)
    assert "cutset false" in lines
    witness = next(l for l in lines if l.startswith("avoiding_chain "))
    chain = [int(v) for v in witness.split()[1].split(",")]
    assert chain[0] == minimal[0]
    covers = set(finite.hasse(fcs))
    assert all((a, b) in covers for a, b in zip(chain, chain[1:]))
    assert not fcs.relation[chain[-1]].any()


def test_grade_flat_surface_echoes_time(tmp_path, event_file):
    surf = tmp_path / "flat.txt"
    write_surface(surf, make_hypersurface([((0.0, 0.0), 0.0)], 1e-12, 1.0))
    code, out, _ = run(["grade", str(event_file), "--surface", str(surf)])
    assert code == 0
    events, _ = read_events(event_file)
    values = [float(l.split()[2]) for l in body(out) if l.startswith("grade ")]
    assert len(values) == len(events)
    for got, e in zip(values, events):
        assert abs(got - e.t) <= 1e-9 * max(1.0, abs(e.t))


@pytest.fixture()
def surface_file(tmp_path):
    """100 anchors with h_i = 0.45 |x_i| under k = 0.5, as in CI."""
    xs = np.random.default_rng(1).uniform(-5, 5, (100, 2)).tolist()
    path = tmp_path / "surface.txt"
    write_surface(path, make_hypersurface([(x, 0.45 * math.hypot(*x)) for x in xs], 0.5, 1.0))
    return path


def test_grade_lines_match_grading_value(tmp_path, surface_file):
    # 700 events span two row tiles of the 100-anchor heights
    path = tmp_path / "ev.txt"
    code, _, err = run(["sprinkle", "--count", "700", "--dim", "2", "--box=-6:6,-6:6,-3:3",
                        "--seed", "5", "--out", str(path)])
    assert code == 0, err
    code, out, err = run(["grade", str(path), "--surface", str(surface_file)])
    assert code == 0 and err == ""
    events, _ = read_events(path)
    g = Grading(read_surface(surface_file))
    want = [f"grade {i} {_fmt(g.value(e))}" for i, e in enumerate(events)]
    assert [l for l in body(out) if l.startswith("grade ")] == want


def _level_samples(surface_path, samples, seed, direction="fwd"):
    """The grading and sample events of counterexample's run with the
    default light direction and t-len: the two-ray chain from the first
    anchor, the same sample times (the first half on the ray at the
    anchor), placed where the chain's point set is at each time."""
    hs = read_surface(surface_path)
    origin = hs.graph_event(hs.anchors[0][0])
    chain = canonical_gap_chain(origin, (1.0, 0.0), 1.0, hs.c, Direction(direction))
    rng = np.random.default_rng(seed)
    params = np.concatenate([-rng.uniform(1e-3, 10.0, samples // 2),
                             1.0 + rng.uniform(1e-3, 10.0, samples - samples // 2)])
    sign = 1.0 if direction == "fwd" else -1.0
    times = [origin.t + sign * p for p in params.tolist()]
    return Grading(hs), [Event(t, chain._branches(t)[0]) for t in times]


def test_counterexample_hits_match_level_contains(surface_file):
    for direction in ("fwd", "bwd"):
        g, events = _level_samples(surface_file, 2000, 3, direction)
        nearest = min(abs(g.value(e)) for e in events)  # one sample sits on this band's edge
        counts = []
        for tol in (0.0, 0.5, nearest, 2.0):
            code, out, err = run(["counterexample", "--surface", str(surface_file), "--dir",
                                  direction, "--samples", "2000", "--seed", "3", f"--tol={tol!r}"])
            assert err == ""
            hit = [g.level_contains(0.0, e, tol) for e in events]
            assert f"surface_hits {sum(hit)} / 2000" in body(out)
            assert code == (0 if sum(hit) == 0 else 1)
            counts.append((sum(hit[:1000]), sum(hit[1000:])))  # per ray
        assert counts[0] == (0, 0) and counts[1][1] == 0  # 0.5 holds only the anchor ray's samples
        assert 0 < sum(counts[2]) <= sum(counts[1]) < sum(counts[3])
        assert min(counts[3]) > 0  # the 2.0 band holds samples of both rays
    code, out, err = run(["counterexample", "--surface", str(surface_file),
                          "--samples", "2000", "--seed", "3", "--tol=nan"])
    assert code == 2 and out == ""
    assert err == "error: tol must be finite and >= 0, got nan\n"
    code, out, err = run(["counterexample", "--surface", str(surface_file), "--tol=-1"])
    assert code == 2 and out == ""
    assert err == "error: tol must be finite and >= 0, got -1.0\n"


def test_counterexample_samples_stay_inside_the_rays_near_1e14(tmp_path):
    # 1e-3 is below half an ulp of 1e14, so some draws round onto an
    # open ray anchor; they move one ulp inside their ray
    path = tmp_path / "s14.txt"
    write_surface(path, make_hypersurface([((0.0, 0.0), 1e14), ((3.0, 4.0), 1e14 + 2.0)], 0.5, 1.0))
    for flags, samples in ((["--samples", "500"], 500), ([], 10_000)):
        code, out, err = run(["counterexample", "--surface", str(path), *flags])
        assert code == 0 and err == ""
        lines = body(out)
        assert f"surface_hits 0 / {samples}" in lines
        for name in ("surface_avoided_certified", "chain_ok", "time_gap_certified"):
            assert f"{name} true" in lines


def test_crossing_reports_root_and_residual(tmp_path):
    surf = tmp_path / "cone.txt"
    write_surface(surf, make_hypersurface([((0.0,), 0.0)], 0.5, 1.0))
    wl = tmp_path / "wl.txt"
    write_worldline(wl, make_polyline([(-5.0, (2.0,)), (5.0, (2.0,))], 1.0))
    code, out, _ = run(["crossing", "--surface", str(surf), "--worldline", str(wl)])
    assert code == 0
    lines = body(out)
    t_star = float(next(l.split()[1] for l in lines if l.startswith("t_star")))
    residual = float(next(l.split()[1] for l in lines if l.startswith("residual")))
    assert abs(t_star - 1.0) <= 2e-9
    assert abs(residual) <= 1e-9


def test_crossing_outside_window_is_usage_error(tmp_path):
    surf = tmp_path / "cone.txt"
    write_surface(surf, make_hypersurface([((0.0,), 0.0)], 0.5, 1.0))
    wl = tmp_path / "wl.txt"
    write_worldline(wl, make_polyline([(50.0, (0.0,)), (51.0, (0.0,))], 1.0))
    code, _, err = run(["crossing", "--surface", str(surf), "--worldline", str(wl)])
    assert code == 2 and "no crossing" in err


def test_crossing_bad_tolerance_is_usage_error(tmp_path):
    surf = tmp_path / "cone.txt"
    write_surface(surf, make_hypersurface([((0.0,), 0.0)], 0.5, 1.0))
    wl = tmp_path / "wl.txt"
    write_worldline(wl, make_polyline([(-5.0, (2.0,)), (5.0, (2.0,))], 1.0))
    for tol in ("-1", "nan"):
        code, out, err = run(["crossing", "--surface", str(surf), "--worldline", str(wl),
                              f"--tol={tol}"])
        assert code == 2 and out == ""
        assert err == f"error: tol must be finite and >= 0, got {float(tol)!r}\n"


def test_crossing_segment_past_the_margin_is_usage_error(tmp_path):
    # k*c < 1, but the line's speed tolerance lets one segment reach k*|v| > 1
    surf = tmp_path / "cone.txt"
    write_surface(surf, make_hypersurface([((0.0,), 0.0)], 1.0 / (1.0 + 2e-10), 1.0))
    wl = tmp_path / "wl.txt"
    write_worldline(wl, make_polyline([(-5.0, (0.0,)), (-4.0, (1.0 + 5e-10,)),
                                       (5.0, (1.0 + 5e-10,))], 1.0))
    code, out, err = run(["crossing", "--surface", str(surf), "--worldline", str(wl)])
    assert code == 2 and out == ""
    assert err == "error: world line speed bound breaks the k*c < 1 margin\n"


def test_reconstruct_analytic_zero_diffs(event_file):
    code, out, _ = run(["reconstruct", str(event_file), "--mode", "analytic"])
    assert code == 0
    assert "differences 0" in body(out)


def test_reconstruct_analytic_counts_a_flipped_cell(monkeypatch, event_file):
    # one off-diagonal cell of the block disagrees with the causal
    # relation, so the check must report exactly one difference
    block = cli._analytic_block

    def flipped(c, ta, xa, tb, xb):
        out = block(c, ta, xa, tb, xb)
        out[0, 1] = not out[0, 1]
        return out

    monkeypatch.setattr(cli, "_analytic_block", flipped)
    code, out, err = run(["reconstruct", str(event_file)])
    assert code == 1 and err == ""
    assert "differences 1" in body(out)


def test_reconstruct_sampled_reports_counts(event_file):
    code, out, _ = run(["reconstruct", str(event_file), "--mode", "sampled"])
    assert code == 0
    lines = body(out)
    assert any(l.startswith("false_positives ") for l in lines)
    assert "false_negatives 0" in lines


def test_counterexample_certifies_gap(tmp_path):
    surf = tmp_path / "surf.txt"
    write_surface(surf, make_hypersurface([((0.0, 0.0), 0.0), ((3.0, 4.0), 2.5)], 0.5, 1.0))
    code, out, _ = run(
        ["counterexample", "--surface", str(surf), "--light-dir", "1,0",
         "--t-len", "2", "--samples", "1000", "--seed", "4"]
    )
    assert code == 0
    lines = body(out)
    assert "surface_hits 0 / 1000" in lines
    assert "surface_avoided_certified true" in lines
    assert "chain_ok true" in lines
    assert "time_gap_certified true" in lines


def test_counterexample_base_t_must_be_the_surface_height(surface_file):
    hs = read_surface(surface_file)
    h0 = hs.height(hs.anchors[0][0])
    argv = ["counterexample", "--surface", str(surface_file), "--samples", "200"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    code, exact, err = run([*argv, "--base-t", repr(h0)])
    assert (code, err) == (0, "")
    assert body(exact)[1:] == body(out)[1:]  # all but the `# command` line
    code, out, err = run([*argv, "--base-t", repr(h0 + 1.0)])
    assert (code, out) == (2, "")
    assert err == "error: surface does not pass through the requested base event\n"


def test_counterexample_exit_follows_the_surface_certificate(monkeypatch, surface_file):
    # heights one below the surface put the lower ray's crossing at
    # origin.t - 1, inside its open time range; no sample lands there
    heights = Hypersurface.heights
    monkeypatch.setattr(Hypersurface, "heights", lambda self, points: heights(self, points) - 1.0)
    for samples in ("0", "500"):
        code, out, err = run(["counterexample", "--surface", str(surface_file),
                              "--samples", samples])
        assert (code, err) == (1, "")
        lines = body(out)
        assert f"surface_hits 0 / {samples}" in lines
        assert "surface_avoided_certified false" in lines
        assert "chain_ok true" in lines and "time_gap_certified true" in lines


@pytest.mark.parametrize("t_len", ["1e308", "1.7e307"])
def test_counterexample_overflowing_t_len_is_usage_error(surface_file, t_len):
    # samples reach 11 * t_len: 1e308 overflows the range of the draw,
    # 1.7e307 the sum t_len + draw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["counterexample", "--surface", str(surface_file), "--t-len", t_len])
    assert (code, out) == (2, "")
    assert err == "error: t-len too large: samples reach 11 * t-len, which must be finite\n"


@pytest.mark.parametrize("samples", [0, 100])
def test_counterexample_draws_at_a_t_len_below_1e_4(surface_file, samples):
    # the draws start 1e-3 past an anchor, or 1e-3 * t_len where that
    # would pass their far end, 10 * t_len
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["counterexample", "--surface", str(surface_file),
                              "--samples", str(samples), "--t-len", "1e-5"])
    assert (code, err) == (0, "")
    lines = body(out)
    assert f"surface_hits 0 / {samples}" in lines
    for name in ("surface_avoided_certified", "chain_ok", "time_gap_certified"):
        assert f"{name} true" in lines


@pytest.mark.parametrize("t_len, code", [("1e154", 0), ("2e154", 2), ("1e200", 2)])
def test_counterexample_refuses_anchors_beyond_the_cone_test(surface_file, t_len, code):
    # the anchors sit about t_len apart on the light cone; from about
    # 1.3e154 the cone test squares their offset to inf and would read
    # them unrelated, so the command refuses instead of printing chain_ok
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(["counterexample", "--surface", str(surface_file),
                             "--samples", "100", "--t-len", t_len])
    if code:
        assert (got, out, err) == (2, "", "error: chain anchors too far apart for the cone test\n")
    else:
        assert (got, err) == (0, "") and "chain_ok true" in body(out)


# sha256 digests of the CI's 2000-event sprinkle (2+1, box [0, 1]^3,
# seed 1) as the time-ordered block products computed them before the
# banded build: the relation and covers of the causal build, the Hasse
# DOT export, and reconstruct_order of the subluminal build.
CI_DIGESTS = {
    "relation": "fd58d692d58a6f388b1aad42a04e17858305bcc0564e88200fdc067d46576972",
    "covers": "22b27fef34f38a86a914d26c5415c4c7c6e2e03cf11e8c7ef8f275605a159148",
    "dot": "d59523f54ff9d86578f81883e869b4092c53bf4d9da9b1c302eef2aebbf4d040",
    "reconstruct": "2afdb3f3bc00733c1d95dc1843df0209e080979a7061e7614f1f8187f7a23e09",
}


def test_max_events_outputs_are_bit_identical(tmp_path):
    path, dot = tmp_path / "ev.txt", tmp_path / "h.dot"
    assert run(["sprinkle", "--count", "2000", "--dim", "2", "--box=0:1", "--seed", "1",
                "--out", str(path)])[0] == 0
    assert run(["hasse", str(path), "--dot", str(dot)])[0] == 0
    events, spec = read_events(path)
    fcs = finite.build(events, spec)
    covers = np.zeros(len(fcs) ** 2, dtype=bool)  # the dense matrix the digest was taken of
    covers[fcs.covers] = True
    sub = finite.build(events, OrderSpec(OrderKind.SUBLUMINAL, spec.c))
    digests = {
        "relation": fcs.relation.tobytes(),
        "covers": covers.tobytes(),
        "dot": dot.read_bytes(),
        "reconstruct": finite.reconstruct_order(sub).tobytes(),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()} == CI_DIGESTS


@pytest.mark.parametrize("oracle, dim", [
    ("causal:1:fwd", 2), ("subluminal:1e-300:bwd", 8), ("temporal:fwd", 0),
    ("affine:1e300,0;0,1:subluminal:1:fwd", 1), ("affine:1,0;0,0:causal:1:fwd", 1),
])
def test_cone_classify_huge_budget_changes_nothing(oracle, dim):
    # no budget: the speed bisection ends on doubles, so the probe bound
    # k + 1153 (1158 for every CLI oracle) is the one limit
    code, out, err = run(["cone-classify", "--oracle", oracle, "--dim", str(dim)])
    assert code in (0, 1) and err == ""
    probes = int(next(l for l in body(out) if l.startswith("probes ")).split()[1])
    assert probes <= 1158
    code, out, err = run(["cone-classify", "--oracle", oracle, "--dim", str(dim),
                          "--budget", "1000000000000000000"])
    assert (code, out, err) == (2, "", "error: unrecognized arguments: --budget "
                                       "1000000000000000000\n")


def test_cone_classify_standard_and_unknown():
    code, out, _ = run(["cone-classify", "--oracle", "subluminal:0.5:bwd", "--dim", "1"])
    assert code == 0
    lines = body(out)
    assert "kind subluminal" in lines
    assert "direction bwd" in lines
    assert "c_estimate 0.5" in lines

    code, out, _ = run(
        ["cone-classify", "--oracle", "affine:2,0,0;0,1,0;0,0,1:causal:1:fwd",
         "--dim", "2", "--invariance-samples", "200"]
    )
    assert code == 1
    assert "invariance fail" in body(out)

    code, _, err = run(["cone-classify", "--oracle", "weird:1:fwd", "--dim", "1"])
    assert code == 2


def test_cone_classify_degenerate_affine_is_unknown():
    # the map sends (0, +1) and (0, -1) onto the apex, so both are members
    code, out, _ = run(["cone-classify", "--oracle", "affine:1,0;0,0:causal:1:fwd", "--dim", "1"])
    assert code == 1
    assert body(out)[-4:] == ["kind unknown", "direction unknown",
                              "witness both of (0, +1) and (0, -1) are members", "probes 3"]


def test_usage_errors(tmp_path):
    assert run(["nonsense"])[0] == 2
    assert run([])[0] == 2
    assert run(["relate", str(tmp_path / "missing.txt"), "0", "1"])[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("dim=1 c=1 order=causal dir=fwd\n0 zero\n")
    code, _, err = run(["relate", str(bad), "0", "1"])
    assert code == 2 and "bad.txt:2" in err


def test_reports_are_deterministic(event_file):
    outputs = {tuple(body(run(["relate", str(event_file), "2", "7"])[1])) for _ in range(3)}
    assert len(outputs) == 1
    outputs = {
        tuple(body(run(["reconstruct", str(event_file), "--mode", "sampled"])[1]))
        for _ in range(3)
    }
    assert len(outputs) == 1


def test_elapsed_covers_the_whole_command(monkeypatch, event_file):
    build = finite.build

    def slow_build(*a, **kw):
        time.sleep(0.05)
        return build(*a, **kw)

    monkeypatch.setattr(finite, "build", slow_build)
    minimal = ",".join(map(str, build(*read_events(event_file)).minimal))
    for argv in (["hasse", str(event_file)], ["cutset-check", str(event_file), "--indices", minimal]):
        code, out, err = run(argv)
        assert code == 0, err
        last = out.splitlines()[-1]
        assert last.startswith("# elapsed ") and last.endswith("s")
        assert float(last[len("# elapsed "):-1]) >= 0.05, argv


# Hostile inputs for every subcommand.  Event rows are `t x y` under a
# 2+1 header, surface rows `h x y`, world-line rows `t x` under a 1+1
# header; "nine" files claim nine space axes.
_EV2 = "dim=2 c=1 order=causal dir=fwd\n"
_WL1 = "dim=1 c=1 order=causal dir=fwd\n"
_NINE = " ".join(["0"] * 10)
HOSTILE_FILES = {
    "ev_ok": _EV2 + "0 0 0\n1 0.5 0\n2 0 0.5\n0.5 3 0\n",
    "ev_nan": _EV2 + "0 0 0\nnan 0 0\n",
    "ev_inf": _EV2 + "0 0 0\n1 inf 0\n",
    "ev_huge": _EV2 + "0 0 0\n1e308 -1e308 1e308\n-1e308 1e308 -1e308\n1 1e308 0\n",
    "ev_negzero": _EV2 + "-0.0 -0.0 0.0\n0 0 -0.0\n1 0.5 -0.0\n",
    "ev_nine": "dim=9 c=1 order=causal dir=fwd\n" + _NINE + "\n",
    "ev_ninerow": _EV2 + _NINE + "\n",
    "ev_empty": "",
    "ev_header": _EV2,
    "ev_1d": "dim=1 c=1 order=causal dir=fwd\n0 0\n1 0.5\n",
    "ev_extra": "dim=1 c=1 order=causal dir=fwd extra=1\n0 0\n",
    "ev_dimx": "dim=x c=1 order=causal dir=fwd\n0 0\n",
    "ev_cz": "dim=1 c=z order=causal dir=fwd\n0 0\n",
    "ev_token": "dim=1 c=1 order=causal dir\n0 0\n",
    "sf_ok": "dim=2 c=1 k=0.5\n0 0 0\n2.5 3 4\n",
    "sf_nan": "dim=2 c=1 k=0.5\n0 nan 0\n",
    "sf_inf": "dim=2 c=1 k=0.5\ninf 0 0\n",
    "sf_huge": "dim=2 c=1 k=0.5\n0 1e308 0\n0 -1e308 0\n1e308 0 1e308\n",
    "sf_huge_ok": "dim=2 c=1 k=0.5\n0 1e308 0\n0 -1e308 0\n5e307 0 1e308\n",
    "sf_negzero": "dim=2 c=1 k=0.5\n-0.0 -0.0 0.0\n",
    "sf_nine": "dim=9 c=1 k=0.5\n" + _NINE + "\n",
    "sf_empty": "",
    "sf_1d": "dim=1 c=1 k=0.5\n0 0\n",
    "sf_1e14": "dim=1 c=1 k=0.5\n1e14 0\n",
    "sf_0d": "dim=0 c=1 k=0.5\n0\n",
    "sf_header": "dim=2 c=1 k=0.5\n",
    "wl_ok": _WL1 + "-5 2\n5 2\n",
    "wl_nan": _WL1 + "-5 nan\n5 0\n",
    "wl_inf": _WL1 + "-5 0\ninf 0\n",
    "wl_huge": _WL1 + "-1e308 0\n1e308 1e308\n",
    "wl_huge_static": _WL1 + "-1e308 0\n1e308 0\n",
    "wl_negzero": _WL1 + "-5 -0.0\n5 0.0\n",
    "wl_nine": "dim=9 c=1 order=causal dir=fwd\n" + _NINE + "\n1" + _NINE[1:] + "\n",
    "wl_empty": "",
    "wl_2d": "dim=2 c=1 order=causal dir=fwd\n-5 2 0\n5 2 0\n",
    "wl_banana": "dim=1 c=1 order=banana dir=fwd\n-5 2\n5 2\n",
    "wl_up": "dim=1 c=1 order=causal dir=up\n-5 2\n5 2\n",
    "wl_temporal": "dim=1 c=1 order=temporal dir=bwd\n-5 2\n5 2\n",
}

# (argv with {name} standing for the path of HOSTILE_FILES[name], exit code)
_EVENT_CODES = {  # hasse, cutset-check of {0}, reconstruct (both modes), relate 0 1, grade
    "ev_ok": (0, 1, 0, 0, 0), "ev_huge": (0, 1, 0, 0, 0), "ev_negzero": (0, 1, 0, 0, 0),
    "ev_1d": (0, 0, 0, 0, 2), "ev_header": (0, 2, 0, 2, 0), "ev_nan": (2, 2, 2, 2, 2),
    "ev_inf": (2, 2, 2, 2, 2), "ev_nine": (2, 2, 2, 2, 2), "ev_ninerow": (2, 2, 2, 2, 2),
    "ev_empty": (2, 2, 2, 2, 2),
}
_SURFACE_CODES = {  # grade ev_ok, counterexample, crossing wl_ok
    "sf_ok": (0, 0, 2), "sf_1d": (2, 0, 0), "sf_huge": (2, 2, 2), "sf_huge_ok": (0, 0, 2),
    "sf_negzero": (0, 0, 2), "sf_nan": (2, 2, 2), "sf_inf": (2, 2, 2), "sf_nine": (2, 2, 2),
    "sf_empty": (2, 2, 2),
}
_LINE_CODES = {  # crossing against sf_1d
    "wl_ok": 0, "wl_huge_static": 0, "wl_negzero": 0, "wl_huge": 2, "wl_nan": 2, "wl_inf": 2,
    "wl_nine": 2, "wl_empty": 2, "wl_2d": 2, "wl_banana": 2, "wl_up": 2,
    "wl_temporal": 2,
}
# each size flag one over its cap
OVER_CAP = {
    "sprinkle": ["sprinkle", "--count", str(cli.MAX_COUNT + 1), "--dim", "1", "--box=0:1",
                 "--out", "{out}"],
    "counterexample": ["counterexample", "--surface", "{sf_ok}",
                       "--samples", str(cli.MAX_SAMPLES + 1)],
    "cone-classify": ["cone-classify", "--oracle", "temporal:fwd", "--dim", "1",
                      "--invariance-samples", str(cli.MAX_INVARIANCE_SAMPLES + 1)],
}
HOSTILE_CASES = [
    *[(argv, 2) for argv in OVER_CAP.values()],
    (["sprinkle", "--count", "5", "--dim", "9", "--box=0:1", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "1", "--box=nan:1", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "1", "--box=-inf:inf", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "1", "--box=-1e308:1e308", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "1", "--box=-0.0:0.0", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "1", "--box=0:1e308", "--out", "{out}"], 0),
    (["sprinkle", "--count", "5", "--dim", "1", "--box=0:1", "--c", "0", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "1", "--box=0:1", "--order", "temporal", "--c", "nan",
      "--out", "{out}"], 2),
    (["sprinkle", "--count", "-1", "--dim", "1", "--box=0:1", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "2", "--box=0:1,0:1", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "1", "--box", "0-1", "--out", "{out}"], 2),
    (["sprinkle", "--count", "5", "--dim", "1", "--box=0:1,0:1,0:1", "--out", "{out}"], 2),
    (["hasse", "{ev_extra}"], 2),
    (["hasse", "{ev_dimx}"], 2),
    (["hasse", "{ev_cz}"], 2),
    (["hasse", "{ev_token}"], 2),
    *[case for name, (hasse_, cut, rec, rel, grade) in _EVENT_CODES.items() for case in [
        (["hasse", f"{{{name}}}"], hasse_),
        (["cutset-check", f"{{{name}}}", "--indices", "0"], cut),
        (["reconstruct", f"{{{name}}}"], rec),
        (["reconstruct", f"{{{name}}}", "--mode", "sampled"], rec),
        (["relate", f"{{{name}}}", "0", "1"], rel),
        (["grade", f"{{{name}}}", "--surface", "{sf_ok}"], grade),
    ]],
    (["relate", "{ev_ok}", "0", "4"], 2),
    (["relate", "{ev_ok}", "-1", "0"], 2),
    (["relate", "{ev_ok}", "0", "1", "--c", "0"], 2),
    (["relate", "{ev_huge}", "1", "2", "--c", "1e308", "--tol", "0.5"], 0),
    (["relate", "{ev_ok}", "0", "1", "--tol", "nan"], 2),
    (["relate", "{ev_ok}", "0", "1", "--tol", "-1"], 2),
    (["hasse", "{ev_ok}", "--c", "0"], 2),
    (["hasse", "{ev_huge}", "--c", "1e-308"], 0),
    (["cutset-check", "{ev_ok}", "--indices", "4"], 2),
    (["cutset-check", "{ev_ok}", "--indices", "-1"], 2),
    (["cutset-check", "{ev_ok}", "--indices", "0,0"], 2),
    (["cutset-check", "{ev_ok}", "--indices", "a,b"], 2),
    (["reconstruct", "{ev_ok}", "--c", "0"], 2),
    (["reconstruct", "{ev_ok}", "--mode", "sampled", "--c", "0"], 2),
    *[case for name, (grade, counter, cross) in _SURFACE_CODES.items() for case in [
        (["grade", "{ev_ok}", "--surface", f"{{{name}}}"], grade),
        (["counterexample", "--surface", f"{{{name}}}", "--samples", "50"], counter),
        (["crossing", "--surface", f"{{{name}}}", "--worldline", "{wl_ok}"], cross),
    ]],
    *[(["crossing", "--surface", "{sf_1d}", "--worldline", f"{{{name}}}"], code)
      for name, code in _LINE_CODES.items()],
    (["crossing", "--surface", "{sf_1d}", "--worldline", "{wl_ok}", "--tol", "1e308"], 0),
    (["grade", "{ev_huge}", "--surface", "{sf_huge}"], 2),
    (["grade", "{ev_huge}", "--surface", "{sf_huge_ok}"], 0),
    (["grade", "{ev_ok}", "--surface", "{sf_header}"], 2),
    (["counterexample", "--surface", "{sf_0d}"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--samples", "0"], 0),
    (["counterexample", "--surface", "{sf_ok}", "--samples", "-1"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--samples", "10", "--tol", "nan"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--samples", "10", "--tol", "inf"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--samples", "0", "--tol", "nan"], 0),
    (["counterexample", "--surface", "{sf_ok}", "--basepoint", "nan,0"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--basepoint", "1e308,0"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--basepoint", "0"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--basepoint", "x,1"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--base-t", "nan"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--light-dir", "0,0"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--light-dir", "1e308,0"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--light-dir", "nan,0"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--light-dir", "a,0"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--t-len", "-0.0"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--t-len", "nan"], 2),
    (["counterexample", "--surface", "{sf_ok}", "--t-len", "1e308"], 2),
    (["counterexample", "--surface", "{sf_huge}", "--samples", "20", "--t-len", "1e300"], 2),
    (["counterexample", "--surface", "{sf_huge_ok}", "--samples", "20", "--t-len", "1e300"], 2),
    (["counterexample", "--surface", "{sf_1e14}", "--t-len", "1e-3"], 2),
    (["cone-classify", "--oracle", "causal:1:fwd", "--dim", "9"], 2),
    (["cone-classify", "--oracle", "causal:0:fwd", "--dim", "1"], 2),
    (["cone-classify", "--oracle", "causal:nan:fwd", "--dim", "1"], 2),
    (["cone-classify", "--oracle", "causal:inf:fwd", "--dim", "1"], 2),
    (["cone-classify", "--oracle", "subluminal:-0.0:bwd", "--dim", "1"], 2),
    (["cone-classify", "--oracle", "causal:x:fwd", "--dim", "1"], 2),
    (["cone-classify", "--oracle", "causal:1:up", "--dim", "1"], 2),
    (["cone-classify", "--oracle", "temporal:up", "--dim", "1"], 2),
    (["cone-classify", "--oracle", "affine:1,a;0,1:causal:1:fwd", "--dim", "1"], 2),
    (["cone-classify", "--oracle", "causal:1e308:fwd", "--dim", "2",
      "--invariance-samples", "50"], 0),
    (["cone-classify", "--oracle", "affine:nan,0;0,1:causal:1:fwd", "--dim", "1",
      "--invariance-samples", "20"], 2),
    (["cone-classify", "--oracle", "affine:inf,0;0,1:causal:1:fwd", "--dim", "1",
      "--invariance-samples", "20"], 2),
    (["cone-classify", "--oracle", "affine:1e308,0;0,1e308:causal:1:fwd", "--dim", "1",
      "--invariance-samples", "20"], 2),
    (["cone-classify", "--oracle", "affine:1,0;0,1:causal:1:fwd", "--dim", "2"], 2),
    (["cone-classify", "--oracle", "temporal:fwd", "--dim", "1", "--invariance-samples", "0"], 0),
    (["cone-classify", "--oracle", "temporal:fwd", "--dim", "1", "--invariance-samples", "-1"], 2),
]


# lines that some hostile cases must print, on stdout or stderr; {name}
# stands for a path, as in the argv
HOSTILE_LINES = {
    tuple(OVER_CAP["sprinkle"]): "error: --count must be <= 1000000, got 1000001",
    tuple(OVER_CAP["counterexample"]): "error: --samples must be <= 10000000, got 10000001",
    tuple(OVER_CAP["cone-classify"]):
        "error: --invariance-samples must be <= 100000, got 100001",
    ("sprinkle", "--count", "5", "--dim", "1", "--box", "0-1", "--out", "{out}"):
        "error: box must be lo:hi[,lo:hi...], got '0-1'",
    ("sprinkle", "--count", "5", "--dim", "1", "--box=0:1,0:1,0:1", "--out", "{out}"):
        "error: box needs 1 or 2 axis ranges, got 3",
    ("sprinkle", "--count", "5", "--dim", "1", "--box=0:1", "--order", "temporal", "--c", "nan",
     "--out", "{out}"): "error: c must be positive and finite",
    ("hasse", "{ev_extra}"): "error: {ev_extra}:1: header must have exactly dim c order dir",
    ("hasse", "{ev_dimx}"): "error: {ev_dimx}:1: dim must be an integer",
    ("hasse", "{ev_cz}"): "error: {ev_cz}:1: c must be a number",
    ("hasse", "{ev_token}"): "error: {ev_token}:1: malformed header token 'dir'",
    ("crossing", "--surface", "{sf_1d}", "--worldline", "{wl_banana}"):
        "error: {wl_banana}:1: 'banana' is not a valid OrderKind",
    ("crossing", "--surface", "{sf_1d}", "--worldline", "{wl_up}"):
        "error: {wl_up}:1: 'up' is not a valid Direction",
    ("crossing", "--surface", "{sf_1d}", "--worldline", "{wl_temporal}"):
        "error: {wl_temporal}:1: a world line needs order=causal dir=fwd",
    ("crossing", "--surface", "{sf_1d}", "--worldline", "{wl_2d}"):
        "error: dimension mismatch: 2 vs 1",
    ("crossing", "--surface", "{sf_ok}", "--worldline", "{wl_ok}"):
        "error: dimension mismatch: 1 vs 2",
    # |h_0 - h_2| = 1e308 > 0.5 ||x_0 - x_2||, a distance whose sum of squares overflows
    ("grade", "{ev_huge}", "--surface", "{sf_huge}"):
        "error: {sf_huge}: anchors 0 and 2 violate the Lipschitz bound",
    ("counterexample", "--surface", "{sf_huge}", "--samples", "20", "--t-len", "1e300"):
        "error: {sf_huge}: anchors 0 and 2 violate the Lipschitz bound",
    # the ray heights near 1e300 are finite, but the cone test squares the
    # anchors' offset to inf and could not relate them
    ("counterexample", "--surface", "{sf_huge_ok}", "--samples", "20", "--t-len", "1e300"):
        "error: chain anchors too far apart for the cone test",
    ("relate", "{ev_ok}", "0", "1", "--tol", "nan"): "error: tol must be finite and >= 0, got nan",
    ("relate", "{ev_ok}", "0", "1", "--tol", "-1"): "error: tol must be finite and >= 0, got -1.0",
    ("cutset-check", "{ev_ok}", "--indices", "0,0"): "error: duplicate indices",
    ("cutset-check", "{ev_ok}", "--indices", "a,b"): "error: bad index list 'a,b'",
    ("grade", "{ev_ok}", "--surface", "{sf_header}"):
        "error: {sf_header}:1: surface needs at least one anchor",
    ("counterexample", "--surface", "{sf_0d}"): "error: need at least one space dimension",
    ("counterexample", "--surface", "{sf_ok}", "--samples", "10", "--tol", "nan"):
        "error: tol must be finite and >= 0, got nan",
    ("counterexample", "--surface", "{sf_ok}", "--samples", "10", "--tol", "inf"):
        "error: tol must be finite and >= 0, got inf",
    ("counterexample", "--surface", "{sf_ok}", "--samples", "0", "--tol", "nan"):
        "surface_hits 0 / 0",
    ("cone-classify", "--oracle", "causal:x:fwd", "--dim", "1"):
        "error: bad speed in 'causal:x:fwd'",
    ("cone-classify", "--oracle", "causal:1:up", "--dim", "1"):
        "error: bad direction in 'causal:1:up'",
    ("cone-classify", "--oracle", "temporal:up", "--dim", "1"):
        "error: bad oracle spec 'temporal:up'",
    ("cone-classify", "--oracle", "affine:1,a;0,1:causal:1:fwd", "--dim", "1"):
        "error: bad matrix in 'affine:1,a;0,1:causal:1:fwd'",
    ("counterexample", "--surface", "{sf_ok}", "--samples", "0"):
        "surface_avoided_certified true",
    ("counterexample", "--surface", "{sf_ok}", "--samples", "-1"):
        "error: samples must be >= 0",
    ("counterexample", "--surface", "{sf_ok}", "--light-dir", "nan,0"):
        "error: light direction must have unit norm, got nan",
    ("counterexample", "--surface", "{sf_ok}", "--light-dir", "a,0"):
        "error: --light-dir must be comma-separated numbers, got 'a,0'",
    ("counterexample", "--surface", "{sf_ok}", "--basepoint", "x,1"):
        "error: --basepoint must be comma-separated numbers, got 'x,1'",
    ("counterexample", "--surface", "{sf_1e14}", "--t-len", "1e-3"):
        "error: t_len 0.001 is lost in rounding at origin.t = 100000000000000.0, "
        "whose time resolution is math.ulp(origin.t) = 0.015625",
}


@pytest.fixture(scope="module")
def hostile_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    paths = {"out": str(root / "out.txt"), "dir": str(root),
             "missing": str(root / "missing.txt"), "nodir": str(root / "nodir" / "out.txt")}
    for name, text in HOSTILE_FILES.items():
        (root / f"{name}.txt").write_text(text)
        paths[name] = str(root / f"{name}.txt")
    return paths


def test_hostile_table_covers_every_subcommand():
    commands = {"sprinkle", "relate", "hasse", "cutset-check", "grade", "crossing",
                "reconstruct", "counterexample", "cone-classify"}
    assert {argv[0] for argv, _ in HOSTILE_CASES} == commands == set(FUZZ_ARGS)
    assert set(HOSTILE_LINES) <= {tuple(argv) for argv, _ in HOSTILE_CASES}
    code, out, _ = run(["--help"])  # usage: causalorder [-h] {sprinkle,relate,...} ...
    assert code == 0 and set(out.split("{", 1)[1].split("}", 1)[0].split(",")) == commands


@pytest.mark.parametrize("argv, code", HOSTILE_CASES, ids=[" ".join(a) for a, _ in HOSTILE_CASES])
def test_hostile_input_exits_cleanly(hostile_paths, argv, code):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run([a.format(**hostile_paths) for a in argv])
    text = out + err
    assert not caught and "Traceback" not in text and "Warning" not in text
    assert (got, sum(l.startswith("error:") for l in text.splitlines())) == (code, code == 2)
    if tuple(argv) in HOSTILE_LINES:
        assert HOSTILE_LINES[tuple(argv)].format(**hostile_paths) in text.splitlines()
    if code == 2:  # the one error line alone
        assert out == "" and len(err.splitlines()) == 1
    else:  # the report: command, a seed exactly where --seed exists, lines, one elapsed
        lines = out.splitlines()
        assert lines[0].startswith("# command: ")
        seeded = argv[0] in ("sprinkle", "counterexample", "cone-classify")
        assert [l for l in lines if l.startswith("# seed:")] == (["# seed: 0"] if seeded else [])
        assert [l.startswith("# elapsed ") for l in lines] == [False] * (len(lines) - 1) + [True]
        assert lines[-1].endswith("s")


@pytest.mark.parametrize("cmd", sorted(OVER_CAP))
def test_over_cap_stops_before_anything_runs(monkeypatch, hostile_paths, cmd):
    # the cap is the command's first check: nothing is parsed, read,
    # drawn or allocated for a size over it
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the cap")

    for module, name in ((cli, "_parse_box"), (cli, "_parse_oracle"), (finite, "sprinkle"),
                         (cones, "check_invariance"), (cli.fileio, "read_surface")):
        monkeypatch.setattr(module, name, unreachable)
    code, out, err = run([a.format(**hostile_paths) for a in OVER_CAP[cmd]])
    assert (code, out, len(err.splitlines())) == (2, "", 1)


def test_sprinkle_checks_c_before_drawing(monkeypatch, tmp_path):
    # one rule for c in every order: a temporal file with c=nan would be
    # written, then rejected by every command that reads it
    def unreachable(*args, **kwargs):
        raise AssertionError("drew events before checking --c")

    monkeypatch.setattr(finite, "sprinkle", unreachable)
    out = tmp_path / "ev.txt"
    code, text, err = run(["sprinkle", "--count", "5", "--dim", "1", "--box=0:1",
                           "--order", "temporal", "--c", "nan", "--out", str(out)])
    assert (code, text, err) == (2, "", "error: c must be positive and finite\n")
    assert not out.exists()


# The fuzz test's arguments: for each subcommand its positionals (None)
# and flags in order, each with valid values and hostile ones.  None
# leaves the argument out.  Every value is small, so no draw runs long
# or allocates much; the hostile ones include each cap plus one.
_NUMBERS = ["nan", "inf", "-inf", "1e309", "-0", ""]
_EV = ["{ev_ok}", "{ev_1d}", "{ev_negzero}", "{ev_huge}"]
_SF = ["{sf_ok}", "{sf_1d}", "{sf_negzero}"]
_BAD_FILES = ["{missing}", "{dir}", "", None]
_BAD_EV = ["{ev_nan}", "{ev_empty}", "{ev_token}", "{ev_nine}", *_BAD_FILES]
_BAD_SF = ["{sf_nan}", "{sf_header}", "{sf_0d}", "{sf_empty}", *_BAD_FILES]
_OUT = ("--out", ["{out}"], ["{dir}", "{nodir}", "", None])
_SEED = ("--seed", [None, "0", "7"], ["-1", *_NUMBERS])
_TOL = ("--tol", [None, "0", "1e-9"], ["-1", *_NUMBERS])
_C = ("--c", [None, "1", "0.5"], ["0", "-1", *_NUMBERS])
_DIR = ("--dir", [None, "fwd", "bwd"], ["up", ""])
_ORDER = [("--order", [None, "causal", "subluminal", "temporal"], ["banana", ""]), _C, _DIR]
_INDEX = (["0", "1"], ["-1", "99", *_NUMBERS, None])
FUZZ_ARGS = {
    "sprinkle": [("--count", ["0", "3", "40"], ["-1", str(cli.MAX_COUNT + 1), *_NUMBERS, None]),
                 ("--dim", ["1", "2"], ["0", "9", *_NUMBERS, None]),
                 ("--box", ["0:1", "-1:1"], ["nan:1", "0:inf", "-inf:0", "0:1e309", "-0:0",
                                             "0-1", "0:1,0:1,0:1,0:1", "", None]),
                 _SEED, *_ORDER, _OUT],
    "relate": [(None, _EV, _BAD_EV), (None, *_INDEX), (None, *_INDEX), _TOL, _C, _DIR],
    "hasse": [(None, _EV, _BAD_EV), *_ORDER, ("--dot", [None, "{out}"], _OUT[2])],
    "cutset-check": [(None, _EV, _BAD_EV),
                     ("--indices", ["0", "0,1", "1"], ["", "a", "-1", "0,0", "nan", None]),
                     *_ORDER],
    "grade": [(None, _EV, _BAD_EV), ("--surface", _SF, _BAD_SF)],
    "crossing": [("--surface", ["{sf_1d}"], _BAD_SF),
                 ("--worldline", ["{wl_ok}", "{wl_negzero}"],
                  ["{wl_banana}", "{wl_nan}", "{wl_2d}", *_BAD_FILES]), _TOL],
    "reconstruct": [(None, _EV, _BAD_EV), ("--mode", [None, "analytic", "sampled"], ["banana"]),
                    _C],
    "counterexample": [("--surface", _SF, _BAD_SF),
                       ("--basepoint", [None, "-0,-0"], ["0", "nan,0", "1e309,0", "a,0", ""]),
                       ("--base-t", [None, "0"], _NUMBERS),
                       ("--light-dir", [None, "1,0", "0,1"], ["0,0", "nan,0", "1", ""]),
                       ("--t-len", [None, "1", "1e-3"], _NUMBERS), _DIR,
                       ("--samples", [None, "0", "10"],
                        ["-1", str(cli.MAX_SAMPLES + 1), *_NUMBERS]),
                       _SEED, _TOL],
    "cone-classify": [("--oracle", ["causal:1:fwd", "subluminal:0.5:bwd", "temporal:fwd",
                                    "affine:1,0;0,1:causal:1:fwd"],
                       ["causal:nan:fwd", "causal:inf:bwd", "causal:-0:fwd",
                        "affine:nan,0;0,1:temporal:fwd", "", None]),
                      ("--dim", ["1", "2"], ["0", "9", *_NUMBERS, None]),
                      _SEED,
                      ("--invariance-samples", [None, "0", "5"],
                       ["-1", str(cli.MAX_INVARIANCE_SAMPLES + 1), *_NUMBERS])],
}


@st.composite
def _fuzz_argvs(draw):
    """A subcommand with valid values in all but at most two of its
    arguments, a flag's as --flag=value so that values such as -inf and
    the empty string reach the command."""
    cmd = draw(st.sampled_from(sorted(FUZZ_ARGS)))
    slots = FUZZ_ARGS[cmd]
    bad = draw(st.sets(st.integers(0, len(slots) - 1), max_size=2))
    argv = [cmd]
    for i, (flag, valid, hostile) in enumerate(slots):
        value = draw(st.sampled_from(hostile if i in bad else valid))
        if value is not None:
            argv.append(value if flag is None else f"{flag}={value}")
    return argv


@given(argv=_fuzz_argvs())
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@example(argv=OVER_CAP["sprinkle"])
@example(argv=OVER_CAP["counterexample"])
@example(argv=OVER_CAP["cone-classify"])
def test_fuzzed_arguments_exit_cleanly(hostile_paths, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run([a.format(**hostile_paths) for a in argv])
    assert code in (0, 1, 2) and not caught, argv
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), argv

# Each command imports only the modules it runs: numpy, fileio and order
# are loaded with the CLI itself, the rest inside the commands.
CLI_MODULES = {"causalorder", "causalorder.cli", "causalorder.fileio", "causalorder.order"}
FINITE = CLI_MODULES | {"causalorder.finite"}
GEOMETRY = CLI_MODULES | {"causalorder.hypersurfaces", "causalorder.worldlines"}
MODULE_BUDGET = [
    (["sprinkle", "--count", "5", "--dim", "1", "--box=-1:1", "--out", "{out}"], FINITE),
    (["relate", "{ev}", "0", "1"], CLI_MODULES),
    (["hasse", "{ev}", "--dot", "{out}"], FINITE),
    (["cutset-check", "{ev}", "--indices", "{minimal}"], FINITE),
    (["reconstruct", "{ev}"], FINITE),
    (["reconstruct", "{ev}", "--mode", "sampled"], FINITE),
    (["grade", "{ev}", "--surface", "{surface}"], CLI_MODULES | {"causalorder.hypersurfaces"}),
    (["crossing", "--surface", "{surface}", "--worldline", "{line}"], GEOMETRY),
    (["counterexample", "--surface", "{surface}", "--samples", "10"], GEOMETRY),
    (["cone-classify", "--oracle", "causal:1:fwd", "--dim", "2"], CLI_MODULES | {"causalorder.cones"}),
]


def _loaded_modules(code: str, *args: str) -> tuple[set[str], str]:
    """The causalorder modules loaded after a fresh interpreter runs code,
    and its stdout without the last line, which lists them."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code += "; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'causalorder'))"
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, timeout=60)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    out, _, last = res.stdout.rstrip("\n").rpartition("\n")
    return set(last.split()), out


def test_importing_the_cli_loads_only_fileio_and_order():
    assert _loaded_modules("import sys, causalorder.cli")[0] == CLI_MODULES


def test_module_budget_covers_every_subcommand():
    assert {argv[0] for argv, _ in MODULE_BUDGET} == {argv[0] for argv, _ in HOSTILE_CASES}


@pytest.mark.parametrize("argv, modules", MODULE_BUDGET,
                         ids=[" ".join(a for a in argv if "{" not in a) for argv, _ in MODULE_BUDGET])
def test_each_subcommand_loads_only_its_modules(tmp_path, surface_file, argv, modules):
    paths = {"ev": tmp_path / "ev.txt", "out": tmp_path / "out.txt", "surface": surface_file,
             "line": tmp_path / "line.txt"}
    events = [Event(0.1 * k, (0.05 * k * (-1) ** k, 0.0)) for k in range(12)]
    write_events(paths["ev"], events, OrderSpec(OrderKind.CAUSAL, 1.0))
    write_worldline(paths["line"], make_polyline([(-10.0, (0.0, 0.0)), (10.0, (0.5, 0.0))], 1.0))
    minimal = ",".join(map(str, finite.build(events, OrderSpec(OrderKind.CAUSAL, 1.0)).minimal))
    argv = [a.format(minimal=minimal, **paths) for a in argv]
    loaded, out = _loaded_modules(
        "import sys; from causalorder import cli; assert cli.main(sys.argv[1:]) == 0", *argv
    )
    assert out.startswith(f"# command: {argv[0]}")
    assert loaded == modules
