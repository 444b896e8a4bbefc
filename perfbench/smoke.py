#!/usr/bin/env python3
"""Smoke test of the benchmark runner at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and one workload traced with
`--sizes tiny`, and checks that every metric BENCHMARK.json names is
emitted with its unit, that output checks ran, that a wrong output is
caught by a check, and that the runner refuses to run in a directory
without the package sources.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)
        print(f"FAIL {what}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--sizes", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0 and cwd == ROOT:
        print(proc.stderr[-3000:])
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines: list[str], wanted: list[dict], label: str) -> None:
    result = json.loads(lines[-1])
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{label}: ops failed {report['failure_notes']}")
    expect(result["attempted"] >= 1, f"{label}: no ops attempted")
    expect(report["checks_run"] > 0, f"{label}: no output checks ran")
    got = result["metrics"]
    expect(sorted(got) == sorted(m["name"] for m in wanted), f"{label}: metric names {sorted(got)}")
    for m in wanted:
        if m["name"] in got:
            expect(got[m["name"]]["unit"] == m["unit"], f"{label}: unit of {m['name']}")
            expect(isinstance(got[m["name"]]["value"], float), f"{label}: value of {m['name']}")
    for line in lines[:-1]:
        expect(not line.startswith("{"), f"{label}: JSON before the last line")


def checks_catch_wrong_output() -> None:
    """Feed one op's output, altered, back to its check."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from spans import NULL_TRACER

    out = HERE / "out" / "smoke"
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.SprinkleLarge(ROOT, out, 3, True, NULL_TRACER)
    fcs, edges, dot, sub, diff = wl.op(0, NULL_TRACER)
    expect(wl.check(0, (fcs, edges, dot, sub, diff)).status == "ok", "clean sprinkle-large op")
    i, j = next((i, j) for i in range(len(fcs)) for j in range(len(fcs))
                if i != j and not fcs.relation[i, j])
    bad = wl.check(0, (fcs, edges + [(i, j)], dot, sub, diff))
    expect(bad.status == "failed", "a Hasse edge outside the relation is caught")

    gp = workloads.GeometryProbes(ROOT, out, 3, True, NULL_TRACER)
    r = gp.op(0, NULL_TRACER)
    exact = [workloads.exact_class(u, v, c) for u, v, c in gp.scenes[0].pairs]
    fixed = dict(r, classes=exact, leq=[(c in workloads.CAUSAL_FWD, c in workloads.SUB_FWD)
                                        for c in exact])
    res = gp.check(0, fixed)
    expect(res.status == "ok" and res.counts["order.classify_pair.exact_mismatches"] == 0,
           "exact classes give no mismatches")
    expect(gp.check(0, dict(fixed, hits=1)).status == "failed", "a surface hit is caught")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        code, lines = run(w["name"], 0)
        expect(code == 0, f"{w['name']} trace 0 exit {code}")
        if code == 0:
            check_result(lines, spec["end_to_end"], f"{w['name']} trace 0")
    traced = spec["workloads"][0]["name"]
    code, lines = run(traced, 1)
    expect(code == 0, f"{traced} trace 1 exit {code}")
    if code == 0:
        check_result(lines, spec["per_layer"], f"{traced} trace 1")

    checks_catch_wrong_output()

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run(traced, 0, cwd=bare)
    expect(code != 0 and not any(ln.startswith("{") for ln in lines),
           "runner must fail without printing a result when src/ is missing")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke: " + ("ok" if not FAILURES else f"{len(FAILURES)} failures"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
