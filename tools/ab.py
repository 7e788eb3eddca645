#!/usr/bin/env python3
"""Paired A/B benchmark runs: a base revision against the working tree.

Usage (from anywhere inside the repository)::

    python tools/ab.py --base REV --workload W --seed S --pairs N [--seconds S] [--trace]

Extracts the committed files of ``REV`` into a temporary directory, then
runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``)
``N`` times on each side, alternating which side runs first, and reads
each run's last line of output as its result JSON.  For every metric it
prints both sides' medians and quartiles, the change/base ratio of the
medians, the pairs the change won and lost, and a verdict:

* ``gain`` — over at least 10 pairs, the change won at least 9 in 10
  (ties count for neither side) and its median is better than the
  base's by more than the base's interquartile range;
* ``regression`` — the same rule with the sides swapped;
* ``no verdict`` — anything else.

Metric directions come from ``BENCHMARK.json`` (``end_to_end`` entries,
or ``per_layer`` ones with ``--trace``); ``--seconds`` defaults to its
``run_seconds``.  An end-to-end metric whose median is worse than the
base's by more than its bound is flagged ``BEYOND BOUND``.  A working
tree with uncommitted changes is refused unless ``--allow-dirty`` is
given: the change side runs what is on disk.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: share of all pairs the winning side must take
WIN_SHARE = 0.9
#: fewer pairs than this never give a verdict
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated (numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(base: list[float], change: list[float], better: str) -> dict:
    """Summarise one metric over paired runs (``base[i]`` and
    ``change[i]`` ran back to back) and give the verdict."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (bmed - cmed)  # > 0 when the change's median is better
    need = WIN_SHARE * len(base)
    if len(base) < MIN_PAIRS:
        verdict = "no verdict"
    elif wins >= need and gap > bq3 - bq1:
        verdict = "gain"
    elif losses >= need and -gap > bq3 - bq1:
        verdict = "regression"
    else:
        verdict = "no verdict"
    return {
        "base": (bq1, bmed, bq3),
        "change": (cq1, cmed, cq3),
        "ratio": cmed / bmed if bmed else float("nan"),
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "verdict": verdict,
    }


def beyond_bound(summary: dict, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the base's by more
    than ``bound`` (a fraction of the base median)."""
    bmed, cmed = summary["base"][1], summary["change"][1]
    worse = cmed - bmed if better == "lower" else bmed - cmed
    return worse > bound * abs(bmed)


def _git(*args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, **kw
    )


def extract(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; returns the
    full commit hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    archive = _git("archive", "--format=tar", commit).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, command: list[str], args) -> dict:
    """One benchmark run in ``tree``; its result JSON, or a failure
    record when the run printed none."""
    cmd = [
        *command, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"correct": False, "metrics": {}, "error": " | ".join(tail)}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json)")
    p.add_argument("--trace", action="store_true", help="compare the per-layer metrics")
    p.add_argument("--allow-dirty", action="store_true",
                   help="run the change side with uncommitted changes")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def report(runs: dict, spec: dict, trace: bool) -> list[str]:
    """The per-pair and summary tables, as lines."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    lines = []
    for side in ("base", "change"):
        failed = [i for i, r in enumerate(runs[side]) if not r.get("correct")]
        if failed:
            lines.append(f"{side}: run(s) {failed} failed or were incorrect")
    header = (
        f"{'metric':<34} {'base q1/med/q3':<26} {'change q1/med/q3':<26} "
        f"{'ratio':>6} {'won':>5} {'lost':>5}  verdict"
    )
    lines += ["", header, "-" * len(header)]
    pair_lines = []
    for entry in entries:
        name, better = entry["name"], entry["better"]
        base = [r["metrics"].get(name, {}).get("value") for r in runs["base"]]
        change = [r["metrics"].get(name, {}).get("value") for r in runs["change"]]
        pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
        if not pairs:
            continue
        s = compare([b for b, _ in pairs], [c for _, c in pairs], better)
        verdict = s["verdict"]
        if "bound" in entry and beyond_bound(s, better, entry["bound"]):
            verdict += f", BEYOND BOUND {entry['bound']:.0%}"
        lines.append(
            f"{name:<34} {'/'.join(map(_fmt, s['base'])):<26} "
            f"{'/'.join(map(_fmt, s['change'])):<26} {s['ratio']:>6.3f} "
            f"{s['wins']:>5} {s['losses']:>5}  {verdict}"
        )
        pair_lines.append(f"{name}: " + " ".join(f"{_fmt(b)}/{_fmt(c)}" for b, c in pairs))
    return lines + ["", "pairs (base/change, in run order):", *pair_lines]


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    dirty = _git("status", "--porcelain", text=True).stdout.strip()
    if dirty and not args.allow_dirty:
        sys.exit("ab: the working tree has uncommitted changes "
                 "(commit them, or pass --allow-dirty)")
    tmp = Path(tempfile.mkdtemp(prefix="ab-base-"))
    try:
        commit = extract(args.base, tmp)
        trees = {"base": tmp, "change": ROOT}
        runs = {"base": [], "change": []}
        print(f"base {commit[:12]} vs working tree: {args.workload} seed={args.seed} "
              f"{args.seconds:g} s x {args.pairs} pairs"
              f"{' (traced)' if args.trace else ''}", flush=True)
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(trees[side], spec["command"], args))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("\n".join(report(runs, spec, args.trace)))
    ok = all(r.get("correct") for side in runs.values() for r in side)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
