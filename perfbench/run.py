"""Acc-SpMM benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gcn-train --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload once with tracing off and prints every
end-to-end metric; ``--trace 1`` runs it twice more in fresh processes —
untraced, then with span wrappers installed — checks the two runs' outputs
are bit-for-bit equal, and prints every per-layer metric.  The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); a wrong output makes the exit code non-zero.
Metric definitions are in ``perfbench/catalogue.json``.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread in every workload process (children inherit
# this): numpy's OpenBLAS would otherwise size its pool to the host, and
# the workloads share two CPUs with the server they drive
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
# inputs come from the seed alone: never read or fill a shared dataset cache
os.environ["REPRO_CACHE_DIR"] = "off"

#: glibc malloc settings for every workload process: freed memory stays
#: in the process (no mmap'd chunks, no heap trimming).  The workloads
#: free and reallocate their arrays on every operation; handed back to
#: the kernel, each reuse faults fresh pages in again, whose price
#: follows the host's memory pressure (in a VM, freed pages can go back
#: to the hypervisor) and moves timings from run to run more than the
#: program does.  glibc reads them only at start-up, hence the re-exec in
#: ``_pin_allocator``; children (traced phases, servers) inherit them.
GLIBC_TUNABLES = (
    "glibc.malloc.mmap_threshold=1073741824:glibc.malloc.trim_threshold=4294967296"
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("gcn-train", "cold-start", "serve-mixed")
#: set-up repeats in an untraced run (setup_s is their median); cold-start
#: instead repeats its warm-start set-up until the run's time is up
SETUPS = {"gcn-train": 5, "serve-mixed": 3}


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh-process phase of a traced run
    p.add_argument("--phase", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_repro():
    """Import the library from this checkout's ``src`` — never an
    installed copy — or exit non-zero without a result."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no library sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _workdir() -> str:
    import tempfile

    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)


def run_phase(workload: str, seed: int, seconds: float, tracer,
              setups: int | None, workdir: str) -> dict:
    """Run one workload in this process and return its raw result
    (``setups`` is the set-up repeat count of gcn-train and serve-mixed)."""
    from common import Yardstick

    yard = Yardstick()
    if workload == "gcn-train":
        import gcn_train

        out = gcn_train.run(seed, seconds, tracer, setups, yard)
    elif workload == "cold-start":
        import cold_start

        out = cold_start.run(seed, seconds, tracer, yard, workdir)
    else:
        import serve_mixed

        out = serve_mixed.run(seed, seconds, tracer, setups, yard, workdir)
    out["host_ms"] = yard.median_ms
    return out


def _result_line(correct: bool, tally, metrics: dict, catalogue: dict) -> str:
    import json

    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(tally["attempted"]),
            "failed": int(tally["failed"]),
            "metrics": {
                name: {"value": float(v), "unit": catalogue[name]["unit"]}
                for name, v in metrics.items()
            },
        }
    )


def _tally_dict(t) -> dict:
    return {"attempted": t.attempted, "failed": t.failed, "reasons": t.reasons}


def main_untraced(args, catalogue: dict) -> int:
    from common import print_table
    from tracing import NullTracer

    workdir = _workdir()
    try:
        out = run_phase(args.workload, args.seed, args.seconds, NullTracer(),
                        SETUPS.get(args.workload), workdir)
    finally:
        _rmtree(workdir)
    tally = _tally_dict(out["tally"])
    e2e = out["e2e"]
    rows = [
        (m, e2e[m], catalogue[m]["unit"], out["notes"].get(m, ""))
        for m in e2e
    ]
    gated = {m: v for m, v in e2e.items() if catalogue[m]["kind"] == "end_to_end"}
    rows.append(("failed_share", out["tally"].failed_share, "ratio",
                 f"{tally['failed']}/{tally['attempted']} {tally['reasons'] or ''}"))
    rows.append(("host.scipy_spmm_ms", out["host_ms"], "ms", "drift yardstick"))
    print_table(f"{args.workload} seed={args.seed} end-to-end", rows)
    correct = tally["failed"] == 0
    print(_result_line(correct, tally, gated, catalogue))
    return 0 if correct else 1


def main_phase(args) -> int:
    """One fresh-process phase of a traced run; writes its result JSON."""
    import json

    from tracing import CLIENT_ENTRY_POINTS, ENTRY_POINTS, NullTracer, Recorder, install

    workdir = os.path.dirname(os.path.abspath(args.out))
    if args.phase == "traced":
        tracer = Recorder()
        # serve-mixed's library work happens in the server, which its
        # launcher traces; this process only encodes and decodes frames
        install(tracer, CLIENT_ENTRY_POINTS if args.workload == "serve-mixed" else ENTRY_POINTS)
    else:
        tracer = NullTracer()
    out = run_phase(args.workload, args.seed, args.seconds, tracer, 1, workdir)
    if args.phase == "traced":
        tracer.dump(os.path.join(workdir, "spans.json"))
    out["tally"] = _tally_dict(out["tally"])
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def main_traced(args, catalogue: dict) -> int:
    import json
    import subprocess

    from common import print_table
    from layers import per_layer_metrics

    workdir = _workdir()
    try:
        phases = {}
        for phase in ("untraced", "traced"):
            path = os.path.join(workdir, f"{phase}.json")
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--phase", phase, "--out", path,
            ]
            # the phase's own prints go to our stderr: stdout's last line
            # is reserved for the result
            proc = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT, check=False)
            if proc.returncode != 0:
                sys.exit(f"perfbench: {phase} phase exited {proc.returncode}")
            with open(path) as fh:
                phases[phase] = json.load(fh)
        metrics, checks, claims = per_layer_metrics(args.workload, phases, workdir)
    finally:
        _rmtree(workdir)
    failed_checks = [c for c, ok in checks.items() if not ok]
    tally = {
        "attempted": sum(p["tally"]["attempted"] for p in phases.values()),
        "failed": sum(p["tally"]["failed"] for p in phases.values())
        + len(failed_checks),
    }
    rows = [(m, v, catalogue[m]["unit"], "") for m, v in metrics.items()]
    rows += [(f"check: {c}", "ok" if ok else "FAILED", "", "") for c, ok in checks.items()]
    rows += [(f"claim: {c}", v, "", "") for c, v in claims.items()]
    print_table(f"{args.workload} seed={args.seed} per-layer (traced)", rows)
    correct = tally["failed"] == 0
    print(_result_line(correct, tally, metrics, catalogue))
    return 0 if correct else 1


def _rmtree(path: str) -> None:
    import shutil

    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    try:
        os.rmdir(parent)  # only when no other run is using it
    except OSError:
        pass


def _pin_allocator() -> None:
    """Re-run this command with :data:`GLIBC_TUNABLES` set, unless it is."""
    if os.environ.get("GLIBC_TUNABLES") == GLIBC_TUNABLES:
        return
    os.environ["GLIBC_TUNABLES"] = GLIBC_TUNABLES
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    _import_repro()
    if args.phase:
        return main_phase(args)
    from common import load_catalogue

    catalogue = load_catalogue()
    if args.trace:
        return main_traced(args, catalogue)
    return main_untraced(args, catalogue)


if __name__ == "__main__":
    _pin_allocator()
    sys.exit(main())
