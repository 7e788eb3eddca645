"""Ablation — load-balancing parameters (docs/ARCHITECTURE.md; ablation beyond the paper).

Sweeps the IBD activation threshold (paper: 8) and the per-TB block cap
(paper: 32) on an imbalanced type-2 matrix, verifying the paper's
operating point sits on the flat-top of the curve (near-best makespan).
"""

from repro.balance.scheduler import balanced_schedule
from repro.bench.reporting import format_table
from repro.bench.workloads import cached_reorder
from repro.gpusim.specs import A800
from repro.kernels.accspmm import AccSpMMKernel
from repro.sparse.datasets import load_dataset

from _common import dump, once


def sweep_cap():
    csr = load_dataset("FY-RSR")
    aff = cached_reorder(csr, "affinity", "t2-FY-RSR")
    rows = []
    for cap in (1, 2, 4, 8, 16, 32, 64):
        kernel = AccSpMMKernel(reorder=aff, load_balance="always")
        plan = kernel.plan(csr, 128, A800)
        # rebuild the schedule with the swept cap
        plan.schedule = balanced_schedule(plan.tiling, A800, 128, cap=cap)
        prof = kernel.simulate(plan, 128, A800)
        rows.append({"cap": cap, "time_us": round(prof.time_s * 1e6, 3),
                     "n_tbs": prof.n_thread_blocks})
    return rows


def test_ablation_lb_cap(benchmark):
    rows = once(benchmark, sweep_cap)
    times = {r["cap"]: r["time_us"] for r in rows}
    best = min(times.values())
    # the paper's cap (32) is within 15% of the best swept configuration
    assert times[32] <= best * 1.15, times
    dump("ablation_lb_cap", format_table(
        rows, "LB cap sweep on FY-RSR/A800 (paper cap = 32)"
    ))


def sweep_threshold():
    rows = []
    for abbr in ("DD", "FY-RSR"):
        csr = load_dataset(abbr)
        aff = cached_reorder(csr, "affinity", f"t2-{abbr}")
        for thr in (0.0, 2.0, 8.0, 32.0, 1e9):
            kernel = AccSpMMKernel(reorder=aff, load_balance="adaptive")
            plan = kernel.plan(csr, 128, A800)
            from repro.balance.scheduler import adaptive_schedule

            plan.schedule = adaptive_schedule(plan.tiling, A800, 128,
                                              threshold=thr)
            prof = kernel.simulate(plan, 128, A800)
            rows.append({
                "dataset": abbr, "threshold": thr,
                "balanced": plan.schedule.balanced,
                "time_us": round(prof.time_s * 1e6, 3),
            })
    return rows


def test_ablation_ibd_threshold(benchmark):
    rows = once(benchmark, sweep_threshold)
    # threshold 8 must activate balancing for FY-RSR but not force it on DD
    by = {(r["dataset"], r["threshold"]): r for r in rows}
    assert by[("FY-RSR", 8.0)]["balanced"]
    # balancing FY-RSR at threshold 8 is at least as fast as never balancing
    assert by[("FY-RSR", 8.0)]["time_us"] <= by[("FY-RSR", 1e9)]["time_us"] * 1.001
    dump("ablation_ibd", format_table(
        rows, "IBD threshold sweep (paper threshold = 8)"
    ))
