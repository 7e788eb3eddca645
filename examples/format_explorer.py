"""Explore formats and orderings for your own matrix.

A downstream user's first question is "what will Acc-SpMM's preprocessing
do to *my* matrix?"  This example answers it: it loads a matrix (Matrix
Market path as argv[1], or a built-in synthetic default), then reports

* MeanNNZTC under every reordering algorithm (the Figure-10 panel),
* metadata footprints of CSR / TCF / ME-TCF / BitTCF (the Figure-12 bars),
* the IBD imbalance metric and what the adaptive balancer would decide,
* simulated kernel profiles before and after preprocessing.

Run::

    python examples/format_explorer.py [matrix.mtx]
"""

import sys

import repro
from repro.balance import IBD_THRESHOLD, imbalance_degree
from repro.bench.reporting import format_table
from repro.formats import BitTCF, MeTCF, TCF, build_tiling, format_footprint
from repro.reorder import REORDERERS, mean_nnz_per_tc_block
from repro.sparse import coo_to_csr, load_matrix_market
from repro.sparse.random import powerlaw_graph
from repro.sparse.stats import matrix_stats


def load(argv) -> "repro.CSRMatrix":
    if len(argv) > 1:
        print(f"loading {argv[1]} ...")
        return coo_to_csr(load_matrix_market(argv[1]))
    print("no matrix given; generating a community power-law demo graph")
    return coo_to_csr(powerlaw_graph(
        4096, avg_degree=24.0, community_blocks=64, intra_fraction=0.8,
        seed=0,
    ))


def main() -> None:
    csr = load(sys.argv)
    stats = matrix_stats(csr)
    print(f"\nmatrix: {stats.n_rows}x{stats.n_cols}, nnz={stats.nnz}, "
          f"AvgL={stats.avg_l:.2f} (type-{stats.matrix_type})")

    # --- reordering panel -------------------------------------------
    rows = []
    best_name, best_val = "original", mean_nnz_per_tc_block(csr)
    for name, fn in REORDERERS.items():
        res = fn(csr, 0)
        val = mean_nnz_per_tc_block(csr, res)
        rows.append({"ordering": name, "MeanNNZTC": round(val, 3)})
        if val > best_val:
            best_name, best_val = name, val
    print("\n" + format_table(rows, "MeanNNZTC by ordering"))
    print(f"best ordering: {best_name} ({best_val:.2f} nnz/block)")

    # --- format footprints -------------------------------------------
    reordered = REORDERERS["affinity"](csr, 0).apply(csr)
    tiling = build_tiling(reordered)
    fps = [
        ("CSR", reordered.metadata_bytes()),
        ("TCF", format_footprint(TCF.from_csr(reordered, tiling)).metadata_bytes),
        ("ME-TCF", format_footprint(MeTCF.from_csr(reordered, tiling)).metadata_bytes),
        ("BitTCF", format_footprint(BitTCF.from_csr(reordered, tiling)).metadata_bytes),
    ]
    print(format_table(
        [{"format": n, "metadata_KB": round(b / 1024, 1)} for n, b in fps],
        "Metadata footprint (after affinity reordering)",
    ))

    # --- balance decision ---------------------------------------------
    ibd = imbalance_degree(tiling)
    print(f"IBD = {ibd:.2f} (threshold {IBD_THRESHOLD}) -> "
          f"{'balance' if ibd > IBD_THRESHOLD else 'no balancing needed'}")

    # --- before/after profile ------------------------------------------
    for label, cfg in (
        ("all optimisations OFF", repro.AccConfig.baseline()),
        ("full Acc-SpMM", repro.AccConfig.paper_default()),
    ):
        prof = repro.plan(csr, 128, "a800", config=cfg).profile()
        print(f"{label:22s}: {prof.time_s*1e6:9.2f} us, "
              f"{prof.gflops:8.1f} GFLOPS")


if __name__ == "__main__":
    main()
