"""Autotuner: search space, pruning, verdicts, and tuned-plan plumbing.

Covers the :mod:`repro.tune` search machinery end to end: candidate
enumeration (shared with the tile-shape ablation bench), stats-based
pruning, model and measured tuning, correctness of plans built under
tuned non-default geometries and kernels, the plan-file round trip of
the verdict, engine-level ``autotune=True``, and the cross-process
acceptance criterion — a fresh worker warm-starts a tuned plan and
serves it with ``plans_built == 0``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ValidationError
from repro.kernels.tc_common import execute_tiled_reference
from repro.serve.store import PlanStore
from repro.sparse.convert import coo_to_csr
from repro.sparse.stats import matrix_stats
from repro.tune import autotune, prune_candidates
from repro.tune.space import (
    KERNELS,
    MAX_TILE_CELLS,
    TILE_SHAPES,
    TuneCandidate,
    TunedConfig,
    candidate_configs,
)

from conftest import bits_equal, dense_band, make_b, random_csr, sparse_graph


# ----------------------------------------------------------------------
# the search space
# ----------------------------------------------------------------------
class TestSpace:
    def test_all_shapes_fit_the_bitmask(self):
        assert all(wr * bc <= MAX_TILE_CELLS for wr, bc in TILE_SHAPES)
        assert (8, 8) in TILE_SHAPES  # the paper default is in the space

    def test_enumeration(self):
        default = candidate_configs()
        assert len(default) == len(TILE_SHAPES)
        assert all(c.kernel == "accspmm" for c in default)
        full = candidate_configs(kernels=KERNELS)
        assert len(full) == len(TILE_SHAPES) * len(KERNELS)
        assert len(set(full)) == len(full)  # frozen dataclass: hashable

    def test_invalid_candidates_rejected(self):
        with pytest.raises(ValidationError, match="bitmask"):
            TuneCandidate(window_rows=16, block_cols=8)
        with pytest.raises(ValidationError, match="positive"):
            TuneCandidate(window_rows=0, block_cols=8)
        with pytest.raises(ValidationError, match="kernel"):
            TuneCandidate(window_rows=8, block_cols=8, kernel="cusparse")
        with pytest.raises(ValidationError):
            candidate_configs(tile_shapes=[(32, 8)])

    def test_tuned_config_meta_round_trip(self):
        cfg = TunedConfig(
            window_rows=4, block_cols=8, kernel="dtc",
            fused=True, source="measured", predicted_s=1.5e-5,
        )
        meta = cfg.as_meta()
        json.dumps(meta)  # header-safe
        assert TunedConfig.from_meta(meta) == cfg

    @pytest.mark.parametrize(
        "garbage",
        [
            None,
            "tuned",
            42,
            {},
            {"window_rows": 8},
            {"window_rows": "eight", "block_cols": 8, "kernel": "accspmm",
             "fused": False},
            {"window_rows": 99, "block_cols": 99, "kernel": "accspmm",
             "fused": False},
            {"window_rows": 8, "block_cols": 8, "kernel": "rocm",
             "fused": False},
        ],
    )
    def test_from_meta_tolerates_garbage(self, garbage):
        assert TunedConfig.from_meta(garbage) is None

    def test_bad_source_rejected(self):
        with pytest.raises(ValidationError, match="source"):
            TunedConfig(source="guessed")


# ----------------------------------------------------------------------
# pruning
# ----------------------------------------------------------------------
class TestPrune:
    def test_tcgnn_pruned_on_sparse(self):
        csr = sparse_graph()  # avg_l ~4 < threshold
        stats = matrix_stats(csr)
        kept = prune_candidates(stats, candidate_configs(kernels=KERNELS))
        assert kept and all(c.kernel != "tcgnn" for c in kept)

    def test_tcgnn_kept_on_dense(self):
        stats = matrix_stats(dense_band())
        kept = prune_candidates(stats, candidate_configs(kernels=KERNELS))
        assert any(c.kernel == "tcgnn" for c in kept)

    def test_never_empties(self):
        stats = matrix_stats(sparse_graph())
        only_tcgnn = candidate_configs(kernels=("tcgnn",))
        assert prune_candidates(stats, only_tcgnn) == only_tcgnn


# ----------------------------------------------------------------------
# the tuner itself
# ----------------------------------------------------------------------
class TestAutotune:
    def test_model_verdict(self):
        cfg = autotune(dense_band(), feature_dim=32)
        assert isinstance(cfg, TunedConfig)
        assert cfg.source == "model"
        assert cfg.predicted_s > 0.0
        assert cfg.tile_shape in TILE_SHAPES
        assert cfg.kernel in KERNELS
        # the dense band saturates its tiles -> fused hint on
        assert cfg.fused

    def test_sparse_matrix_not_fused(self):
        cfg = autotune(sparse_graph(), feature_dim=32)
        assert not cfg.fused

    def test_deterministic(self):
        a = autotune(dense_band(), feature_dim=32)
        b = autotune(dense_band(), feature_dim=32)
        assert a == b

    def test_measured_verdict(self, monkeypatch):
        # a deterministic fake clock: each call advances by one tick, so
        # "timings" are call-order-determined and the test cannot flake.
        # import_module, not `import ... as`: the package caches the
        # same-named *function* as its attribute, which `import as`
        # would bind instead of the module
        import importlib

        tuner_mod = importlib.import_module("repro.tune.autotune")

        ticks = iter(range(10_000))
        monkeypatch.setattr(
            tuner_mod, "_timer", lambda: float(next(ticks))
        )
        cfg = tuner_mod.autotune(
            dense_band(), feature_dim=16, measure=True,
            sample_windows=8, repeats=1,
        )
        assert cfg.source == "measured"
        assert cfg.predicted_s > 0.0

    def test_explicit_candidates(self):
        cfg = autotune(
            dense_band(), feature_dim=16,
            candidates=[TuneCandidate(4, 4, "dtc")],
        )
        assert cfg.kernel == "dtc" and cfg.tile_shape == (4, 4)

    def test_validation(self):
        from repro.sparse.csr import CSRMatrix

        empty = CSRMatrix(
            n_rows=0, n_cols=0,
            indptr=np.zeros(1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            vals=np.zeros(0, dtype=np.float32),
        )
        with pytest.raises(ValidationError, match="zero-dimension"):
            autotune(empty, feature_dim=8)
        with pytest.raises(ValidationError, match="candidate"):
            autotune(dense_band(), feature_dim=8, candidates=[])

    def test_all_zero_matrix_defaults(self):
        from repro.sparse.coo import COOMatrix

        csr = coo_to_csr(
            COOMatrix.from_dense(np.zeros((16, 16), dtype=np.float32))
        )
        assert autotune(csr, feature_dim=8) == TunedConfig()


# ----------------------------------------------------------------------
# tuned plans compute correctly (every kernel, non-default shapes)
# ----------------------------------------------------------------------
class TestTunedPlans:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shape", [(4, 8), (8, 4), (4, 4)])
    def test_tuned_plan_matches_reference(self, kernel, shape):
        csr = random_csr(n_rows=96, n_cols=96, density=0.12, seed=33)
        B = make_b(csr, seed=34)
        cfg = TunedConfig(
            window_rows=shape[0], block_cols=shape[1], kernel=kernel
        )
        p = repro.plan(csr, feature_dim=B.shape[1], tuned=cfg)
        assert p.tc_plan.tiling.tile_shape == shape
        assert p.tc_plan.meta["tuned"] == cfg.as_meta()
        ref = execute_tiled_reference(p.tc_plan, B)
        assert bits_equal(p.multiply(B), ref)
        # and the dense float64 oracle agrees within fp32 noise
        C64 = csr.to_dense().astype(np.float64) @ B.astype(np.float64)
        np.testing.assert_allclose(
            p.multiply(B), C64, rtol=1e-2, atol=1e-2
        )

    def test_plan_autotune_flag(self):
        csr = dense_band()
        p = repro.plan(csr, feature_dim=16, autotune=True)
        tuned = p.tc_plan.meta.get("tuned")
        assert isinstance(tuned, dict)
        assert TunedConfig.from_meta(tuned) is not None
        B = make_b(csr, seed=35)
        assert bits_equal(
            p.multiply(B), execute_tiled_reference(p.tc_plan, B)
        )

    def test_fused_hint_drives_executor(self):
        # force the hint on for a matrix below the density threshold:
        # the executor must obey the plan's verdict, not re-derive it
        csr = sparse_graph()
        B = make_b(csr, seed=36)
        hinted = TunedConfig(fused=True)
        p = repro.plan(csr, feature_dim=B.shape[1], tuned=hinted)
        p.multiply(B, numerics="fast")
        ex = p.executor_for("fast")
        if ex.materialized:  # tiny matrix: materialisation fits budget
            assert "fused" in ex.stats.strategies


# ----------------------------------------------------------------------
# the verdict survives serialisation, in the plan meta
# ----------------------------------------------------------------------
class TestTunedSerialization:
    def test_v3_round_trip(self):
        csr = random_csr(n_rows=96, n_cols=96, density=0.12, seed=37)
        B = make_b(csr, seed=38)
        cfg = TunedConfig(window_rows=4, block_cols=8, kernel="dtc")
        p = repro.plan(csr, feature_dim=B.shape[1], tuned=cfg)
        C0 = p.multiply(B)
        p2 = repro.AccPlan.from_bytes(p.to_bytes())
        assert p2.tc_plan.tiling.tile_shape == (4, 8)
        assert TunedConfig.from_meta(p2.tc_plan.meta["tuned"]) == cfg
        # the rebuilt kernel is the tuned one, not the config default
        assert type(p2.kernel).__name__ == "DTCKernel"
        assert bits_equal(p2.multiply(B), C0)

    def test_header_carries_tuned_block(self):
        from repro.serve.serial import read_header

        csr = random_csr(seed=39)
        cfg = TunedConfig(window_rows=4, block_cols=4, fused=True)
        p = repro.plan(csr, feature_dim=16, tuned=cfg)
        header, _ = read_header(p.to_bytes())
        assert header["meta"]["tc"]["meta"]["tuned"] == cfg.as_meta()
        assert "tuned" not in header["meta"]  # one copy, in the plan meta

    def test_untuned_plan_has_no_tuned_block(self):
        from repro.serve.serial import read_header

        p = repro.plan(random_csr(seed=40), feature_dim=16)
        header, _ = read_header(p.to_bytes())
        assert "tuned" not in header["meta"]["tc"]["meta"]
        assert "tuned" not in header["meta"]

    def test_store_inspect_shows_the_verdict(self, tmp_path, capsys):
        from repro.serve.fingerprint import fingerprint
        from repro.serve.store import main

        store = PlanStore(tmp_path)
        for seed, tuned in ((45, TunedConfig(4, 8, kernel="dtc")), (46, None)):
            csr = random_csr(seed=seed)
            p = repro.plan(csr, feature_dim=16, tuned=tuned)
            assert store.put(fingerprint(csr), p.device.name, p.config, p)
        assert main(["--root", str(tmp_path), "inspect"]) == 0
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert sorted(row.split()[6] for row in rows) == ["-", "dtc@4x8"]

    def test_corrupt_tuned_header_degrades_to_untuned(self):
        csr = random_csr(seed=41)
        B = make_b(csr, seed=42)
        p = repro.plan(csr, feature_dim=B.shape[1])
        C0 = p.multiply(B)
        # default geometry plan whose meta claims a corrupt verdict:
        # the loader must fall back to the untuned kernel, not fail
        p.tc_plan.meta["tuned"] = {"kernel": "accspmm", "fused": "maybe"}
        p2 = repro.AccPlan.from_bytes(p.to_bytes())
        assert type(p2.kernel).__name__ == "AccSpMMKernel"
        assert bits_equal(p2.multiply(B), C0)


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEngineAutotune:
    def test_engine_builds_tuned_plans(self):
        csr = dense_band()
        B = make_b(csr, seed=43)
        engine = repro.SpMMEngine(autotune=True)
        C = engine.spmm(csr, B)
        p = engine.get_plan(csr, feature_dim=B.shape[1])
        assert isinstance(p.tc_plan.meta.get("tuned"), dict)
        assert bits_equal(C, execute_tiled_reference(p.tc_plan, B))

    def test_store_hit_keeps_tuned(self, tmp_path):
        csr = dense_band()
        B = make_b(csr, seed=44)
        e1 = repro.SpMMEngine(store=PlanStore(tmp_path), autotune=True)
        e1.spmm(csr, B)
        e2 = repro.SpMMEngine(store=PlanStore(tmp_path))
        e2.spmm(csr, B)
        p = e2.get_plan(csr, feature_dim=B.shape[1])
        assert isinstance(p.tc_plan.meta.get("tuned"), dict)
        assert e2.stats["plans_built"] == 0


# ----------------------------------------------------------------------
# cross-process warm start of a tuned plan (the acceptance criterion)
# ----------------------------------------------------------------------
_CHILD = """
import hashlib, json, sys
import numpy as np
import repro
from repro.serve.store import PlanStore
from repro.sparse.convert import coo_to_csr
from repro.sparse.random import banded_matrix

csr = coo_to_csr(banded_matrix(384, bandwidth=24, fill=0.95, seed=31))
B = np.random.default_rng(45).uniform(-1.0, 1.0, (csr.n_cols, 16)).astype(np.float32)
engine = repro.SpMMEngine(store=PlanStore(sys.argv[1]))
engine.warm_start()
C = engine.spmm(csr, B)
p = engine.get_plan(csr, feature_dim=16)
tuned = p.tc_plan.meta.get("tuned") or {}
ex = p.executor_for(None)
print(json.dumps({
    "plans_built": engine.stats["plans_built"],
    "tuned": tuned,
    "tile_shape": list(p.tc_plan.tiling.tile_shape),
    "prep_misses": ex.stats.prep_misses if ex is not None else -1,
    "sha": hashlib.sha256(np.ascontiguousarray(C).tobytes()).hexdigest(),
}))
"""


class TestCrossProcessTuned:
    def test_fresh_worker_serves_tuned_without_planning(self, tmp_path):
        csr = dense_band()
        B = (
            np.random.default_rng(45)
            .uniform(-1.0, 1.0, (csr.n_cols, 16))
            .astype(np.float32)
        )
        e1 = repro.SpMMEngine(store=PlanStore(tmp_path), autotune=True)
        C0 = e1.spmm(csr, B)
        p1 = e1.get_plan(csr, feature_dim=16)
        tuned1 = p1.tc_plan.meta["tuned"]
        import hashlib

        sha0 = hashlib.sha256(np.ascontiguousarray(C0).tobytes()).hexdigest()

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _CHILD, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["plans_built"] == 0  # tuning + planning amortised
        assert result["tuned"] == tuned1  # the verdict crossed processes
        assert result["tile_shape"] == list(p1.tc_plan.tiling.tile_shape)
        # plan files hold no executor state: the child compiles its
        # executor from the tiling, so prep misses are expected
        assert result["prep_misses"] >= 0
        assert result["sha"] == sha0  # bit-for-bit across processes
