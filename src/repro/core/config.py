"""Configuration of the Acc-SpMM pipeline — the ablation surface.

Figure 15 toggles the paper's optimisations cumulatively:
Base (DTC-SpMM w/o LB) → +BitTCF → +Reordering → +Cache policy →
+Pipeline → +Load balancing.  :class:`AccConfig` carries exactly those
five switches (plus tuning knobs), and
:meth:`AccConfig.ablation_ladder` reproduces the cumulative sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.balance.ibd import IBD_THRESHOLD
from repro.balance.scheduler import MAX_BLOCKS_PER_TB
from repro.gpusim.pipeline import PipelineMode


@dataclass(frozen=True)
class AccConfig:
    """Switches and knobs of the Acc-SpMM pipeline."""

    #: BitTCF compressed format (False = ME-TCF byte costs) — §3.3
    use_bittcf: bool = True
    #: data-affinity-based reordering — §3.2
    reorder: bool = True
    #: PTX cache-policy control (.ca loads, .wt C stores) — Table 1
    cache_policy: bool = True
    #: least-bubble double-buffer pipeline (False = DTC pipeline) — §3.4
    pipeline: bool = True
    #: adaptive sparsity-aware load balancing — §3.5
    load_balance: bool = True
    #: IBD activation threshold (Equation 3)
    ibd_threshold: float = IBD_THRESHOLD
    #: max TC blocks per thread block
    max_blocks_per_tb: int = MAX_BLOCKS_PER_TB
    #: affinity-chain candidate width (Step II of Algorithm 1)
    chain_width: int = 32
    label: str = "acc-spmm"

    @property
    def pipeline_mode(self) -> PipelineMode:
        return PipelineMode.ACC if self.pipeline else PipelineMode.DTC

    def replace(self, **kwargs) -> "AccConfig":
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    @staticmethod
    def paper_default() -> "AccConfig":
        """The configuration all headline numbers use."""
        return AccConfig()

    @staticmethod
    def baseline() -> "AccConfig":
        """Figure-15 'Base': DTC-SpMM-like, everything off."""
        return AccConfig(
            use_bittcf=False,
            reorder=False,
            cache_policy=False,
            pipeline=False,
            load_balance=False,
            label="base",
        )

    @staticmethod
    def ablation_ladder() -> list["AccConfig"]:
        """Figure 15's cumulative steps, in plot order.

        Base -> +BTCF -> +RO -> +CP -> +PP -> +LB (= full Acc-SpMM).
        """
        base = AccConfig.baseline()
        steps = [
            ("base", {}),
            ("+BTCF", {"use_bittcf": True}),
            ("+RO", {"reorder": True}),
            ("+CP", {"cache_policy": True}),
            ("+PP", {"pipeline": True}),
            ("+LB", {"load_balance": True}),
        ]
        ladder: list[AccConfig] = []
        acc: dict = {}
        for label, change in steps:
            acc.update(change)
            ladder.append(base.replace(label=label, **acc))
        return ladder
