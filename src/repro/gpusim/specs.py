"""Device specifications (paper Table 3) and calibration constants.

The three public devices carry the paper's headline numbers — dense TC
TF32 TFLOPS and memory bandwidth — plus the microarchitectural parameters
(SM count, cache geometry, latencies) from the vendor whitepapers, and a
small set of *calibrated efficiency constants* that stand in for
implementation quality we cannot simulate at instruction level:

``cusparse_efficiency``
    Fraction of peak memory bandwidth cuSPARSE SpMM sustains.  The paper
    observes "cuSPARSE shows a significant performance improvement on
    H100" (HBM3 + sparsity-aware hardware), so H100 carries a markedly
    higher constant — this single knob reproduces the shrinking headline
    speedup across Figures 7-9 (2.52x -> 1.91x -> 1.58x).

``tc_kernel_efficiency``
    Achievable fraction of peak for the tensor-core kernels' memory
    subsystem (same for all TC kernels; their *relative* performance comes
    from measured traffic, blocks and pipeline overlap, not this knob).

**Cache scaling.**  The synthetic datasets are 8-64x smaller than the
paper's (docs/ARCHITECTURE.md), so running them against full-size caches would put
every matrix into the capacity regime where the whole dense B fits in L2 —
a regime none of the paper's large graphs are in.  The ``l1_bytes_per_sm``
and ``l2_bytes`` fields therefore carry capacities scaled by roughly the
same factor as the datasets (L2 by ~1/64, L1 by ~1/8; L1 reuse happens on
intra-TB timescales whose working set shrinks far less than the matrix),
preserving each dataset's hit-rate regime.  The *physical* cache sizes are
recorded in ``physical_l2_bytes`` / ``physical_l1_bytes_per_sm`` for
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ValidationError


@dataclass(frozen=True)
class DeviceSpec:
    """Parameters of one simulated GPU."""

    name: str
    arch: str
    n_sms: int
    clock_ghz: float
    #: dense tensor-core TF32 throughput, TFLOPS (Table 3)
    tf32_tflops: float
    #: CUDA-core FP32 FMA throughput, TFLOPS
    fp32_tflops: float
    #: DRAM bandwidth, GB/s (Table 3)
    mem_bw_gbs: float
    mem_type: str
    mem_gb: int
    l2_bytes: int
    l1_bytes_per_sm: int
    smem_bytes_per_sm: int
    #: unscaled silicon capacities (documentation/reference only)
    physical_l2_bytes: int = 0
    physical_l1_bytes_per_sm: int = 0
    line_bytes: int = 128
    #: latencies in nanoseconds
    l1_latency_ns: float = 8.0
    l2_latency_ns: float = 60.0
    dram_latency_ns: float = 220.0
    #: kernel launch + teardown overhead (microseconds)
    launch_overhead_us: float = 3.0
    #: per-iteration synchronisation cost inside a TB pipeline (ns):
    #: async-group wait + barrier
    sync_overhead_ns: float = 45.0
    #: fixed per-thread-block cost (ns): prologue, offset loads, epilogue
    tb_overhead_ns: float = 400.0
    #: max resident thread blocks per SM for the SpMM kernels (occupancy)
    max_tb_per_sm: int = 8
    #: calibrated efficiency constants (see module docstring)
    cusparse_efficiency: float = 0.60
    tc_kernel_efficiency: float = 0.78
    cuda_kernel_efficiency: float = 0.70
    #: L2 bandwidth amplification over DRAM (hits served this much faster)
    l2_bw_scale: float = 4.0
    #: L1/shared bandwidth amplification over DRAM
    l1_bw_scale: float = 12.0
    #: fraction of device DRAM bandwidth a single thread block can draw
    #: when running alone (one SM's LSU/MSHR limit)
    solo_bw_fraction: float = 0.08

    def __post_init__(self) -> None:
        for fname in ("n_sms", "tf32_tflops", "fp32_tflops", "mem_bw_gbs"):
            if getattr(self, fname) <= 0:
                raise ValidationError(f"{fname} must be positive")

    # -- derived quantities -------------------------------------------
    @property
    def tf32_flops(self) -> float:
        return self.tf32_tflops * 1e12

    @property
    def fp32_flops(self) -> float:
        return self.fp32_tflops * 1e12

    @property
    def mem_bw(self) -> float:
        """DRAM bandwidth in bytes/second."""
        return self.mem_bw_gbs * 1e9

    @property
    def l1_lines_per_sm(self) -> int:
        return self.l1_bytes_per_sm // self.line_bytes

    @property
    def l2_lines(self) -> int:
        return self.l2_bytes // self.line_bytes

    def mma_m16n8k8_seconds(self) -> float:
        """Wall time of one warp-level m16n8k8 TF32 MMA at full issue.

        One MMA performs 2*16*8*8 = 2048 flops; at peak the device retires
        ``tf32_flops`` per second across all SMs, so a single SM's share
        retires ``tf32_flops / n_sms``.
        """
        flops = 2 * 16 * 8 * 8
        return flops / (self.tf32_flops / self.n_sms)

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """Copy with selected fields replaced (ablation studies)."""
        return replace(self, **kwargs)

    def table3_row(self) -> dict:
        """The row this device contributes to Table 3."""
        return {
            "GPU": self.name,
            "MEM": f"{self.mem_gb}GB {self.mem_type}",
            "TF32(TFLOPS)": self.tf32_tflops,
            "MEM BW": f"{self.mem_bw_gbs:.0f}GB/s",
        }


RTX4090 = DeviceSpec(
    name="RTX 4090",
    arch="Ada Lovelace",
    n_sms=128,
    clock_ghz=2.52,
    tf32_tflops=82.6,
    fp32_tflops=82.6,
    mem_bw_gbs=1008.0,
    mem_type="GDDR6X",
    mem_gb=24,
    l2_bytes=(72 * 1024 * 1024) // 64,
    l1_bytes_per_sm=(128 * 1024) // 8,
    smem_bytes_per_sm=100 * 1024,
    physical_l2_bytes=72 * 1024 * 1024,
    physical_l1_bytes_per_sm=128 * 1024,
    # Consumer memory subsystem: cuSPARSE leaves more bandwidth unused,
    # giving Acc-SpMM its largest headline speedup (Fig. 7, ~2.5x).
    cusparse_efficiency=0.46,
    tc_kernel_efficiency=0.80,
    cuda_kernel_efficiency=0.62,
)

A800 = DeviceSpec(
    name="A800",
    arch="Ampere",
    n_sms=108,
    clock_ghz=1.41,
    tf32_tflops=156.0,
    fp32_tflops=19.5,
    mem_bw_gbs=1935.0,
    mem_type="HBM2",
    mem_gb=80,
    l2_bytes=(40 * 1024 * 1024) // 64,
    l1_bytes_per_sm=(192 * 1024) // 8,
    smem_bytes_per_sm=164 * 1024,
    physical_l2_bytes=40 * 1024 * 1024,
    physical_l1_bytes_per_sm=192 * 1024,
    cusparse_efficiency=0.55,
    tc_kernel_efficiency=0.78,
    cuda_kernel_efficiency=0.72,
)

H100 = DeviceSpec(
    name="H100",
    arch="Hopper",
    n_sms=132,
    clock_ghz=1.83,
    tf32_tflops=494.7,
    fp32_tflops=66.9,
    mem_bw_gbs=3350.0,
    mem_type="HBM3",
    mem_gb=80,
    l2_bytes=(50 * 1024 * 1024) // 64,
    l1_bytes_per_sm=(256 * 1024) // 8,
    smem_bytes_per_sm=228 * 1024,
    physical_l2_bytes=50 * 1024 * 1024,
    physical_l1_bytes_per_sm=256 * 1024,
    # "cuSPARSE shows a significant performance improvement on H100":
    # HBM3 plus sparsity-aware hardware -> high sustained efficiency,
    # shrinking the headline gap to ~1.6x (Fig. 9).
    cusparse_efficiency=0.80,
    tc_kernel_efficiency=0.76,
    cuda_kernel_efficiency=0.78,
)

DEVICES: dict[str, DeviceSpec] = {
    "rtx4090": RTX4090,
    "a800": A800,
    "h100": H100,
}


def get_device(name: str | DeviceSpec) -> DeviceSpec:
    """Resolve a device by key (case/space-insensitive) or pass through."""
    if isinstance(name, DeviceSpec):
        return name
    key = name.strip().lower().replace(" ", "").replace("-", "")
    if key in DEVICES:
        return DEVICES[key]
    raise ValidationError(
        f"unknown device {name!r}; available: {', '.join(DEVICES)}"
    )
