"""Thread-block scheduler: list scheduling of TB work onto SMs.

The GPU hardware work distributor issues thread blocks to SMs in launch
order, each landing on the first SM with a free slot.  For SpMM kernels —
one TB per RowWindow (or per balanced chunk) — this makes kernel wall time
the *makespan* of a list-scheduling problem, which is exactly what load
balancing (§3.5) optimises.  The scheduler here reproduces that behaviour
with a priority queue over SM availability times.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.gpusim.specs import DeviceSpec


@dataclass(frozen=True)
class ThreadBlockWork:
    """One thread block's simulated execution time (seconds)."""

    tb_id: int
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValidationError("duration must be non-negative")


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a TB list onto the device."""

    makespan_s: float
    start_s: np.ndarray  # per TB
    end_s: np.ndarray  # per TB
    sm_of_tb: np.ndarray  # per TB
    sm_busy_s: np.ndarray  # per SM total busy time

    @property
    def mean_sm_utilization(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return float(self.sm_busy_s.mean() / self.makespan_s)

    @property
    def imbalance(self) -> float:
        """Max/mean SM busy-time ratio (1.0 = perfectly balanced)."""
        mean = self.sm_busy_s.mean()
        return float(self.sm_busy_s.max() / mean) if mean > 0 else 0.0


class Machine:
    """A device's TB execution engine."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec

    def schedule(self, durations_s: np.ndarray) -> ScheduleResult:
        """List-schedule TBs (in launch order) onto the SMs.

        Each SM runs ``max_tb_per_sm`` slots; every slot executes one TB at
        a time.  Slots model the hardware's ability to keep several TBs
        resident — their memory/computation interleaving is already folded
        into the per-TB stage times by the kernels' efficiency constants.
        """
        durations = np.asarray(durations_s, dtype=np.float64)
        n = durations.size
        n_slots = self.spec.n_sms * self.spec.max_tb_per_sm
        start = np.zeros(n, dtype=np.float64)
        end = np.zeros(n, dtype=np.float64)
        sm_of = np.zeros(n, dtype=np.int64)
        sm_busy = np.zeros(self.spec.n_sms, dtype=np.float64)
        if n == 0:
            return ScheduleResult(0.0, start, end, sm_of, sm_busy)

        # (available_time, slot_id); slot -> SM is slot_id % n_sms so
        # consecutive blocks spread across SMs first (hardware behaviour).
        heap = [(0.0, slot) for slot in range(min(n_slots, n))]
        heapq.heapify(heap)
        for tb in range(n):
            t_free, slot = heapq.heappop(heap)
            start[tb] = t_free
            end[tb] = t_free + durations[tb]
            sm = slot % self.spec.n_sms
            sm_of[tb] = sm
            sm_busy[sm] += durations[tb]
            heapq.heappush(heap, (end[tb], slot))
        makespan = float(end.max())
        if makespan < durations.max() - 1e-15:
            raise SimulationError("makespan below longest TB — scheduler bug")
        return ScheduleResult(makespan, start, end, sm_of, sm_busy)

    def kernel_time(
        self, durations_s: np.ndarray, include_launch: bool = True
    ) -> float:
        """Makespan plus launch overhead — one kernel's wall time."""
        res = self.schedule(durations_s)
        extra = self.spec.launch_overhead_us * 1e-6 if include_launch else 0.0
        return res.makespan_s + extra

    def fluid_makespan(
        self,
        durations_shared_s: np.ndarray,
        durations_solo_s: np.ndarray | None = None,
    ) -> float:
        """Bandwidth-sharing ("fluid") makespan bound.

        List scheduling with *static* per-TB bandwidth shares exaggerates
        tail effects: in hardware, when most TBs have drained, the
        survivors absorb the freed bandwidth.  The fluid bound models
        that: kernel time is the maximum of

        * the **aggregate-throughput bound** — total fair-share work
          divided by the number of concurrent slots (equivalently, total
          traffic over device bandwidth when memory-bound), and
        * the **straggler bound** — the longest single TB even when it
          runs alone with a whole SM's bandwidth share
          (``durations_solo_s``); one TB's internal chain cannot be
          parallelised, which is precisely the serialisation load
          balancing (§3.5) removes.
        """
        shared = np.asarray(durations_shared_s, dtype=np.float64)
        if shared.size == 0:
            return 0.0
        n_slots = min(shared.size, self.spec.n_sms * self.spec.max_tb_per_sm)
        agg = float(shared.sum()) / max(1, n_slots)
        solo = (
            float(np.asarray(durations_solo_s, dtype=np.float64).max())
            if durations_solo_s is not None and len(durations_solo_s)
            else 0.0
        )
        return max(agg, solo)

    def drain_makespan(
        self,
        mem_work_s: np.ndarray,
        fixed_s: np.ndarray,
    ) -> float:
        """Equal-share rate-capped drain — the load-balancing physics.

        Each TB carries memory work (``mem_work_s``, expressed as seconds
        at the *full* device effective bandwidth) plus a non-scalable
        ``fixed_s`` part (synchronisation, MMA issue, latencies, TB
        overhead).  Active TBs share bandwidth equally, but one TB can
        draw at most ``solo_bw_fraction`` of the device (one SM's LSU
        limit) — so when only a few heavy stragglers remain, the machine
        runs far below peak.  That under-utilised tail is exactly what
        §3.5's balancing eliminates: even chunks keep the active count
        high until the very end.

        The drain is evaluated analytically: with a common rate, TBs
        complete in ascending work order, so between consecutive
        completions the rate is ``min(cap, 1/active)`` and the makespan is
        one vectorised pass over the sorted works.  Launch waves beyond
        the slot count are processed as successive drains.
        """
        work = np.asarray(mem_work_s, dtype=np.float64)
        fixed = np.asarray(fixed_s, dtype=np.float64)
        n = work.size
        if n == 0:
            return 0.0
        cap = max(self.spec.solo_bw_fraction, 1e-9)
        slots = max(1, self.spec.n_sms * self.spec.max_tb_per_sm)

        order = np.argsort(work, kind="stable")
        makespan = 0.0
        wave_start = 0.0
        for w0 in range(0, n, slots):
            idx = order[w0 : w0 + slots]
            w_sorted = work[idx]
            m = w_sorted.size
            deltas = np.diff(w_sorted, prepend=0.0)
            active = m - np.arange(m, dtype=np.float64)
            rates = np.minimum(cap, 1.0 / active)
            finish = wave_start + np.cumsum(deltas / rates)
            tb_end = finish + fixed[idx]
            makespan = max(makespan, float(tb_end.max()))
            # Serial wave chaining: during the saturated phase the machine
            # is work-conserving, so the chained drain equals total work at
            # full rate; works are globally sorted ascending, so the
            # straggler tail concentrates in the final wave where the
            # rate-cap physics applies.
            wave_start = float(finish[-1])
        return makespan
