"""The device-backend protocol and its transfer accounting.

A :class:`DeviceBackend` owns the *where* of a prepared multiply: given a
compiled :class:`~repro.kernels.executor.TCExecPlan` and a dense ``B``,
it runs gather → batched tile MMA → fold → exit wherever its
memory lives and hands back a host ``numpy`` result.  The executor stays
the single source of truth for the compiled state (tiles, gather
geometry, fold schedules); backends only decide which device replays it.

Two arms ship: :class:`~repro.backend.cpu.CpuBackend` (the numpy path,
extracted from the executor's historical ``execute`` body) and
:class:`~repro.backend.gpu.CupyBackend` (device-resident replay with
upload-once state).  Selection is environment-gated — see
:mod:`repro.backend.loader` and :func:`repro.backend.get_backend`.
"""

from __future__ import annotations

import threading


class BackendStats:
    """Thread-safe transfer counters for one backend instance.

    ``uploads``/``downloads`` count host→device / device→host copies;
    the ``bytes_*`` totals are lifetime sums and ``device_bytes`` is the
    *live* device-resident footprint (upload-once executor state plus
    compiled device programs; freed when the owning executor is
    collected).  The CPU arm never transfers, so its counters stay zero.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.uploads = 0
        self.downloads = 0
        self.bytes_to_device = 0
        self.bytes_from_device = 0
        self.device_bytes = 0

    def count_upload(self, nbytes: int) -> None:
        with self._lock:
            self.uploads += 1
            self.bytes_to_device += int(nbytes)

    def count_download(self, nbytes: int) -> None:
        with self._lock:
            self.downloads += 1
            self.bytes_from_device += int(nbytes)

    def add_device_bytes(self, nbytes: int) -> None:
        with self._lock:
            self.device_bytes += int(nbytes)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "uploads": self.uploads,
                "downloads": self.downloads,
                "bytes_to_device": self.bytes_to_device,
                "bytes_from_device": self.bytes_from_device,
                "device_bytes": self.device_bytes,
            }


class DeviceBackend:
    """Protocol base: one execution arm of the prepared executor.

    Subclasses implement :meth:`execute`; :meth:`prepare` is the eager
    half of the upload-once lifecycle (a no-op for host backends) and
    :meth:`info` the stats surface the serving engines report.
    """

    #: wire/config name of the arm (``"cpu"`` or ``"cupy"``)
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = BackendStats()

    def execute(self, ex, B):
        """Run the compiled executor ``ex`` on ``B`` (host in, host out).

        ``B`` is ``(K, N)`` or ``(batch, K, N)`` float32; the result
        matches the executor's documented contract — at the ``exact``
        tier, bit-for-bit with
        :func:`~repro.kernels.tc_common.execute_tiled_reference`.
        """
        raise NotImplementedError

    def prepare(self, ex, n: int) -> None:
        """Eagerly build any per-executor device state for feature dim
        ``n`` (the upload-once moment for device arms; host arms rely on
        the executor's own ``prepare_for``, which the caller already
        ran)."""

    def info(self) -> dict:
        """Stats payload for ``engine.stats()["backend"]``."""
        return {"name": self.name}
