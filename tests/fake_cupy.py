"""A numpy-backed fake of the cupy surface ``repro.backend`` uses.

The conformance suite installs this module as ``sys.modules["cupy"]``
(via ``monkeypatch.setitem``) so the backend's guarded loader discovers
it like the real thing; every array op then runs on numpy underneath,
which makes the cupy arm's results comparable **bit for bit** with the
CPU arm.

What the fake enforces, beyond arithmetic:

* **device/host discipline** — arrays produced by the fake are
  :class:`FakeDeviceArray` (a marker ``np.ndarray`` subclass).  The
  ``take``/``matmul``/``stack``/``asnumpy`` entry points raise
  ``TypeError`` when handed a plain host array, so an accidental
  host-side operand in the device path fails loudly instead of silently
  working because "it is all numpy anyway".
* **transfer accounting** — ``counters`` tallies uploads/downloads and
  their bytes plus device allocations, independently of the backend's
  own :class:`~repro.backend.base.BackendStats`; the upload-once tests
  cross-check the two.
* **device selection** — ``cuda.Device(n).use()`` records ``n`` in
  ``used_devices`` (and can be made to raise via ``fail_device_use`` to
  exercise the init-failure fallback).

Use :func:`make_fake_cupy` to get a fresh module per test; state is
per-instance so parallel tests cannot bleed counters into each other.
"""

from __future__ import annotations

import types

import numpy as np


class FakeDeviceArray(np.ndarray):
    """Marker: 'this array lives on the (fake) device'.

    Views, slices, and ufunc results of a device array stay device
    arrays through numpy's subclass propagation — mirroring how cupy
    ops yield cupy arrays.
    """


def _is_device(a) -> bool:
    return isinstance(a, FakeDeviceArray)


def make_fake_cupy() -> types.ModuleType:
    """A fresh fake-cupy module with zeroed counters."""
    fake = types.ModuleType("cupy")
    fake.__doc__ = "numpy-backed fake of the cupy surface (test shim)"
    fake.ndarray = FakeDeviceArray
    fake.counters = {
        "uploads": 0,
        "upload_bytes": 0,
        "downloads": 0,
        "download_bytes": 0,
        "device_allocs": 0,
    }
    fake.used_devices = []
    fake.fail_device_use = False

    def reset_counters() -> None:
        for k in fake.counters:
            fake.counters[k] = 0

    def _require_device(*arrays):
        for a in arrays:
            if isinstance(a, (list, tuple)):
                _require_device(*a)
            elif isinstance(a, np.ndarray) and not _is_device(a):
                raise TypeError(
                    "host ndarray passed to a fake-cupy device op "
                    f"(shape {a.shape}, dtype {a.dtype}); upload it with "
                    "cupy.asarray first"
                )

    def asarray(a, dtype=None):
        if _is_device(a):
            # like cupy: already-resident arrays transfer nothing
            return a.astype(dtype, copy=False) if dtype is not None else a
        host = np.asarray(a, dtype=dtype)
        fake.counters["uploads"] += 1
        fake.counters["upload_bytes"] += int(host.nbytes)
        fake.counters["device_allocs"] += 1
        return np.array(host, copy=True).view(FakeDeviceArray)

    def asnumpy(a):
        _require_device(a)
        fake.counters["downloads"] += 1
        fake.counters["download_bytes"] += int(a.nbytes)
        return np.array(a, subok=False, copy=True)

    def zeros(shape, dtype=np.float32):
        fake.counters["device_allocs"] += 1
        return np.zeros(shape, dtype=dtype).view(FakeDeviceArray)

    def empty(shape, dtype=np.float32):
        fake.counters["device_allocs"] += 1
        return np.empty(shape, dtype=dtype).view(FakeDeviceArray)

    def take(a, indices, axis=None, out=None):
        _require_device(a, indices, *([] if out is None else [out]))
        return np.take(a, indices, axis=axis, out=out)

    def matmul(a, b, out=None):
        _require_device(a, b, *([] if out is None else [out]))
        return np.matmul(a, b, out=out)

    def stack(arrays, axis=0):
        _require_device(arrays)
        return np.stack(arrays, axis=axis).view(FakeDeviceArray)

    class Device:
        def __init__(self, device_id: int = 0) -> None:
            self.id = int(device_id)

        def use(self) -> None:
            if fake.fail_device_use:
                raise RuntimeError("fake device refused (fail_device_use)")
            fake.used_devices.append(self.id)

    fake.reset_counters = reset_counters
    fake.asarray = asarray
    fake.asnumpy = asnumpy
    fake.zeros = zeros
    fake.empty = empty
    fake.take = take
    fake.matmul = matmul
    fake.stack = stack
    fake.cuda = types.SimpleNamespace(Device=Device)
    # dtypes + elementwise ops the backend touches through the module
    fake.float32 = np.float32
    fake.uint32 = np.uint32
    fake.isfinite = np.isfinite
    fake.right_shift = np.right_shift
    return fake
