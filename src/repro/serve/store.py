"""Persistent, content-addressed plan store — cross-process plan reuse.

The in-memory :class:`~repro.serve.cache.PlanCache` amortises plan cost
within one process; every *new* worker still pays a full cold start.
:class:`PlanStore` closes that gap: plans are serialised once
(:mod:`repro.serve.serial`) into one file per fingerprint under a cache
directory, and any process can load them back as views into one
read-only map of the file, so concurrent workers share the physical
pages of a hot plan.

Guarantees:

* **Content addressing** — an entry's filename is a digest of the matrix
  fingerprint (structure + values), the device, and the config
  fingerprint; equal content from different processes resolves to the
  same file.  The format *version* is deliberately not part of the
  address: after a version bump, stale entries still resolve, fail the
  load-time version check, and are quarantined on first contact.
* **Atomic publication** — writes go to a same-directory temp file and
  are published with ``os.replace``; readers never observe a partial
  entry.
* **Corruption safety** — an entry that fails to parse or validate
  (truncated file, bad magic, version skew, fingerprint mismatch) is
  *quarantined*: moved aside into ``quarantine/`` with a reason sidecar,
  counted, and reported as a miss.  Serving traffic never crashes on a
  bad entry, and a bad entry is touched at most once.  A load that fails
  because this process ran out of memory or descriptors is a miss too,
  but the entry stays where it is: every worker shares the store.
* **Cost-aware gc** — each entry's header records its measured
  ``build_seconds``; :meth:`gc` evicts cheapest-first (breaking ties
  towards least-recently-used mtimes) until ``max_bytes`` holds, so
  expensive reorder+tile plans survive byte-budget pressure.
* **TTL / staleness** — an entry's recency is its file mtime, set when
  the entry is published and refreshed by every successful load;
  :meth:`gc` with ``max_idle_seconds`` drops entries whose matrices have
  stopped arriving, and never one used since the cutoff.
* **One kind of entry** — every entry is a whole ``accplan`` container
  in one flat directory, a delta-derived plan included: a worker loads
  any plan with one map of one file, never by replaying edits.  Any
  other container kind is quarantined on first contact.

CLI (``python -m repro.serve.store --help``): ``inspect`` lists entries,
``prewarm`` builds and persists plans for named datasets ahead of
serving, ``gc`` applies byte and idle-time budgets and clears the
quarantine.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.runtime import create_lock
from repro.errors import StoreError
from repro.serve.fingerprint import (
    MatrixFingerprint,
    config_fingerprint,
    _digest,
)

#: Environment variable overriding the default store directory.
STORE_ENV = "REPRO_PLAN_STORE"

#: ``OSError`` errnos that say the loading process ran short of a
#: resource (descriptors, kernel file table, memory), not that the entry
#: is bad: such a load is a miss that leaves the file in place.
_RESOURCE_ERRNOS = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOMEM})


def _is_resource_failure(exc: BaseException) -> bool:
    return isinstance(exc, MemoryError) or (
        isinstance(exc, OSError) and exc.errno in _RESOURCE_ERRNOS
    )


def default_store_root() -> Path:
    """``$REPRO_PLAN_STORE``, else ``$XDG_CACHE_HOME/accspmm/plans``,
    else ``~/.cache/accspmm/plans``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME") or "~/.cache"
    return Path(base).expanduser() / "accspmm" / "plans"


@dataclass
class StoreStats:
    """Counters for one :class:`PlanStore` lifetime (this process)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: entries moved to quarantine after failing to load/validate
    quarantined: int = 0
    #: write failures (disk full, permissions) — persistence is
    #: best-effort, so these never propagate to serving traffic
    put_errors: int = 0
    #: loads that failed for lack of memory or descriptors — served as
    #: misses with the entry left in place, since the entry is not at fault
    load_errors: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "quarantined": self.quarantined,
            "put_errors": self.put_errors,
            "load_errors": self.load_errors,
        }


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk plan, as listed by :meth:`PlanStore.entries`."""

    digest: str
    path: Path
    nbytes: int
    mtime: float
    #: decoded header metadata (fingerprint, device, config, build cost);
    #: ``None`` when the header itself is unreadable
    meta: dict | None = field(default=None)

    @property
    def build_seconds(self) -> float:
        """The recorded rebuild cost; 0.0, so it ranks cheapest, when the
        header is unreadable or the field is missing or not a number."""
        try:
            return float((self.meta or {}).get("build_seconds", 0.0))
        except (TypeError, ValueError):
            return 0.0


class PlanStore:
    """A directory of serialised plans, one file per fingerprint.

    Every entry is a whole plan, loaded as views into one read-only map
    of its file, so concurrent workers share pages and a loaded plan
    holds one descriptor.  The map keeps the file's inode, so a loaded
    plan keeps serving even if its entry is deleted.

    Parameters
    ----------
    root:
        Store directory (created on first use).  Defaults to
        :func:`default_store_root`.
    max_bytes:
        Optional byte budget enforced after every :meth:`put` by running
        :meth:`gc` (cheapest-to-rebuild entries evicted first).
    max_idle_seconds:
        Optional TTL: :meth:`gc` (run after every :meth:`put` when any
        budget is configured) drops entries idle longer than this —
        idleness measured on the file mtime, which publication sets and
        every successful load refreshes, so an entry loaded (or written)
        since the cutoff is never dropped.
    clock:
        The wall clock (``time.time``-compatible) that TTL cutoffs and
        temp-file reaping compare mtimes against.  Injectable so tests
        can drive gc with a moved or frozen clock.

    All methods are safe to call from concurrent threads: the filesystem
    operations are atomic (write-temp-then-rename) and the in-process
    counters are lock-protected.
    """

    SUFFIX = ".plan"
    #: temp files older than this are considered crashed-writer litter
    #: and reaped by :meth:`gc`; younger ones may be mid-write
    TMP_REAP_SECONDS = 3600.0

    def __init__(
        self,
        root: str | Path | None = None,
        max_bytes: int | None = None,
        max_idle_seconds: float | None = None,
        clock=time.time,
    ) -> None:
        if max_idle_seconds is not None and max_idle_seconds <= 0:
            raise ValueError("store max_idle_seconds must be > 0 (or None)")
        self.root = Path(root) if root is not None else default_store_root()
        self.max_bytes = max_bytes
        self.max_idle_seconds = max_idle_seconds
        self.clock = clock
        self._stats_lock = create_lock("PlanStore._stats_lock")
        self.stats = StoreStats()  #: guarded_by: _stats_lock

    def _count(self, counter: str, n: int = 1) -> None:
        """Bump a stats counter exactly (``+=`` alone is not atomic)."""
        with self._stats_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + n)

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def digest(fp: MatrixFingerprint, device: str, config) -> str:
        """Content address of one (matrix, device, config) plan.

        Deliberately *excludes* the plan format version: after a format
        bump, old entries still resolve to the same path, fail the
        version check on load, and are quarantined on first contact —
        rather than lingering invisibly at version-tagged paths forever.
        """
        parts = [*fp.full, device, config_fingerprint(config)]
        return _digest("|".join(str(part) for part in parts).encode())

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}{self.SUFFIX}"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, fp: MatrixFingerprint, device: str, config):
        """The stored plan for this content, or ``None`` (miss).

        Never raises on a bad entry: parse/validation failures quarantine
        the file and count as a miss.  A load that runs out of memory or
        descriptors is a miss too, counted in ``load_errors``, and leaves
        the file in place.  A successful load refreshes the entry's mtime
        (the recency :meth:`gc` ages and ranks entries by).
        """
        path = self.path_for(self.digest(fp, device, config))
        plan = self._load(path, expect_fp=fp)
        if plan is None:
            self._count("misses")
            return None
        self._count("hits")
        return plan

    def _load(self, path: Path, expect_fp: MatrixFingerprint | None = None):
        """Load one entry file; quarantine and return ``None`` on failure.

        The file is mapped read-only once
        (:func:`~repro.serve.serial.unpack_container`) and must be an
        ``accplan`` container: any other kind (such as an ``accdelta``
        link an older store wrote) is quarantined like any other entry
        the reader does not accept.  A resource failure
        (``MemoryError``, or an ``OSError`` out of descriptors or
        memory) quarantines nothing: it counts one ``load_errors`` and
        returns ``None``.

        The writer's materialisation budget (``exec_max_bytes``, set by
        :meth:`~repro.core.planner.AccPlan.prepare`) is dropped here, so
        no plan served from the store or preloaded by a warm start
        carries it.  The ``tuned`` verdict stays: it is derived from the
        matrix, and dropping it would waste the amortised autotuning.
        """
        from repro.serve import serial

        if not path.is_file():
            return None
        try:
            header, arrays = serial.unpack_container(path=path)
            kind = header.get("kind")
            if kind != "accplan":
                raise StoreError(f"store entry is a {kind!r} container")
            plan = serial.plan_from_payload(header["meta"], arrays)
            if expect_fp is not None:
                stored = MatrixFingerprint.from_record(
                    header["meta"]["fingerprint"]
                )
                if stored != expect_fp:
                    raise StoreError(
                        "fingerprint mismatch (stale or colliding entry)"
                    )
        except Exception as exc:  # noqa: BLE001 - the "never raises on a
            # bad entry" guarantee: expected decode failures arrive as
            # StoreError/OSError, but a hostile or bit-rotted file must
            # not be able to crash serving traffic through any exception
            if _is_resource_failure(exc):
                self._count("load_errors")
            else:
                self._quarantine(path, repr(exc))
            return None
        try:
            os.utime(path)  # recency for gc; best-effort
        except OSError:
            pass
        plan.tc_plan.meta.pop("exec_max_bytes", None)
        return plan

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside so it is never re-parsed, keeping it
        available for post-mortems (``quarantine/<name>`` + ``.reason``)."""
        try:
            qdir = self.quarantine_dir
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            os.replace(path, target)
            (qdir / f"{path.name}.reason").write_text(f"{reason}\n")
        except OSError:
            # quarantine is best-effort too (e.g. read-only store); the
            # caller already treats the entry as a miss
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        self._count("quarantined")

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, fp: MatrixFingerprint, device: str, config, plan) -> bool:
        """Persist a plan (atomic write-temp-then-rename); True if stored.

        Best-effort: I/O errors return False — the serving path never
        depends on persistence succeeding.
        """
        try:
            data = plan.to_bytes()
            self._publish(self.path_for(self.digest(fp, device, config)), data)
        except (OSError, StoreError):
            self._count("put_errors")
            return False
        self._count("puts")
        if self.max_bytes is not None or self.max_idle_seconds is not None:
            self.gc(self.max_bytes)
        return True

    def _publish(self, path: Path, data: bytes) -> None:
        """Atomically write one entry file (write-temp-then-rename)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        # temp file in the store directory itself: os.replace stays
        # same-directory, so publication is atomic
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=self.SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)  # atomic publication
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> list[StoreEntry]:
        """All decodable entries (header-only scan, payloads untouched)."""
        from repro.serve import serial

        out = []
        for path in sorted(self.root.glob(f"*{self.SUFFIX}")):
            if path.name.startswith(".tmp-"):
                continue
            try:
                st = path.stat()
            except OSError:
                continue  # raced with a concurrent gc/quarantine
            try:
                meta = serial.read_header_from_file(path)["meta"]
            except (StoreError, OSError, ValueError):
                meta = None
            out.append(
                StoreEntry(
                    digest=path.stem,
                    path=path,
                    nbytes=st.st_size,
                    mtime=st.st_mtime,
                    meta=meta,
                )
            )
        return out

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries())

    def gc(
        self,
        max_bytes: int | None = None,
        max_idle_seconds: float | None = None,
    ) -> list[StoreEntry]:
        """Drop stale entries, then evict down to ``max_bytes``; returns
        everything removed.

        Two passes over one directory scan:

        1. **TTL** — entries whose mtime is more than
           ``max_idle_seconds`` before this store's clock (their matrices
           stopped arriving) are dropped regardless of the byte budget.
           An entry loaded or written since the cutoff is never touched
           by this pass, and a future mtime reads as not idle.
        2. **Byte budget** — cost-aware: survivors are ranked by recorded
           ``build_seconds`` ascending (cheapest to rebuild goes first),
           ties — and unreadable headers, which rank cheapest — broken
           towards the oldest mtime.

        ``None`` arguments fall back to the store's configured budgets;
        with neither budget, gc only removes leftover temp files.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        max_idle = (
            self.max_idle_seconds if max_idle_seconds is None
            else max_idle_seconds
        )
        now = float(self.clock())
        # reap temp files from *crashed* writers only: an age threshold
        # keeps gc (possibly run by another worker's put) from deleting
        # a temp file a live writer is between mkstemp and os.replace on
        cutoff = now - self.TMP_REAP_SECONDS
        for tmp in self.root.glob(f".tmp-*{self.SUFFIX}"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                pass
        if budget is None and max_idle is None:
            return []
        entries = self.entries()
        evicted: list[StoreEntry] = []
        if max_idle is not None:
            idle_cutoff = now - max_idle
            fresh = []
            for entry in entries:
                if entry.mtime >= idle_cutoff:
                    fresh.append(entry)
                    continue
                try:
                    entry.path.unlink()
                except FileNotFoundError:
                    continue  # a concurrent gc got it first; not ours
                except OSError:
                    fresh.append(entry)  # undeletable but still present
                    continue
                evicted.append(entry)
            entries = fresh
        if budget is not None:
            total = sum(e.nbytes for e in entries)
            for entry in sorted(
                entries, key=lambda e: (e.build_seconds, e.mtime)
            ):
                if total <= budget:
                    break
                try:
                    entry.path.unlink()
                except FileNotFoundError:
                    # gone already (concurrent gc/quarantine): its bytes
                    # no longer occupy the tree, so they must leave the
                    # running total — or live entries get evicted to
                    # make room for a ghost
                    total -= entry.nbytes
                    continue
                except OSError:
                    continue
                total -= entry.nbytes
                evicted.append(entry)
        return evicted

    def clear_quarantine(self) -> int:
        """Delete quarantined files; returns how many were removed."""
        n = 0
        if self.quarantine_dir.is_dir():
            for path in self.quarantine_dir.iterdir():
                try:
                    path.unlink()
                    n += 1
                except OSError:
                    pass
        return n

    def counters(self) -> dict:
        """This process's store counters — no disk I/O.

        What :attr:`SpMMEngine.stats` embeds: reading engine stats must
        stay a pure in-memory operation even with hundreds of persisted
        plans.  :meth:`as_dict` adds the directory-scan facts.
        """
        with self._stats_lock:
            counters = self.stats.as_dict()
        return {
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "max_idle_seconds": self.max_idle_seconds,
            **counters,
        }

    def as_dict(self) -> dict:
        """Point-in-time store facts plus this process's counters.

        Scans the store directory (one header read per entry) — meant
        for the CLI and diagnostics, not the per-request path."""
        quarantined_files = (
            len([p for p in self.quarantine_dir.glob(f"*{self.SUFFIX}")])
            if self.quarantine_dir.is_dir()
            else 0
        )
        entries = self.entries()
        with self._stats_lock:
            counters = self.stats.as_dict()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "stored_bytes": sum(e.nbytes for e in entries),
            "max_bytes": self.max_bytes,
            "max_idle_seconds": self.max_idle_seconds,
            "quarantined_files": quarantined_files,
            **counters,
        }


# ----------------------------------------------------------------------
# CLI: python -m repro.serve.store {inspect,prewarm,gc}
# ----------------------------------------------------------------------
def _cmd_inspect(store: PlanStore, args) -> int:
    entries = store.entries()
    print(f"plan store: {store.root}")
    print(f"{len(entries)} entries, {sum(e.nbytes for e in entries)} bytes")
    if not entries:
        return 0
    print(
        f"{'digest':14} {'rows':>8} {'cols':>8} {'nnz':>9} "
        f"{'device':8} {'config':12} {'tuned':14} {'build_s':>8} {'MB':>7}"
    )
    for e in sorted(entries, key=lambda e: -e.build_seconds):
        meta = e.meta or {}
        fp = meta.get("fingerprint", {})
        # the autotuner's verdict, in the plan meta (absent on untuned
        # plans)
        tuned = meta.get("tc", {}).get("meta", {}).get("tuned")
        tuned_label = (
            f"{tuned.get('kernel', '?')}@"
            f"{tuned.get('window_rows', '?')}x{tuned.get('block_cols', '?')}"
            if isinstance(tuned, dict)
            else "-"
        )
        print(
            f"{e.digest[:12]:14} {fp.get('n_rows', '?'):>8} "
            f"{fp.get('n_cols', '?'):>8} {fp.get('nnz', '?'):>9} "
            f"{str(meta.get('device', '?')):8} "
            f"{str(meta.get('config', {}).get('label', '?')):12} "
            f"{tuned_label:14} "
            f"{e.build_seconds:8.3f} {e.nbytes / 2**20:7.2f}"
        )
    qdir = store.quarantine_dir
    if qdir.is_dir():
        bad = list(qdir.glob(f"*{PlanStore.SUFFIX}"))
        if bad:
            print(f"quarantine: {len(bad)} file(s) under {qdir}")
    return 0


def _cmd_prewarm(store: PlanStore, args) -> int:
    # deferred: numpy-heavy imports would slow `--help` and `inspect`
    from repro.core.planner import plan as build_plan
    from repro.serve.fingerprint import fingerprint
    from repro.sparse.datasets import load_dataset

    for name in args.dataset:
        csr = load_dataset(name)
        fp = fingerprint(csr)
        p = build_plan(
            csr,
            feature_dim=args.feature_dim,
            device=args.device,
            autotune=args.autotune,
        )
        stored = store.put(fp, p.device.name, p.config, p)
        state = "stored" if stored else "skipped"
        print(
            f"{name}: {csr.n_rows}x{csr.n_cols} nnz={csr.nnz} "
            f"build={p.build_seconds:.3f}s -> {state}"
        )
    return 0


def _cmd_gc(store: PlanStore, args) -> int:
    evicted = store.gc(args.max_bytes, max_idle_seconds=args.max_idle_seconds)
    for e in evicted:
        print(f"evicted {e.digest[:12]} ({e.nbytes} bytes, "
              f"build={e.build_seconds:.3f}s)")
    if args.clear_quarantine:
        print(f"cleared {store.clear_quarantine()} quarantined file(s)")
    remaining = store.entries()
    print(f"{len(remaining)} entries, {sum(e.nbytes for e in remaining)} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.store",
        description=(
            "Inspect and maintain the persistent Acc-SpMM plan store "
            "(cross-process plan reuse; see docs/SERVING.md)."
        ),
    )
    parser.add_argument(
        "--root",
        default=None,
        help=f"store directory (default: ${STORE_ENV} or ~/.cache/accspmm/plans)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("inspect", help="list entries with cost and size")

    pre = sub.add_parser(
        "prewarm", help="build and persist plans for named datasets"
    )
    pre.add_argument(
        "--dataset",
        action="append",
        required=True,
        help="Table-2 dataset abbreviation (repeatable), e.g. --dataset DD",
    )
    pre.add_argument("--device", default="a800", help="device spec name")
    pre.add_argument("--feature-dim", type=int, default=128)
    pre.add_argument(
        "--autotune",
        action="store_true",
        help=(
            "run the per-matrix autotuner first; its verdict is stored "
            "with the plan, so workers never re-tune"
        ),
    )

    gc = sub.add_parser(
        "gc", help="apply byte/idle-time budgets, drop temp files"
    )
    gc.add_argument("--max-bytes", type=int, default=None)
    gc.add_argument(
        "--max-idle-seconds",
        type=float,
        default=None,
        help="drop entries not loaded or written for this long (TTL)",
    )
    gc.add_argument(
        "--clear-quarantine",
        action="store_true",
        help="also delete quarantined entries",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    store = PlanStore(root=args.root)
    if args.command == "inspect":
        return _cmd_inspect(store, args)
    if args.command == "prewarm":
        return _cmd_prewarm(store, args)
    if args.command == "gc":
        return _cmd_gc(store, args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    sys.exit(main())
