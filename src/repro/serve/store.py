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
* **Cost-aware admission** — each entry's header records its measured
  ``build_seconds``; :meth:`put` refuses plans cheaper to rebuild than
  ``admit_min_seconds``, and :meth:`gc` evicts cheapest-first (breaking
  ties towards least-recently-used mtimes) until ``max_bytes`` holds, so
  expensive reorder+tile plans survive byte-budget pressure.
* **TTL / staleness** — entries carry a ``last_used`` recency signal
  (the newer of the file mtime, refreshed on every successful load, and
  the ``saved_at`` wall clock persisted in the v2 container header);
  :meth:`gc` with ``max_idle_seconds`` drops entries whose matrices have
  stopped arriving, and never one used since the cutoff.
* **Directory sharding** — with ``shards=N`` entries are spread across
  ``shard-00/…shard-NN/`` subdirectories (addressed by digest, so every
  worker agrees), keeping per-directory entry counts and rename traffic
  low when many hosts serve from one shared tree.  Maintenance
  (``entries``/``gc``/``inspect``) always scans both layouts, so a tree
  can be inspected or migrated regardless of the opener's shard count.

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


def _read_kind(path: Path) -> str | None:
    """Container kind of the file at ``path`` (header-only read).

    Raises :class:`StoreError` for unreadable containers; callers
    re-checking an entry mid-gc treat that the same as "not a delta"."""
    from repro.serve import serial

    header = serial.read_header_from_file(path)
    kind = header.get("kind")
    return str(kind) if kind is not None else None


@dataclass
class StoreStats:
    """Counters for one :class:`PlanStore` lifetime (this process)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: puts refused by the cost-aware admission threshold
    rejected_puts: int = 0
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
            "rejected_puts": self.rejected_puts,
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
    #: container kind (``"accplan"`` or ``"accdelta"``); ``None`` when
    #: the header is unreadable
    kind: str | None = field(default=None)
    #: the reader's clock at scan time, stamped by
    #: :meth:`PlanStore.entries` — the upper clamp for :attr:`last_used`
    now: float | None = field(default=None)

    @property
    def build_seconds(self) -> float:
        if self.meta is None:
            return 0.0
        return float(self.meta.get("build_seconds", 0.0))

    @property
    def is_delta(self) -> bool:
        return self.kind == "accdelta"

    @property
    def chain_depth(self) -> int:
        """Links between this entry and the full plan at its chain root
        (0 for full plans and unreadable headers)."""
        if self.meta is None:
            return 0
        try:
            return int(self.meta.get("depth", 0))
        except (TypeError, ValueError):
            return 0

    @property
    def last_used(self) -> float:
        """Recency signal for TTL gc, normalised to the reader's clock
        domain.

        Two raw signals exist: the file mtime (local filesystem clock,
        refreshed on every successful load) and the ``saved_at`` wall
        clock persisted in the v2 header (the *writer's* clock — robust
        against tree copies that reset mtimes; 0 when a malformed header
        lacks it).  They live in different clock domains, so a signal
        that runs *ahead* of :attr:`now` (scan time) is untrusted and
        discarded rather than merely clamped: a skewed writer's
        ``saved_at`` would otherwise pin idle time at zero forever,
        making the entry immortal to every ``max_idle_seconds`` cutoff.
        The newest surviving in-domain signal wins; when every signal is
        ahead of the reader (the local clock itself stepped backwards),
        fall back to scan time — eviction then waits for the local clock
        to recover, which is the conservative failure mode."""
        saved_at = 0.0
        if self.meta is not None:
            try:
                saved_at = float(self.meta.get("saved_at", 0.0))
            except (TypeError, ValueError):
                saved_at = 0.0
        if self.now is None:
            return max(self.mtime, saved_at)
        in_domain = [t for t in (self.mtime, saved_at) if t <= self.now]
        return max(in_domain) if in_domain else self.now


class PlanStore:
    """A directory of serialised plans, one file per fingerprint.

    Parameters
    ----------
    root:
        Store directory (created on first use).  Defaults to
        :func:`default_store_root`.
    max_bytes:
        Optional byte budget enforced after every :meth:`put` by running
        :meth:`gc` (cheapest-to-rebuild entries evicted first).
    admit_min_seconds:
        Cost-aware admission threshold: plans whose recorded
        ``build_seconds`` is below it are not persisted (rebuilding them
        is cheaper than a disk round-trip is worth).  0 admits all.
    mmap:
        Map each entry file read-only once and load its arrays as views
        into that map (default), so concurrent workers share pages and a
        loaded plan holds one descriptor; ``False`` reads entries fully
        into memory (use when the store directory may be deleted while
        loaded plans are still serving).
    shards:
        Optional directory sharding: entries are spread across
        ``shard-00/…`` subdirectories addressed by digest, so many hosts
        writing one shared tree do not contend on a single directory's
        rename traffic.  Every opener of a tree must use the same shard
        count for :meth:`get`/:meth:`put` to resolve the same paths
        (maintenance scans both layouts regardless).  ``None`` keeps the
        flat single-directory layout.
    max_idle_seconds:
        Optional TTL: :meth:`gc` (run after every :meth:`put` when any
        budget is configured) drops entries idle longer than this —
        idleness measured on :attr:`StoreEntry.last_used`, so an entry
        loaded (or written) since the cutoff is never dropped.
    compact_depth:
        Delta chains this long or longer are rewritten as full plans
        during :meth:`gc` (``None`` disables compaction there; the
        depth cap on :meth:`put_delta` still applies).
    clock:
        The wall clock (``time.time``-compatible) used for TTL
        reference times and temp-file reaping.  Injectable so tests can
        drive gc with skewed or frozen clocks; entries' ``saved_at``
        headers always come from the *writer's* clock and are clamped
        into this reader-side domain by :attr:`StoreEntry.last_used`.

    All methods are safe to call from concurrent threads: the filesystem
    operations are atomic (write-temp-then-rename) and the in-process
    counters are lock-protected.
    """

    SUFFIX = ".plan"
    #: temp files older than this are considered crashed-writer litter
    #: and reaped by :meth:`gc`; younger ones may be mid-write
    TMP_REAP_SECONDS = 3600.0
    #: :meth:`put_delta` refuses links that would make a chain longer
    #: than this — load cost grows with depth, so past it the caller
    #: falls back to persisting a full plan (resetting the chain)
    MAX_CHAIN_DEPTH = 8

    def __init__(
        self,
        root: str | Path | None = None,
        max_bytes: int | None = None,
        admit_min_seconds: float = 0.0,
        mmap: bool = True,
        shards: int | None = None,
        max_idle_seconds: float | None = None,
        compact_depth: int | None = 4,
        clock=time.time,
    ) -> None:
        if shards is not None and not 1 <= int(shards) <= 4096:
            raise ValueError(f"store shards must be in 1..4096; got {shards}")
        if max_idle_seconds is not None and max_idle_seconds <= 0:
            raise ValueError("store max_idle_seconds must be > 0 (or None)")
        if compact_depth is not None and compact_depth < 1:
            raise ValueError("store compact_depth must be >= 1 (or None)")
        self.root = Path(root) if root is not None else default_store_root()
        self.max_bytes = max_bytes
        self.admit_min_seconds = float(admit_min_seconds)
        self.mmap = mmap
        self.shards = int(shards) if shards is not None else None
        self.max_idle_seconds = max_idle_seconds
        self.compact_depth = (
            int(compact_depth) if compact_depth is not None else None
        )
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
        return PlanStore._digest_parts(
            fp.full, device, config_fingerprint(config)
        )

    @staticmethod
    def _digest_parts(fp_parts, device: str, config_fp: str) -> str:
        """:meth:`digest` from pre-computed parts — what chain
        resolution uses, since an accdelta header stores the base's
        fingerprint fields and the config *fingerprint* (not the
        config object) and must resolve the identical path."""
        tag = "|".join(
            [*(str(part) for part in fp_parts), str(device), str(config_fp)]
        )
        return _digest(tag.encode())

    @staticmethod
    def _header_digest(meta: dict) -> str | None:
        """The digest an accdelta header's *base* resolves to, or
        ``None`` when the header lacks the lineage fields."""
        try:
            base_fp = MatrixFingerprint.from_record(meta["base_fingerprint"])
            return PlanStore._digest_parts(
                base_fp.full, str(meta["device"]), str(meta["config_fp"])
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _dir_for(self, digest: str) -> Path:
        """The directory an entry lives in (a ``shard-NN/`` when sharded).

        Addressed by digest so every worker — on any host — agrees on
        the placement without coordination."""
        if self.shards is None:
            return self.root
        index = int(digest[:8], 16) % self.shards
        return self.root / f"shard-{index:02d}"

    def path_for(self, digest: str) -> Path:
        return self._dir_for(digest) / f"{digest}{self.SUFFIX}"

    def _entry_dirs(self) -> list[Path]:
        """Every directory that may hold entries: the flat root plus any
        ``shard-*/`` subdirectories that exist on disk — *not* just the
        configured layout, so maintenance sees a mixed or foreign tree."""
        dirs = [self.root] if self.root.is_dir() else []
        if self.root.is_dir():
            dirs += sorted(
                p for p in self.root.glob("shard-*") if p.is_dir()
            )
        return dirs

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
        (the recency signal :meth:`gc` ties on).
        """
        path = self.path_for(self.digest(fp, device, config))
        plan = self._load(path, expect_fp=fp)
        if plan is None:
            self._count("misses")
            return None
        self._count("hits")
        return plan

    def _load(
        self,
        path: Path,
        expect_fp: MatrixFingerprint | None = None,
        _depth: int = 0,
    ):
        """Load one entry file; quarantine and return ``None`` on failure.

        An ``accdelta`` entry resolves its whole chain: the base entry
        loads recursively (each link a plan or a further delta),
        :meth:`~repro.core.planner.AccPlan.apply_delta` replays the
        edits, and the resulting matrix's fingerprint is verified
        against the link's header before anything is returned — a chain
        can be slow, never wrong.  Every link touched refreshes its
        mtime, so a live chain's links age together under TTL gc.

        A resource failure (``MemoryError``, or an ``OSError`` out of
        descriptors or memory) quarantines nothing: it rises through the
        chain's links to the outermost load, which counts one
        ``load_errors`` and returns ``None``.
        """
        from repro.serve import serial

        if not path.is_file():
            return None
        try:
            header, arrays = serial.unpack_container(
                path=path
            ) if self.mmap else serial.unpack_container(path.read_bytes())
            kind = header.get("kind")
            if kind == "accdelta":
                plan = self._resolve_delta(path, header, arrays, _depth)
            elif kind == "accplan":
                plan = serial.plan_from_payload(header["meta"], arrays)
            else:
                raise StoreError(f"store entry is a {kind!r} container")
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
            if not _is_resource_failure(exc):
                self._quarantine(path, repr(exc))
            elif _depth:
                raise  # a chain link is fine; its outermost load counts
            else:
                self._count("load_errors")
            return None
        try:
            os.utime(path)  # recency for gc; best-effort
        except OSError:
            pass
        return plan

    def _resolve_delta(self, path: Path, header: dict, arrays: dict, depth: int):
        """Materialise the plan an accdelta entry describes (one link).

        Raises :class:`StoreError` — the caller quarantines — when the
        chain is too deep, the base is missing/bad, or the replayed
        matrix does not hash to the fingerprint this link recorded.
        """
        from repro.serve import serial
        from repro.serve.fingerprint import fingerprint

        if depth >= self.MAX_CHAIN_DEPTH:
            raise StoreError(
                f"delta chain deeper than MAX_CHAIN_DEPTH="
                f"{self.MAX_CHAIN_DEPTH} (cycle or unbounded lineage)"
            )
        meta = header["meta"]
        base_digest = self._header_digest(meta)
        if base_digest is None:
            raise StoreError("accdelta header missing lineage fields")
        base_fp = MatrixFingerprint.from_record(meta["base_fingerprint"])
        base = self._load(
            self.path_for(base_digest), expect_fp=base_fp, _depth=depth + 1
        )
        if base is None:
            raise StoreError(
                f"delta chain base {base_digest[:12]} missing or invalid"
            )
        delta = serial.delta_from_payload(meta, arrays)
        plan = base.apply_delta(delta)
        stored = MatrixFingerprint.from_record(meta["fingerprint"])
        if fingerprint(plan.csr) != stored:
            raise StoreError(
                "delta replay produced a different matrix than this "
                "link recorded (corrupt chain)"
            )
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

        Best-effort: admission rejections and I/O errors return False —
        the serving path never depends on persistence succeeding.
        """
        if plan.build_seconds < self.admit_min_seconds:
            self._count("rejected_puts")
            return False
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
        # temp file in the *entry's own* directory: os.replace stays
        # same-directory (atomic, no cross-shard rename traffic)
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

    def put_delta(
        self,
        base_fp: MatrixFingerprint,
        new_fp: MatrixFingerprint,
        device: str,
        config,
        delta,
        build_seconds: float = 0.0,
    ) -> bool:
        """Persist one delta-chain link; ``True`` if stored.

        The link lives at the *edited* matrix's content address — a
        reader asking :meth:`get` for the new fingerprint resolves the
        chain transparently.  Returns ``False`` (so callers fall back
        to a full :meth:`put`, resetting the chain) when the base entry
        is absent or unreadable, the chain would exceed
        :data:`MAX_CHAIN_DEPTH`, or the write fails.  Admission is not
        cost-gated like :meth:`put`: a link is small and only ever
        written for plans whose base was already worth persisting.
        """
        from repro.serve import serial

        base_path = self.path_for(self.digest(base_fp, device, config))
        try:
            header = serial.read_header_from_file(base_path)
        except (StoreError, OSError):
            return False
        if header.get("kind") == "accdelta":
            try:
                depth = int(header["meta"].get("depth", 0)) + 1
            except (KeyError, TypeError, ValueError):
                return False
        elif header.get("kind") == "accplan":
            depth = 1
        else:
            return False
        if depth > self.MAX_CHAIN_DEPTH:
            return False
        try:
            data = serial.delta_to_bytes(
                delta,
                base_fp,
                new_fp,
                str(device),
                config,
                float(build_seconds),
                depth,
            )
            self._publish(
                self.path_for(self.digest(new_fp, device, config)), data
            )
        except (OSError, StoreError):
            self._count("put_errors")
            return False
        self._count("puts")
        if self.max_bytes is not None or self.max_idle_seconds is not None:
            self.gc(self.max_bytes)
        return True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self, now: float | None = None) -> list[StoreEntry]:
        """All decodable entries (header-only scan, payloads untouched).

        Each entry is stamped with ``now`` (default: this store's
        clock), the domain :attr:`StoreEntry.last_used` clamps into.
        """
        from repro.serve import serial

        now = float(self.clock()) if now is None else float(now)
        out = []
        paths = sorted(
            path
            for d in self._entry_dirs()
            for path in d.glob(f"*{self.SUFFIX}")
        )
        for path in paths:
            if path.name.startswith(".tmp-"):
                continue
            try:
                st = path.stat()
            except OSError:
                continue  # raced with a concurrent gc/quarantine
            try:
                header = serial.read_header_from_file(path)
                meta = header.get("meta", {})
                kind = header.get("kind")
            except (StoreError, OSError, ValueError):
                meta = None
                kind = None
            out.append(
                StoreEntry(
                    digest=path.stem,
                    path=path,
                    nbytes=st.st_size,
                    mtime=st.st_mtime,
                    meta=meta,
                    kind=kind,
                    now=now,
                )
            )
        return out

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries())

    def gc(
        self,
        max_bytes: int | None = None,
        max_idle_seconds: float | None = None,
        now: float | None = None,
        compact_depth: int | None = None,
    ) -> list[StoreEntry]:
        """Drop stale entries, then evict down to ``max_bytes``; returns
        everything removed.

        Three passes over one directory scan:

        1. **Chain compaction** — delta chains of ``compact_depth`` or
           more links are rewritten in place as full plans (load cost
           grows with depth; compaction also severs the entry's
           dependence on its base, freeing the base for eviction).
        2. **TTL** — entries whose :attr:`StoreEntry.last_used` is older
           than ``max_idle_seconds`` (their matrices stopped arriving)
           are dropped regardless of the byte budget.  An entry loaded
           or written since the cutoff is never touched by this pass.
        3. **Byte budget** — cost-aware: survivors are ranked by recorded
           ``build_seconds`` ascending (cheapest to rebuild goes first),
           ties — and unreadable headers, which rank cheapest — broken
           towards the oldest ``last_used``.

        The eviction passes never orphan a chain: before removing an
        entry that surviving deltas use as their base, those direct
        dependents are compacted to full plans; if that fails the base
        is kept.

        ``None`` arguments fall back to the store's configured budgets;
        with neither budget, gc only removes leftover temp files.
        ``now`` overrides the TTL reference time (tests); it defaults to
        this store's injectable clock, the one domain every entry's
        ``last_used`` is clamped into.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        max_idle = (
            self.max_idle_seconds if max_idle_seconds is None
            else max_idle_seconds
        )
        min_depth = (
            self.compact_depth if compact_depth is None else compact_depth
        )
        now = float(self.clock()) if now is None else float(now)
        # reap temp files from *crashed* writers only: an age threshold
        # keeps gc (possibly run by another worker's put) from deleting
        # a temp file a live writer is between mkstemp and os.replace on
        cutoff = float(self.clock()) - self.TMP_REAP_SECONDS
        for d in self._entry_dirs():
            for tmp in d.glob(f".tmp-*{self.SUFFIX}"):
                try:
                    if tmp.stat().st_mtime < cutoff:
                        tmp.unlink()
                except OSError:
                    pass
        entries = self.entries(now=now)
        if min_depth is not None:
            compacted = False
            for entry in entries:
                if entry.is_delta and entry.chain_depth >= min_depth:
                    compacted |= self._compact_entry(entry.path)
            if compacted:
                entries = self.entries(now=now)  # sizes/kinds changed
        if budget is None and max_idle is None:
            return []
        # base digest -> direct dependents still on disk; consulted (and
        # maintained) by both eviction passes so no chain is orphaned
        dependents: dict[str, list[StoreEntry]] = {}
        for entry in entries:
            if entry.is_delta and entry.meta is not None:
                base_digest = self._header_digest(entry.meta)
                if base_digest is not None:
                    dependents.setdefault(base_digest, []).append(entry)

        def release(entry: StoreEntry) -> bool:
            """Sever any surviving dependents of ``entry`` (compacting
            them to full plans); False keeps the entry on disk.

            A compacted dependent grows on disk without adjusting the
            byte pass's running total — the next gc sees true sizes.
            """
            for dep in dependents.get(entry.digest, []):
                if dep.path.is_file() and dep.kind == "accdelta":
                    try:
                        still_delta = _read_kind(dep.path) == "accdelta"
                    except (StoreError, OSError):
                        still_delta = False
                    if still_delta and not self._compact_entry(dep.path):
                        return False
            return True

        evicted: list[StoreEntry] = []
        if max_idle is not None:
            idle_cutoff = now - max_idle
            fresh = []
            for entry in entries:
                if entry.last_used >= idle_cutoff:
                    fresh.append(entry)
                    continue
                if not release(entry):
                    fresh.append(entry)  # keep: a dependent needs it
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
                entries, key=lambda e: (e.build_seconds, e.last_used)
            ):
                if total <= budget:
                    break
                if not release(entry):
                    continue
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

    def _compact_entry(self, path: Path) -> bool:
        """Rewrite one accdelta entry in place as a full accplan.

        Resolves the chain (with full fingerprint verification), then
        atomically replaces the link file; the entry keeps its content
        address, so readers and deeper dependents are unaffected.
        """
        plan = self._load(path)
        if plan is None:
            return False  # _load quarantined a bad link or counted a load error
        try:
            self._publish(path, plan.to_bytes())
        except (OSError, StoreError):
            self._count("put_errors")
            return False
        return True

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
            "shards": self.shards,
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
            "shards": self.shards,
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
        # v3 header block: the autotuner's verdict (absent on untuned
        # plans)
        tuned = meta.get("tuned")
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
        if args.prepare:
            p.prepare(args.feature_dim)
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
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "directory shard count (shard-00/..); must match the serving "
            "fleet's setting for prewarm to write where workers read"
        ),
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
        "--prepare",
        action="store_true",
        help="also compile the executor so its structural state is stored",
    )
    pre.add_argument(
        "--autotune",
        action="store_true",
        help=(
            "run the per-matrix autotuner first; its verdict is stored "
            "with the plan (format v3), so workers never re-tune"
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
    store = PlanStore(root=args.root, shards=args.shards)
    if args.command == "inspect":
        return _cmd_inspect(store, args)
    if args.command == "prewarm":
        return _cmd_prewarm(store, args)
    if args.command == "gc":
        return _cmd_gc(store, args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    sys.exit(main())
