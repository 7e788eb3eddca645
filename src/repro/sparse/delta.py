"""Structural deltas — incremental edge edits for streaming graphs.

A :class:`GraphDelta` is a batch of edge insertions/updates and removals
against one sparse matrix.  It is the unit the streaming path moves
around: :meth:`repro.core.planner.AccPlan.apply_delta` patches a built
plan window-locally instead of replanning, the serving engines accept
deltas against a cached fingerprint, and the plan store persists each
derived plan whole, like a fresh build (see ``docs/STREAMING.md``).

Semantics (set semantics, shape-preserving):

* removals are applied first, then additions *upsert* — adding an edge
  that already exists overwrites its value;
* removing an absent edge is a no-op;
* an edge named in both lists ends up present with the added value;
* duplicates inside ``added`` resolve last-writer-wins, duplicates
  inside ``removed`` collapse;
* the matrix shape never changes — a delta cannot grow or shrink the
  vertex set, which is what keeps a base plan's reordering permutation
  valid across a whole series of deltas.

Construction canonicalises the edit lists (dedup + sort by coordinate),
so equal edits compare and serialise identically regardless of the
order a client emitted them in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.sparse.csr import CSRMatrix


def _canonical_pairs(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray | None
) -> tuple[np.ndarray, ...]:
    """Dedup coordinate pairs, keeping the *last* occurrence, and sort
    by (row, col) — the canonical form construction normalises to."""
    if rows.size == 0:
        out = (rows, cols) if vals is None else (rows, cols, vals)
        return out
    # stable sort by (row, col); among equal coordinates the original
    # order survives, so taking each group's last entry is last-writer-wins
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    keep = np.empty(r.size, dtype=bool)
    keep[-1] = True
    np.logical_or(r[:-1] != r[1:], c[:-1] != c[1:], out=keep[:-1])
    if vals is None:
        return r[keep], c[keep]
    return r[keep], c[keep], vals[order][keep]


@dataclass(frozen=True)
class GraphDelta:
    """A canonicalised batch of edge edits against one matrix.

    Attributes
    ----------
    added_rows, added_cols, added_vals:
        Upserted edges ``(row, col) -> value`` (``int64``/``float32``),
        deduplicated last-writer-wins and sorted by coordinate.
    removed_rows, removed_cols:
        Deleted edges, deduplicated and sorted by coordinate.
    """

    added_rows: np.ndarray
    added_cols: np.ndarray
    added_vals: np.ndarray
    removed_rows: np.ndarray
    removed_cols: np.ndarray

    def __post_init__(self) -> None:
        ar = np.ascontiguousarray(self.added_rows, dtype=np.int64)
        ac = np.ascontiguousarray(self.added_cols, dtype=np.int64)
        av = np.ascontiguousarray(self.added_vals, dtype=np.float32)
        rr = np.ascontiguousarray(self.removed_rows, dtype=np.int64)
        rc = np.ascontiguousarray(self.removed_cols, dtype=np.int64)
        if not (ar.ndim == ac.ndim == av.ndim == rr.ndim == rc.ndim == 1):
            raise ValidationError("delta edge arrays must be 1-D")
        if not (ar.size == ac.size == av.size):
            raise ValidationError(
                "added rows/cols/vals must have equal lengths"
            )
        if rr.size != rc.size:
            raise ValidationError("removed rows/cols must have equal lengths")
        for arr in (ar, ac, rr, rc):
            if arr.size and arr.min() < 0:
                raise ValidationError("delta coordinates must be >= 0")
        ar, ac, av = _canonical_pairs(ar, ac, av)
        rr, rc = _canonical_pairs(rr, rc, None)
        object.__setattr__(self, "added_rows", ar)
        object.__setattr__(self, "added_cols", ac)
        object.__setattr__(self, "added_vals", av)
        object.__setattr__(self, "removed_rows", rr)
        object.__setattr__(self, "removed_cols", rc)

    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(added=None, removed=None) -> "GraphDelta":
        """Build a delta from edge lists.

        ``added`` is an iterable of ``(row, col, value)`` triples or an
        ``(k, 3)`` array; ``removed`` an iterable of ``(row, col)``
        pairs or an ``(m, 2)`` array.  Either may be ``None``/empty.
        ``added`` may also be a ready :class:`GraphDelta`, returned as
        is; passing ``removed`` with it raises
        :class:`~repro.errors.ValidationError`.
        """
        if isinstance(added, GraphDelta):
            if removed is not None:
                raise ValidationError(
                    "pass either a GraphDelta or added/removed edge "
                    "lists, not both"
                )
            return added
        a = np.asarray(
            added if added is not None else np.zeros((0, 3), dtype=np.float64)
        )
        r = np.asarray(
            removed if removed is not None else np.zeros((0, 2), dtype=np.int64)
        )
        if a.size == 0:
            a = a.reshape(0, 3)
        if r.size == 0:
            r = r.reshape(0, 2)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValidationError(
                f"added must be (k, 3) [row, col, value]; got {a.shape}"
            )
        if r.ndim != 2 or r.shape[1] != 2:
            raise ValidationError(
                f"removed must be (m, 2) [row, col]; got {r.shape}"
            )
        return GraphDelta(
            added_rows=a[:, 0].astype(np.int64),
            added_cols=a[:, 1].astype(np.int64),
            added_vals=a[:, 2].astype(np.float32),
            removed_rows=r[:, 0].astype(np.int64),
            removed_cols=r[:, 1].astype(np.int64),
        )

    @staticmethod
    def from_arrays(arrays: dict, prefix: str = "delta") -> "GraphDelta":
        """Inverse of :meth:`as_arrays` (container deserialisation)."""
        return GraphDelta(
            added_rows=np.asarray(arrays[f"{prefix}.added_rows"]),
            added_cols=np.asarray(arrays[f"{prefix}.added_cols"]),
            added_vals=np.asarray(arrays[f"{prefix}.added_vals"]),
            removed_rows=np.asarray(arrays[f"{prefix}.removed_rows"]),
            removed_cols=np.asarray(arrays[f"{prefix}.removed_cols"]),
        )

    def as_arrays(self, prefix: str = "delta") -> dict:
        """Name -> array mapping for the serialisation container."""
        return {
            f"{prefix}.added_rows": self.added_rows,
            f"{prefix}.added_cols": self.added_cols,
            f"{prefix}.added_vals": self.added_vals,
            f"{prefix}.removed_rows": self.removed_rows,
            f"{prefix}.removed_cols": self.removed_cols,
        }

    # ------------------------------------------------------------------
    @property
    def n_added(self) -> int:
        return int(self.added_rows.size)

    @property
    def n_removed(self) -> int:
        return int(self.removed_rows.size)

    @property
    def is_empty(self) -> bool:
        return self.n_added == 0 and self.n_removed == 0

    def touched_rows(self) -> np.ndarray:
        """Sorted unique row indices any edit names."""
        return np.unique(
            np.concatenate([self.added_rows, self.removed_rows])
        )

    def validate_for(self, n_rows: int, n_cols: int) -> None:
        """Raise unless every coordinate fits an ``n_rows x n_cols``
        matrix (a delta never changes the shape)."""
        for rows, cols, what in (
            (self.added_rows, self.added_cols, "added"),
            (self.removed_rows, self.removed_cols, "removed"),
        ):
            if rows.size == 0:
                continue
            if rows.max() >= n_rows or cols.max() >= n_cols:
                raise ValidationError(
                    f"{what} edge out of range for a "
                    f"{n_rows}x{n_cols} matrix"
                )

    def permuted(self, row_rank: np.ndarray, col_rank=None) -> "GraphDelta":
        """The same edits in relabelled coordinates.

        ``row_rank[old] = new`` maps rows (a reordering's
        :attr:`~repro.reorder.base.Permutation.rank`); ``col_rank``
        likewise maps columns when given (bilateral orderings).
        Re-canonicalises, so the result is sorted in the new space.
        """
        ccol = (lambda c: c) if col_rank is None else (
            lambda c: np.asarray(col_rank)[c]
        )
        row_rank = np.asarray(row_rank)
        return GraphDelta(
            added_rows=row_rank[self.added_rows],
            added_cols=ccol(self.added_cols),
            added_vals=self.added_vals,
            removed_rows=row_rank[self.removed_rows],
            removed_cols=ccol(self.removed_cols),
        )

    # ------------------------------------------------------------------
    def apply_to(self, csr: CSRMatrix) -> CSRMatrix:
        """The edited matrix (same shape; see the module docstring).

        One O(nnz) merge, no global re-sort: existing entries are
        already coordinate-ordered, removals/overwrites are masked out
        by a vectorised key lookup, and the (canonically sorted)
        additions merge in via ``searchsorted`` + ``insert``.
        """
        self.validate_for(csr.n_rows, csr.n_cols)
        if self.is_empty:
            return csr
        n_cols = np.int64(csr.n_cols)
        nnz_rows = np.repeat(
            np.arange(csr.n_rows, dtype=np.int64), csr.row_lengths()
        )
        keys = nnz_rows * n_cols + csr.indices  # globally ascending
        # mask out removed edges and to-be-overwritten targets in one pass
        drop_keys = np.concatenate(
            [
                self.removed_rows * n_cols + self.removed_cols,
                self.added_rows * n_cols + self.added_cols,
            ]
        )
        pos = np.searchsorted(keys, drop_keys)
        found = pos < keys.size
        found[found] &= keys[pos[found]] == drop_keys[found]
        keep = np.ones(keys.size, dtype=bool)
        keep[pos[found]] = False
        kept_keys = keys[keep]
        add_keys = self.added_rows * n_cols + self.added_cols
        ins = np.searchsorted(kept_keys, add_keys)
        merged_keys = np.insert(kept_keys, ins, add_keys)
        indices = np.insert(csr.indices[keep], ins, self.added_cols)
        vals = np.insert(csr.vals[keep], ins, self.added_vals)
        counts = np.bincount(
            merged_keys // n_cols if merged_keys.size else merged_keys,
            minlength=csr.n_rows,
        )
        indptr = np.zeros(csr.n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(csr.n_rows, csr.n_cols, indptr, indices, vals)
