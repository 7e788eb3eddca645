"""Content-addressed fingerprints of sparse matrices.

The serving layer keys cached plans by *content*, not identity: two
``CSRMatrix`` objects holding the same arrays (e.g. rebuilt from the same
file on different requests) must map to the same plan.  The fingerprint
separates the **structure** (shape + indptr + indices — everything the
reordering, tiling and schedule depend on) from the **values**, because a
value-only change invalidates only the packed value array, not the
expensive structural plan.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass

from repro.errors import ValidationError
from repro.serve.container import is_int
from repro.sparse.csr import CSRMatrix

#: a digest field of a fingerprint record: blake2b-128 as lowercase hex
_DIGEST_RE = re.compile(r"[0-9a-f]{32}")


def _digest(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class MatrixFingerprint:
    """Identity of a CSR matrix for plan-cache lookup.

    ``structure`` hashes shape, ``indptr`` and ``indices``;
    ``values`` hashes the value array alone.  Two matrices with equal
    ``structure`` can share every structural plan artifact (reordering,
    tiling, TB schedule) and differ only in the packed values.
    """

    n_rows: int
    n_cols: int
    nnz: int
    structure: str
    values: str

    @property
    def full(self) -> tuple:
        """Hashable key identifying structure *and* values."""
        return (self.n_rows, self.n_cols, self.nnz, self.structure, self.values)

    @property
    def structural(self) -> tuple:
        """Hashable key identifying the structure only."""
        return (self.n_rows, self.n_cols, self.nnz, self.structure)

    def record(self) -> dict:
        """The JSON-encodable record of this fingerprint: what wire
        responses report, ``delta`` requests name their base with, and
        store headers carry (``fingerprint``, ``base_fingerprint``)."""
        return {
            "structure": self.structure,
            "values": self.values,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "nnz": self.nnz,
        }

    @classmethod
    def from_record(cls, obj) -> "MatrixFingerprint":
        """Inverse of :meth:`record`; raises
        :class:`~repro.errors.ValidationError` unless ``obj`` is a dict
        with ``n_rows``/``n_cols``/``nnz`` ints that are not bools and
        both digests as 32 lowercase hex characters."""
        if not isinstance(obj, dict):
            raise ValidationError(
                "a fingerprint record is a dict of "
                "structure/values/n_rows/n_cols/nnz"
            )
        try:
            sizes = [obj[k] for k in ("n_rows", "n_cols", "nnz")]
            fp = cls(*sizes, structure=obj["structure"], values=obj["values"])
        except KeyError as exc:
            raise ValidationError(
                f"malformed fingerprint record: {exc!r}"
            ) from exc
        if not all(is_int(n) for n in sizes):
            raise ValidationError(
                f"fingerprint record sizes {sizes!r} are not all ints"
            )
        for digest in (fp.structure, fp.values):
            if not isinstance(digest, str) or not _DIGEST_RE.fullmatch(digest):
                raise ValidationError(
                    f"fingerprint digest {digest!r} is not 32 lowercase "
                    "hex characters"
                )
        return fp


def fingerprint(csr: CSRMatrix) -> MatrixFingerprint:
    """Fingerprint a CSR matrix by content.

    The first call on a matrix object makes one pass over its arrays and
    stores the result on the object; every later call returns it without
    reading the arrays.  That is sound because a ``CSRMatrix``'s arrays
    are read-only.  Threads racing on a first call each compute the same
    value and store an equal one, so the memo needs no lock.
    """
    fp = csr._fingerprint
    if fp is None:
        shape_tag = f"{csr.n_rows}x{csr.n_cols}".encode()
        fp = MatrixFingerprint(
            n_rows=csr.n_rows,
            n_cols=csr.n_cols,
            nnz=csr.nnz,
            structure=_digest(
                shape_tag, csr.indptr.tobytes(), csr.indices.tobytes()
            ),
            values=_digest(csr.vals.tobytes()),
        )
        object.__setattr__(csr, "_fingerprint", fp)
    return fp


def config_fingerprint(config) -> str:
    """Stable content hash of a pipeline configuration.

    Keys on-disk store entries alongside the matrix fingerprint and
    device: two processes running the same :class:`~repro.core.config.
    AccConfig` values (regardless of object identity) resolve to the
    same persisted plan.  Any dataclass with JSON-representable fields
    works; unknown field types are stringified, which keeps the digest
    stable but treats such fields by their ``repr``.
    """
    payload = json.dumps(asdict(config), sort_keys=True, default=repr)
    return _digest(payload.encode())
