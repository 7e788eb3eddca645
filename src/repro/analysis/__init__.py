"""Repo-specific static analysis: the invariants the prose promises.

``docs/CONCURRENCY.md`` states the serving layer's guarantees — every
shared field mutated only under its lock, bit-for-bit reproducible
plans, a no-pickle serialisation container — but prose enforces
nothing.  This package is the mechanical half of those promises: an
AST-based checker framework (:mod:`repro.analysis.core`) with five
repo-specific checkers (:mod:`repro.analysis.checkers`), a CLI
(``python -m repro.analysis`` / ``tools/run_analysis.py``) wired into
CI, and an env-gated *runtime* lock-order sanitizer
(:mod:`repro.analysis.runtime`) that validates the same discipline
dynamically under the 16-thread stress tests.

Checker catalog (see ``docs/ANALYSIS.md`` for the full reference):

========  ==============================================================
code      invariant
========  ==============================================================
REP101    guarded-by discipline: attributes declared in a class-level
          ``_GUARDED_BY_`` registry (or via ``#: guarded_by: <lock>``
          trailing comments) are only touched inside ``with self.<lock>``
REP102    static lock order: nested ``with <lock>`` acquisitions form a
          DAG — cycles (and same-class nesting) are deadlocks waiting
REP201    determinism: no wall clocks, unseeded RNG, ``id()``/``hash()``
          in plan-construction / fingerprint / serialisation paths
REP301    serialisation hygiene: ``repro.serve.container``,
          ``repro.serve.serial`` and ``repro.serve.frames`` never reach
          ``pickle``/``marshal``/``eval``/``exec``/``np.load``
REP401    dtype discipline: no bare ``np.zeros``/``np.array``/... in
          ``kernels/`` and ``formats/`` (the fp32/TF32 bit-for-bit
          contract depends on explicit dtypes)
========  ==============================================================

Findings are suppressed inline with ``# repro: allow(CODE)`` (same or
preceding line) or accepted wholesale via a JSON baseline file; the
repository policy is a zero-finding tree with an *empty* baseline.

This package is stdlib-only (``ast``): the CLI runs without numpy.
"""

from repro.analysis.core import (
    Finding,
    ModuleContext,
    all_checkers,
    analyze_paths,
    parse_suppressions,
)

__all__ = [
    "Finding",
    "ModuleContext",
    "all_checkers",
    "analyze_paths",
    "parse_suppressions",
]
