"""REP201 — determinism lint for plan/fingerprint/serialisation paths.

Acc-SpMM's value proposition is bit-identical plan reuse: the same
matrix, device and config must produce the same plan bytes in any
process, on any day.  Wall clocks, the process-salted ``hash()``,
``id()``, and unseeded random generators all break that silently, so
they are banned outright in the paths that construct, fingerprint, or
serialise plans.

The *injectable clock* pattern is exempt by construction: only calls
are flagged, so binding a reference —

    _wall_clock = time.time          # module-level, monkeypatchable
    clock: object = time.monotonic   # dataclass field default

— passes, while a direct ``time.time()`` call does not.  Code that
needs the time takes it through the injected name (``self.clock()``,
``_wall_clock()``), which tests and determinism audits can replace.
``np.random.default_rng(seed)`` with an explicit seed argument is
allowed; argument-less ``default_rng()`` is not.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    dotted_name,
    register,
)

#: the paths whose output must be reproducible bit-for-bit
DETERMINISTIC_PATHS = (
    "repro/core/planner.py",
    "repro/formats/",
    "repro/serve/container.py",
    "repro/serve/fingerprint.py",
    "repro/serve/serial.py",
)

BANNED_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}
BANNED_PREFIXES = ("np.random.", "numpy.random.", "random.", "secrets.")
BANNED_BUILTINS = {"id", "hash"}


@register
class DeterminismChecker(Checker):
    code = "REP201"
    name = "determinism"
    description = (
        "no wall clocks, unseeded RNG, or identity/salted hashes in "
        "plan-construction, fingerprint, and serialisation paths"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(DETERMINISTIC_PATHS)

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            reason = self._banned_reason(node)
            if reason is not None:
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        code=self.code,
                        message=reason,
                    )
                )
        return findings

    def _banned_reason(self, call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Name):
            if call.func.id in BANNED_BUILTINS:
                return (
                    f"`{call.func.id}()` is process-dependent; plan and "
                    f"fingerprint paths must be reproducible across "
                    f"processes"
                )
            return None
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        if dotted in BANNED_CALLS:
            return (
                f"`{dotted}()` is non-deterministic here; route it "
                f"through an injectable clock (bind the function, call "
                f"the binding)"
            )
        for prefix in BANNED_PREFIXES:
            if dotted.startswith(prefix):
                if dotted.endswith(".default_rng") and call.args:
                    return None  # explicitly seeded generator
                return (
                    f"`{dotted}()` draws unseeded randomness in a "
                    f"deterministic path; use a seeded generator from "
                    f"repro.util.rng"
                )
        return None
