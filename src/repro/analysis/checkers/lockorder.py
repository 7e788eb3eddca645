"""REP102 — static lock-order extraction and cycle detection.

Every nested ``with <lock>`` acquisition contributes a directed edge
``outer -> inner`` to a global (cross-module) order graph; a cycle in
that graph is a deadlock waiting for the right thread interleaving.
Lock names are qualified by their enclosing class (``SpMMEngine._lock``,
``PlanStore._stats_lock``) so identically-named locks on different
classes stay distinct — matching the naming convention the runtime
sanitizer's :class:`~repro.analysis.runtime.TrackedLock` uses, so a
static edge and a dynamic edge for the same pair of locks read the same.

Acquiring a lock while *already holding one of the same name* (two
instances of one lock class, e.g. two shards' ``_lock``) is flagged
immediately: name-level ordering cannot prove two same-class locks are
ranked, so such nesting is a deadlock risk by construction.

Only names that look like locks participate (``*lock`` / ``*_lock``,
case-insensitive); ``with open(...)`` or ``with timer`` are ignored.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    is_self_attr,
    register,
)

LOCK_NAME_RE = re.compile(r"lock$", re.IGNORECASE)


@register
class LockOrderChecker(Checker):
    code = "REP102"
    name = "lock-order"
    description = (
        "nested lock acquisitions form a global order graph; cycles and "
        "same-name nesting are flagged"
    )

    def __init__(self) -> None:
        #: (outer, inner) -> (relpath, line) of the first edge witness
        self.edges: dict[tuple[str, str], tuple[str, int]] = {}

    # ------------------------------------------------------------------
    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        self._walk(ctx.tree, (), None, ctx, findings)
        return findings

    def _lock_names(
        self, node: ast.With | ast.AsyncWith, scope: str | None
    ) -> list[str]:
        names = []
        for item in node.items:
            expr = item.context_expr
            name = None
            if is_self_attr(expr):
                name = expr.attr
            elif isinstance(expr, ast.Name):
                name = expr.id
            if name is not None and LOCK_NAME_RE.search(name):
                names.append(f"{scope}.{name}" if scope else name)
        return names

    def _walk(
        self,
        node: ast.AST,
        held: tuple[str, ...],
        scope: str | None,
        ctx: ModuleContext,
        findings: list[Finding],
    ) -> None:
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                self._walk(child, held, node.name, ctx, findings)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = self._lock_names(node, scope)
            for name in acquired:
                for outer in held:
                    if outer == name:
                        findings.append(
                            Finding(
                                path=ctx.relpath,
                                line=node.lineno,
                                col=node.col_offset,
                                code=self.code,
                                message=(
                                    f"acquires `{name}` while already "
                                    f"holding a lock of the same name — "
                                    f"same-class lock nesting has no "
                                    f"defined order"
                                ),
                            )
                        )
                    else:
                        self.edges.setdefault(
                            (outer, name), (ctx.relpath, node.lineno)
                        )
            inner = held + tuple(n for n in acquired if n not in held)
            for child in ast.iter_child_nodes(node):
                self._walk(child, inner, scope, ctx, findings)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, held, scope, ctx, findings)

    # ------------------------------------------------------------------
    def finalize(self) -> list[Finding]:
        """Report each lock-order cycle once, at its first-seen edge."""
        adj: dict[str, set[str]] = {}
        for outer, inner in self.edges:
            adj.setdefault(outer, set()).add(inner)

        def reaches(src: str, dst: str) -> bool:
            seen, stack = set(), [src]
            while stack:
                n = stack.pop()
                if n == dst:
                    return True
                if n in seen:
                    continue
                seen.add(n)
                stack.extend(adj.get(n, ()))
            return False

        findings: list[Finding] = []
        reported: set[frozenset] = set()
        for (outer, inner), (relpath, line) in sorted(self.edges.items()):
            pair = frozenset((outer, inner))
            if pair in reported:
                continue
            if reaches(inner, outer):
                reported.add(pair)
                findings.append(
                    Finding(
                        path=relpath,
                        line=line,
                        col=0,
                        code=self.code,
                        message=(
                            f"lock-order cycle: `{outer}` is acquired "
                            f"before `{inner}` here, but `{inner}` also "
                            f"precedes `{outer}` elsewhere in the order "
                            f"graph"
                        ),
                    )
                )
        return findings
