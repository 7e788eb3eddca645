"""REP301 — serialisation hygiene for the byte-decoding modules:
``repro.serve.container`` (the layout shared by plan files and wire
frames), ``repro.serve.serial`` (plan files) and ``repro.serve.frames``
(wire frames).

The container and frame formats' security stance (stated in the module
docstrings, ``docs/SERVING.md``, and ``docs/SERVER.md``) is that
loading untrusted bytes can *fail* but never *execute code*: only a
JSON header and raw typed arrays, no pickled objects.  This checker
keeps that stance mechanical: the byte-decoding modules must never
import or call anything that can deserialise into code execution —
``pickle``/``marshal``/``dill``/``shelve``,
``eval``/``exec``/``compile``/``__import__``, or ``np.load``/``np.save``
(whose ``.npy`` path can embed pickles).

The dtype side of the contract — only whitelisted numeric dtypes enter
a container — is enforced at runtime by ``repro.serve.container``'s
``pack`` and ``check_table`` (``ALLOWED_DTYPE_KINDS``); this checker
verifies the import surface that could route around it.
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

SERIAL_PATHS = (
    "repro/serve/container.py",
    "repro/serve/serial.py",
    "repro/serve/frames.py",
)

BANNED_MODULES = {"pickle", "cPickle", "marshal", "shelve", "dill", "joblib"}
BANNED_BUILTINS = {"eval", "exec", "compile", "__import__"}
BANNED_CALLS = {
    "np.load",
    "np.save",
    "np.savez",
    "numpy.load",
    "numpy.save",
    "numpy.savez",
}


@register
class SerializationChecker(Checker):
    code = "REP301"
    name = "serialization-hygiene"
    description = (
        "the plan container and wire-frame modules never reach pickle/"
        "marshal/eval/exec or numpy's pickle-capable load/save"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(SERIAL_PATHS)

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(
                Finding(
                    path=ctx.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    code=self.code,
                    message=message,
                )
            )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        flag(
                            node,
                            f"imports `{alias.name}` — the container "
                            f"format is no-pickle by contract",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in BANNED_MODULES:
                    flag(
                        node,
                        f"imports from `{node.module}` — the container "
                        f"format is no-pickle by contract",
                    )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in BANNED_BUILTINS
                ):
                    flag(
                        node,
                        f"calls `{node.func.id}()` — loading untrusted "
                        f"bytes must not be able to execute code",
                    )
                    continue
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                if dotted in BANNED_CALLS:
                    flag(
                        node,
                        f"calls `{dotted}()` — numpy's npy/npz path can "
                        f"embed pickles; use the container's own raw-"
                        f"array table",
                    )
                elif dotted.split(".")[0] in BANNED_MODULES:
                    flag(
                        node,
                        f"calls `{dotted}()` — the container format is "
                        f"no-pickle by contract",
                    )
        return findings
