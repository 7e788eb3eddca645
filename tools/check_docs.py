#!/usr/bin/env python3
"""Documentation consistency checks (the CI docs job).

Validates, without importing the library:

1. every relative markdown link in ``README.md`` / ``docs/*.md`` points
   at a file that exists, and every ``#anchor`` fragment matches a
   heading in the target document (GitHub slug rules);
2. every repo path mentioned in inline code (``src/...``,
   ``docs/...``, ``benchmarks/...``, ``examples/...``, ``tests/...``)
   exists — fenced code blocks are exempt (they show layouts and
   placeholders, not references);
3. the module map in ``docs/ARCHITECTURE.md`` names every top-level
   package under ``src/repro/`` — adding a package without documenting
   it fails CI;
4. every *public* class defined in ``src/repro/serve/*.py`` has a row
   in the thread-safety table of ``docs/CONCURRENCY.md`` — a new
   serving class ships with its concurrency contract documented, or
   not at all (AST-based; no import needed).

And, when the library is importable (numpy present — CI installs it
before this check):

5. every public class/function/attribute named in the serving docs
   (``docs/SERVING.md``, ``docs/CONCURRENCY.md``) actually resolves via
   import — inline-code tokens such as ``repro.serve.store.PlanStore``
   or ``SpMMEngine.warm_start`` are resolved module-by-module and
   attribute-by-attribute, catching the API drift the link checker
   cannot see.  Without numpy the check is skipped with a notice.

Run from the repository root: ``python tools/check_docs.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
#: documents whose inline-code API names must resolve via import
API_DOC_FILES = [
    ROOT / "docs" / "SERVING.md",
    ROOT / "docs" / "CONCURRENCY.md",
    ROOT / "docs" / "NUMERICS.md",
    ROOT / "docs" / "SERVER.md",
    ROOT / "docs" / "GPU.md",
    ROOT / "docs" / "STREAMING.md",
]
#: modules bare CamelCase names (and ALL_CAPS constants) resolve against
API_NAMESPACES = [
    "repro",
    "repro.serve",
    "repro.serve.cache",
    "repro.serve.engine",
    "repro.serve.frames",
    "repro.serve.serial",
    "repro.serve.server",
    "repro.serve.sharded",
    "repro.serve.store",
    "repro.errors",
    "repro.backend",
    "repro.backend.gpu",
    "repro.backend.loader",
    "repro.kernels.base",
    "repro.kernels.executor",
    "repro.reorder.base",
    "repro.sparse.delta",
    "repro.tune",
    "repro.tune.policy",
    "repro.tune.space",
    "repro.tune.autotune",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
PATH_PREFIXES = ("src/", "docs/", "benchmarks/", "examples/", "tests/")
# inline-code tokens that look like literal repo paths (no globs,
# placeholders, or shell fragments)
PATH_TOKEN_RE = re.compile(r"^[A-Za-z0-9_\-./]+$")


def strip_fences(text: str) -> str:
    """Remove fenced code blocks (their contents are illustrative)."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    anchors = set()
    for line in path.read_text().splitlines():
        m = re.match(r"^(#{1,6})\s+(.*)$", line)
        if m:
            anchors.add(slugify(m.group(2)))
    return anchors


def check_links(doc: Path, errors: list[str]) -> None:
    text = strip_fences(doc.read_text())
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        ref, _, fragment = target.partition("#")
        base = (doc.parent / ref).resolve() if ref else doc.resolve()
        if ref and not base.exists():
            errors.append(f"{doc.relative_to(ROOT)}: dead link -> {target}")
            continue
        if fragment and base.suffix == ".md":
            if fragment not in anchors_of(base):
                errors.append(
                    f"{doc.relative_to(ROOT)}: missing anchor -> {target}"
                )


def check_inline_paths(doc: Path, errors: list[str]) -> None:
    text = strip_fences(doc.read_text())
    for token in INLINE_CODE_RE.findall(text):
        if not token.startswith(PATH_PREFIXES):
            continue
        if not PATH_TOKEN_RE.match(token):
            continue  # glob, placeholder, or command fragment
        if not (ROOT / token).exists():
            errors.append(
                f"{doc.relative_to(ROOT)}: missing path -> `{token}`"
            )


#: inline-code tokens that plausibly name python API: a dotted chain of
#: identifiers, optionally ending in a call — ``PlanStore(...)`` or
#: ``engine.warm_start()``
API_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(\(.*\))?$")


def _resolves(chain: list[str]) -> bool:
    """Resolve ``chain`` (e.g. ``["PlanCache", "enforce_limits"]``) left
    to right: the head against :data:`API_NAMESPACES` (or as a module
    path when it starts with ``repro``), the rest as attributes —
    accepting dataclass fields, which are not class attributes."""
    import dataclasses
    import importlib

    heads: list[object] = []
    if chain[0] == "repro":
        # longest importable module prefix, then attributes
        obj = importlib.import_module("repro")
        i = 1
        while i < len(chain):
            try:
                obj = importlib.import_module(".".join(chain[: i + 1]))
                i += 1
            except ImportError:
                break
        heads, chain = [obj], chain[i:]
    else:
        for mod_name in API_NAMESPACES:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, chain[0]):
                heads.append(getattr(mod, chain[0]))
        if not heads:
            return False
        chain = chain[1:]
    for head in heads:
        obj, ok = head, True
        for part in chain:
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif dataclasses.is_dataclass(obj) and part in {
                f.name for f in dataclasses.fields(obj)
            }:
                ok = True  # a field without a default: real API, no attr
                obj = object()  # cannot chain deeper than a plain field
            else:
                ok = False
                break
        if ok:
            return True
    return False


def check_api_references(doc: Path, errors: list[str]) -> None:
    """Every python-looking inline-code token must resolve via import.

    Only names that *look like* API are checked: bare CamelCase /
    ALL_CAPS heads (``SpMMEngine``, ``PLAN_FORMAT_VERSION``) or chains
    rooted at ``repro`` — lowercase heads (``engine.stats``, shell
    fragments, filenames) are illustrative, not contractual.
    """
    text = strip_fences(doc.read_text())
    seen: set[str] = set()
    for token in INLINE_CODE_RE.findall(text):
        m = API_TOKEN_RE.match(token)
        if not m:
            continue
        dotted = m.group(1)
        head = dotted.split(".")[0]
        if head in ("None", "True", "False", "Exception"):
            continue  # python literals look CamelCase but are not API
        camel_case = re.match(r"^[A-Z][A-Za-z0-9]*[a-z]", head)
        shouty_const = "_" in head and head.isupper()
        if head != "repro" and not camel_case and not shouty_const:
            continue  # lowercase chains, acronyms, placeholders: prose
        if dotted in seen:
            continue
        seen.add(dotted)
        if not _resolves(dotted.split(".")):
            errors.append(
                f"{doc.relative_to(ROOT)}: API reference `{token}` does "
                f"not resolve via import"
            )


def check_module_map(errors: list[str]) -> None:
    arch = ROOT / "docs" / "ARCHITECTURE.md"
    if not arch.exists():
        errors.append("docs/ARCHITECTURE.md is missing")
        return
    text = arch.read_text()
    src = ROOT / "src" / "repro"
    for pkg in sorted(p.name for p in src.iterdir() if (p / "__init__.py").is_file()):
        if f"src/repro/{pkg}" not in text:
            errors.append(
                f"docs/ARCHITECTURE.md: module map is missing the "
                f"top-level package `src/repro/{pkg}`"
            )


def public_serve_classes() -> list[str]:
    """Every public (no leading underscore) class defined under
    ``src/repro/serve`` — collected from the AST, so this works without
    numpy."""
    import ast

    names = []
    for py in sorted((ROOT / "src" / "repro" / "serve").glob("*.py")):
        tree = ast.parse(py.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names.append(node.name)
    return names


def check_thread_safety_table(errors: list[str]) -> None:
    """Every public ``repro.serve`` class needs a thread-safety row.

    The contract table in ``docs/CONCURRENCY.md`` is the one place a
    caller learns whether a serving class locks internally or expects
    caller serialization — so a class missing from it is an
    undocumented concurrency contract, which fails CI.
    """
    conc = ROOT / "docs" / "CONCURRENCY.md"
    if not conc.exists():
        errors.append("docs/CONCURRENCY.md is missing")
        return
    lines = conc.read_text().splitlines()
    # the table rows of the "Thread-safety contract" section only
    section, rows = False, []
    for line in lines:
        if re.match(r"^##\s", line):
            section = "thread-safety" in line.lower()
            continue
        if section and line.startswith("|"):
            rows.append(line)
    table = "\n".join(rows)
    for name in public_serve_classes():
        if f"`{name}`" not in table:
            errors.append(
                f"docs/CONCURRENCY.md: thread-safety table has no row "
                f"for public serving class `{name}`"
            )


def main() -> int:
    errors: list[str] = []
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"expected document missing: {doc.relative_to(ROOT)}")
            continue
        check_links(doc, errors)
        check_inline_paths(doc, errors)
    check_module_map(errors)
    check_thread_safety_table(errors)
    api_note = "API refs skipped (library not importable)"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401 - needs numpy; CI installs it first
    except ImportError as exc:
        api_note = f"API refs skipped ({exc})"
    else:
        for doc in API_DOC_FILES:
            if doc.exists():
                check_api_references(doc, errors)
        api_note = "API refs resolve"
    if errors:
        print(f"docs check FAILED ({len(errors)} problem(s)):")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(
        f"docs check OK ({len(DOC_FILES)} files, module map and "
        f"thread-safety table complete, {api_note})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
