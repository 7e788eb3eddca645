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
   cannot see, and each ``name=`` argument of a documented call such as
   ``SpMMEngine(store=...)`` must be a parameter of what it resolves to
   (a ``**kwargs`` parameter takes any name).  Without numpy the check
   is skipped with a notice;
6. every ``--flag`` of a documented ``python -m repro.serve.store ...``
   or ``python -m repro.serve.server ...`` command, in any document, is
   an option of that module's ``build_parser()`` or one of its
   subcommands.  Fenced blocks count, a line ending in ``\`` (or an
   indented synopsis line) continues the command above it, and inline
   code may wrap onto a second line.

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

#: modules whose documented command lines may use only their options
CLI_MODULES = ("repro.serve.store", "repro.serve.server")

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


#: a bracketed group inside an argument list (removed innermost first)
NESTED_RE = re.compile(r"\([^()]*\)|\[[^\[\]]*\]|\{[^{}]*\}")
KEYWORD_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=(?!=)")
#: what :func:`_resolve` returns for a chain that does not resolve
UNRESOLVED = object()


def call_keywords(call: str) -> list[str]:
    """The ``name=`` arguments at the top level of ``call``, an argument
    list such as ``(fp, added=, removed=)``: a nested call's keywords
    belong to that call."""
    args, n = call[1:-1], 1
    while n:
        args, n = NESTED_RE.subn("", args)
    return [
        m.group(1)
        for arg in args.split(",")
        if (m := KEYWORD_RE.match(arg.strip()))
    ]


def unknown_keywords(obj, names: list[str]) -> list[str] | None:
    """The ``names`` that ``obj``'s signature cannot take as keywords
    (none when it has a ``**kwargs`` parameter), or ``None`` when ``obj``
    has no signature to check them against."""
    import inspect

    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return None
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return []
    known = {
        p.name for p in params
        if p.kind not in (p.POSITIONAL_ONLY, p.VAR_POSITIONAL)
    }
    return [name for name in names if name not in known]


def _resolve(chain: list[str]):
    """Resolve ``chain`` (e.g. ``["PlanCache", "enforce_limits"]``) left
    to right: the head against :data:`API_NAMESPACES` (or as a module
    path when it starts with ``repro``), the rest as attributes —
    accepting dataclass fields, which are not class attributes.  Returns
    the object named, or :data:`UNRESOLVED`."""
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
        chain = chain[1:]
    for head in heads:
        obj = head
        for part in chain:
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif dataclasses.is_dataclass(obj) and part in {
                f.name for f in dataclasses.fields(obj)
            }:
                # a field without a default: real API, but no attribute
                # to chain deeper into or call
                obj = None
            else:
                break
        else:
            return obj
    return UNRESOLVED


def check_api_references(doc: Path, errors: list[str]) -> None:
    """Every python-looking inline-code token must resolve via import,
    and a call's keyword arguments must fit what it calls.

    Only names that *look like* API are checked: bare CamelCase /
    ALL_CAPS heads (``SpMMEngine``, ``PLAN_FORMAT_VERSION``) or chains
    rooted at ``repro`` — lowercase heads (``engine.stats``, shell
    fragments, filenames) are illustrative, not contractual.
    """
    text = strip_fences(doc.read_text())
    resolved: dict[str, object] = {}
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
        first = dotted not in resolved
        if first:
            resolved[dotted] = _resolve(dotted.split("."))
        obj = resolved[dotted]
        if obj is UNRESOLVED:
            if first:
                errors.append(
                    f"{doc.relative_to(ROOT)}: API reference `{token}` "
                    f"does not resolve via import"
                )
            continue
        names = call_keywords(m.group(2)) if m.group(2) else []
        unknown = unknown_keywords(obj, names) if names else []
        if unknown is None:
            errors.append(
                f"{doc.relative_to(ROOT)}: `{token}` passes keyword "
                f"arguments to something without a signature"
            )
        elif unknown:
            errors.append(
                f"{doc.relative_to(ROOT)}: `{token}` passes "
                f"{', '.join(f'{n}=' for n in unknown)}, which "
                f"`{dotted}` does not take"
            )


#: ``-m <module>`` and its arguments, up to a comment or shell operator
CLI_RE = re.compile(
    r"-m\s+(" + "|".join(map(re.escape, CLI_MODULES)) + r")(?![\w.])([^#|;&`]*)"
)
FLAG_RE = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def command_texts(text: str) -> list[str]:
    """Candidate command lines of a document: each fenced line with its
    continuations joined (a trailing ``\\``, or an indented line after
    it, as in a usage synopsis), and each inline code span, which may
    wrap onto the next line."""
    texts: list[str] = []
    fenced, joinable = False, False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced, joinable = not fenced, False
            continue
        if not fenced:
            continue
        if joinable and (texts[-1].endswith("\\") or line[:1].isspace()):
            texts[-1] = texts[-1].rstrip("\\") + " " + line.strip()
        else:
            texts.append(line)
        joinable = True
    texts += re.findall(r"`([^`\n]+(?:\n[^`\n]+)?)`", strip_fences(text))
    return texts


def cli_options(module: str) -> set[str]:
    """Every option string of ``module``'s ``build_parser()``, its
    subcommands' included."""
    import argparse
    import importlib

    parsers = [importlib.import_module(module).build_parser()]
    options: set[str] = set()
    while parsers:
        for action in parsers.pop()._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return options


def check_cli_flags(
    doc: Path, options: dict[str, set[str]], errors: list[str]
) -> None:
    """Every ``--flag`` of a documented ``python -m <module>`` command
    must be an option that module's parser accepts."""
    for text in command_texts(doc.read_text()):
        for module, args in CLI_RE.findall(text):
            for flag in FLAG_RE.findall(args):
                if flag not in options[module]:
                    errors.append(
                        f"{doc.relative_to(ROOT)}: `python -m {module}` "
                        f"has no option `{flag}`"
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
        options = {module: cli_options(module) for module in CLI_MODULES}
        for doc in DOC_FILES:
            if doc.exists():
                check_cli_flags(doc, options, errors)
        api_note = "API refs and CLI flags resolve"
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
