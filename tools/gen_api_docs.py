#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

A dependency-free API reference: walks every ``repro`` module, lists its
public classes and functions with signatures and first docstring
paragraphs.  Run after API changes::

    python tools/gen_api_docs.py

CI regenerates to a scratch path (``--output``) and diffs against the
committed ``docs/API.md``, so a stale reference fails the docs job.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import pkgutil
import sys

import repro

OUT = os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    para = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return para


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - defensive
            print(f"skipping {info.name}: {exc}", file=sys.stderr)


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                yield name, obj


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=OUT, help="where to write (default: docs/API.md)")
    args = parser.parse_args(argv)
    lines = [
        "# API reference",
        "",
        "_Generated by `tools/gen_api_docs.py` — do not edit by hand._",
        "",
        "Coding invariants (RNG discipline, determinism, validation at the",
        "boundary) are machine-enforced by `repro-analyze check`; see",
        "[ANALYSIS.md](ANALYSIS.md) for the check catalogue.",
        "",
    ]
    seen = set()
    for mod_name, module in sorted(iter_modules()):
        members = [(n, o) for n, o in public_members(module) if o.__module__ == mod_name]
        if not members:
            continue
        lines.append(f"## `{mod_name}`")
        lines.append("")
        para = first_paragraph(module)
        if para:
            lines.append(para)
            lines.append("")
        for name, obj in members:
            key = (obj.__module__, name)
            if key in seen:
                continue
            seen.add(key)
            kind = "class" if inspect.isclass(obj) else "def"
            sig = "" if inspect.isclass(obj) else signature_of(obj)
            lines.append(f"### `{kind} {name}{sig}`")
            lines.append("")
            doc = first_paragraph(obj)
            lines.append(doc if doc else "_No docstring._")
            lines.append("")
            if inspect.isclass(obj):
                for mname, method in inspect.getmembers(obj, inspect.isfunction):
                    if mname.startswith("_") or method.__module__ != obj.__module__:
                        continue
                    lines.append(f"* `{mname}{signature_of(method)}` — {first_paragraph(method)}")
                lines.append("")
    out_dir = os.path.dirname(args.output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.output, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {os.path.abspath(args.output)} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
