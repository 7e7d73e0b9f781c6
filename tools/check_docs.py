#!/usr/bin/env python3
"""Docs gate: intra-repo link checking + doctests on tutorial examples.

Two failure classes this script turns into a non-zero exit code (and CI
turns into a red build):

1. **Broken intra-repo links.** Every markdown link or image in
   ``README.md`` and ``docs/*.md`` whose target is a relative path must
   resolve to a file or directory inside the repository.  External
   URLs (``http(s)://``, ``mailto:``) and pure ``#fragment`` links are
   skipped; a ``path#fragment`` link is checked against the heading
   anchors of the target markdown file.

2. **Stale tutorial examples.** Fenced ``python`` blocks in
   ``docs/TUTORIAL.md`` that contain doctest-style ``>>>`` prompts are
   executed with :mod:`doctest` (with ``src/`` importable), so the
   tutorial cannot silently drift from the library.

3. **Stale signatures.** Every inline code span in ``docs/API.md`` that
   starts with a call ``Name(a, b=…)``, where ``Name`` (possibly dotted,
   like ``SensingDataset.from_matrix``) resolves in ``repro`` or
   ``repro.core.engine``, may only name arguments that are parameters of
   ``inspect.signature(Name)``; a removed parameter fails the gate.

Usage::

    python tools/check_docs.py            # check the repo this file lives in
    python tools/check_docs.py --root .   # or an explicit checkout
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import inspect
import pathlib
import re
import sys
from typing import List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Markdown links/images: [text](target) — target may carry a #fragment.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: ATX headings, for anchor validation of path#fragment links.
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Fenced code blocks in the tutorial.
_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
#: Inline code spans that open with a (dotted) call: `Name(`.
_CALL_SPAN_RE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\(([^`]*)`")
#: Modules whose attributes the signature gate resolves names against.
_API_MODULES = ("repro", "repro.core.engine")


def _anchor(heading: str) -> str:
    """GitHub-style anchor slug for a heading line."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _markdown_anchors(path: pathlib.Path) -> set:
    return {_anchor(h) for h in _HEADING_RE.findall(path.read_text())}


def check_links(root: pathlib.Path) -> List[str]:
    """All broken relative links in README.md and docs/*.md."""
    errors = []
    documents = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for document in documents:
        if not document.exists():
            continue
        # Strip fenced code blocks: link syntax inside them is not a link.
        text = re.sub(r"```.*?```", "", document.read_text(), flags=re.DOTALL)
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):  # same-document fragment
                if _anchor(target[1:]) not in _markdown_anchors(document):
                    errors.append(f"{document.relative_to(root)}: broken "
                                  f"fragment {target!r}")
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (document.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{document.relative_to(root)}: broken link "
                              f"{target!r} (no such file)")
                continue
            if fragment and resolved.suffix == ".md":
                if _anchor(fragment) not in _markdown_anchors(resolved):
                    errors.append(f"{document.relative_to(root)}: broken "
                                  f"anchor {target!r}")
    return errors


def check_tutorial_doctests(root: pathlib.Path) -> Tuple[int, List[str]]:
    """Run doctest over ``>>>`` examples fenced in docs/TUTORIAL.md."""
    tutorial = root / "docs" / "TUTORIAL.md"
    if not tutorial.exists():
        return 0, [f"missing {tutorial.relative_to(root)}"]
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    runner = doctest.DocTestRunner(verbose=False)
    parser = doctest.DocTestParser()
    errors: List[str] = []
    n_examples = 0
    globs: dict = {}  # shared: the blocks read as one continuous session
    for i, block in enumerate(_FENCE_RE.findall(tutorial.read_text())):
        if ">>>" not in block:
            continue  # illustrative snippet, not an executable example
        test = parser.get_doctest(block, globs, f"TUTORIAL.md[block {i}]",
                                  str(tutorial), 0)
        n_examples += len(test.examples)
        result = runner.run(test, clear_globs=False)
        globs.update(test.globs)  # get_doctest copies globs; merge back
        if result.failed:
            errors.append(f"TUTORIAL.md block {i}: {result.failed} doctest "
                          f"failure(s)")
    return n_examples, errors


def _call_arguments(text: str) -> Optional[str]:
    """The argument list of the call opened just before ``text``."""
    depth = 1
    for i, char in enumerate(text):
        depth += {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}.get(char, 0)
        if depth == 0:
            return text[:i]
    return None


def _argument_names(arguments: str) -> List[str]:
    """Parameter names a documented argument list mentions.

    ``a`` and ``b=…`` name ``a`` and ``b``; ``*``, ``**kwargs``, ``…`` and
    literals such as ``[…]`` name nothing.
    """
    parts, depth, current = [], 0, ""
    for char in arguments:
        depth += {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}.get(char, 0)
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    parts.append(current)
    names = []
    for part in parts:
        name = part.split("=", 1)[0].strip()
        if name.isidentifier():
            names.append(name)
    return names


def _resolve(dotted: str, modules) -> Optional[object]:
    for module in modules:
        owner = module
        try:
            for part in dotted.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            continue
        return owner
    return None


def check_api_signatures(root: pathlib.Path) -> List[str]:
    """Arguments ``docs/API.md`` shows that the named callable does not take."""
    api = root / "docs" / "API.md"
    if not api.exists():
        return []
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    modules = [importlib.import_module(name) for name in _API_MODULES]
    text = re.sub(r"```.*?```", "", api.read_text(), flags=re.DOTALL)
    errors = []
    for match in _CALL_SPAN_RE.finditer(text):
        name = match.group(1)
        arguments = _call_arguments(match.group(2))
        target = _resolve(name, modules)
        if arguments is None or target is None:
            continue
        try:
            parameters = inspect.signature(target).parameters
        except (TypeError, ValueError):
            continue
        if any(
            p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in parameters.values()
        ):
            continue
        for argument in _argument_names(arguments):
            if argument not in parameters:
                errors.append(f"docs/API.md: `{name}` has no parameter {argument!r}")
    return errors


def main(argv=None) -> int:
    argparser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    argparser.add_argument("--root", default=str(REPO_ROOT),
                           help="repository root (default: this checkout)")
    args = argparser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()

    link_errors = check_links(root)
    n_doctests, doctest_errors = check_tutorial_doctests(root)
    errors = link_errors + doctest_errors + check_api_signatures(root)
    for error in errors:
        print(f"FAIL {error}")
    if errors:
        return 1
    print(f"docs OK: links resolve, {n_doctests} tutorial doctest(s) pass, "
          f"API.md signatures match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
