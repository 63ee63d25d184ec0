"""Every fenced Python block in the docs must run against the real API.

Documentation drifts; executable documentation does not. This module
extracts the ```python blocks from ``docs/*.md`` and ``README.md`` and
executes them **sequentially per file in one shared namespace**, so a
later block may use names an earlier block defined — the docs read as
one continuous session.

A block preceded (immediately or after blank lines) by the marker
``<!-- docs-test: skip -->`` is not executed; use it for output
transcripts or deliberately failing snippets.
"""

from __future__ import annotations

import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

SKIP_MARKER = "docs-test: skip"


def extract_blocks(text: str):
    """``(first_code_lineno, source)`` for every runnable python fence."""
    blocks = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].strip() != "```python":
            i += 1
            continue
        back = i - 1
        while back >= 0 and not lines[back].strip():
            back -= 1
        skip = back >= 0 and SKIP_MARKER in lines[back]
        j = i + 1
        while j < len(lines) and lines[j].strip() != "```":
            j += 1
        if j >= len(lines):
            raise AssertionError(f"unterminated ```python fence at line {i + 1}")
        if not skip:
            blocks.append((i + 2, "\n".join(lines[i + 1 : j])))
        i = j + 1
    return blocks


def test_extractor_finds_fences_and_honours_skip():
    text = "\n".join([
        "para", "```python", "a = 1", "```", "",
        f"<!-- {SKIP_MARKER} -->", "```python", "raise SystemExit", "```",
        "```text", "not python", "```",
    ])
    blocks = extract_blocks(text)
    assert [(lineno, src) for lineno, src in blocks] == [(3, "a = 1")]


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_docs_python_blocks_run(path):
    blocks = extract_blocks(path.read_text())
    if not blocks:
        pytest.skip(f"{path.name} has no python examples")
    namespace = {"__name__": f"docs_{path.stem}"}
    for lineno, source in blocks:
        code = compile(source, f"{path.name}:{lineno}", "exec")
        try:
            exec(code, namespace)  # noqa: S102 - executing our own docs
        except Exception as exc:  # pragma: no cover - diagnostic path
            raise AssertionError(
                f"{path.name} block at line {lineno} failed: {exc!r}\n{source}"
            ) from exc
