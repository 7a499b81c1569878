"""Line-based Markdown parser producing a section tree.

Only the structure needed downstream is recognized: ATX headings
(``#`` .. ``######``, by CommonMark's rule, see ``_HEADING_RE``),
paragraphs, list items, fenced code blocks and display-math blocks
(``$$ ... $$``). Everything else (tables, quotes,
HTML) is treated as paragraph text. The parser is deliberately small so
its block segmentation stays deterministic and auditable.

Malformed heading nesting (level jumps such as ``##`` followed by
``####``) is repaired by attaching the deeper heading as a direct child
of the most recent shallower one; it is never an error. Lecture notes
exported from notebooks are frequently malformed in exactly this way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InputError

ROOT_TITLE = "<root>"

# CommonMark: up to three spaces of indent, 1-6 #s, then whitespace or the
# end of the line (so a bare "#" is a heading and "#tag" is text); a closing
# run of #s counts only after whitespace, so "# C#" is "C#"
_HEADING_RE = re.compile(r"^ {0,3}(#{1,6})(?=\s|$)(.*?)(?:(?<=\s)#+)?\s*$")
_LIST_ITEM_RE = re.compile(r"^(\s*)([-*+]|\d+[.)])\s+(.*)$")
# CommonMark: 3+ backticks or tildes, then any info string (with no backtick
# after a backtick run); closed by a line of only the same character, at
# least as many times
_FENCE_RE = re.compile(r"^(`{3,}(?!.*`)|~{3,})")


@dataclass
class Block:
    """One atomic content block inside a section."""

    kind: str  # "paragraph" | "list_item" | "code" | "math"
    text: str


@dataclass
class Section:
    """A heading-delimited section with its own blocks and child sections."""

    id: str
    level: int
    title: str
    blocks: list[Block] = field(default_factory=list)
    children: list[Section] = field(default_factory=list)


def parse_markdown(text: str) -> Section:
    """Parse a Markdown document into a section tree.

    Returns a synthetic level-0 root section titled ``<root>``; content
    appearing before the first heading belongs to the root. Document
    order is preserved in blocks and children.

    Raises InputError("empty input") for an empty or whitespace-only
    document.
    """
    if text:
        text = text.lstrip("﻿")  # tolerate a UTF-8 BOM
    if not text or not text.strip():
        raise InputError("empty input")

    counter = _count()
    root = Section(id=next(counter), level=0, title=ROOT_TITLE)
    stack = [root]

    lines = text.splitlines()
    i = 0
    para: list[str] = []

    def flush_paragraph() -> None:
        if para:
            joined = _normalize_ws(" ".join(para))
            if joined:
                stack[-1].blocks.append(Block("paragraph", joined))
            para.clear()

    while i < len(lines):
        line = lines[i]
        stripped = line.strip()

        heading = _HEADING_RE.match(line)
        if heading:
            flush_paragraph()
            level = len(heading.group(1))
            title = heading.group(2).strip() or "<untitled>"
            # Attach under the deepest open section with a smaller level;
            # level jumps therefore land as direct children (repair rule).
            while stack[-1].level >= level:
                stack.pop()
            section = Section(id=next(counter), level=level, title=title)
            stack[-1].children.append(section)
            stack.append(section)
            i += 1
            continue

        fence = _FENCE_RE.match(stripped)
        if fence:
            flush_paragraph()
            run = fence.group(1)
            body: list[str] = []
            i += 1
            while i < len(lines) and not _closes(lines[i].strip(), run):
                body.append(lines[i])
                i += 1
            i += 1  # skip the closing fence (or run off the end)
            code = "\n".join(body).strip("\n")
            if code.strip():
                stack[-1].blocks.append(Block("code", code))
            continue

        if stripped.startswith("$$"):
            flush_paragraph()
            inner = stripped[2:]
            if inner.rstrip().endswith("$$") and inner.rstrip() != "":
                math = inner.rstrip()[:-2].strip()
                i += 1
            else:
                body = [inner] if inner.strip() else []
                i += 1
                while i < len(lines):
                    s = lines[i].strip()
                    if s.endswith("$$"):
                        if s[:-2].strip():
                            body.append(s[:-2])
                        i += 1
                        break
                    body.append(lines[i])
                    i += 1
                math = _normalize_ws(" ".join(body))
            if math:
                stack[-1].blocks.append(Block("math", math))
            continue

        item = _LIST_ITEM_RE.match(line)
        if item:
            flush_paragraph()
            indent, content = len(item.group(1)), item.start(3)
            body = [item.group(3)]
            i += 1
            # Continuation lines: more-indented non-blank lines that are not
            # themselves list items or fences, nor headings indented less
            # than the item's content column (CommonMark keeps a heading
            # that reaches it inside the item, as item text).
            while i < len(lines):
                nxt = lines[i]
                depth = len(nxt) - len(nxt.lstrip())
                if (
                    nxt.strip()
                    and depth > indent
                    and not _LIST_ITEM_RE.match(nxt)
                    and (depth >= content or not _HEADING_RE.match(nxt))
                    and not _FENCE_RE.match(nxt.strip())
                ):
                    body.append(nxt.strip())
                    i += 1
                else:
                    break
            text_item = _normalize_ws(" ".join(body))
            if text_item:
                stack[-1].blocks.append(Block("list_item", text_item))
            continue

        if not stripped:
            flush_paragraph()
            i += 1
            continue

        para.append(stripped)
        i += 1

    flush_paragraph()
    return root


def _closes(stripped: str, run: str) -> bool:
    """Whether a line closes the fence opened by ``run``."""
    return stripped.startswith(run) and not stripped.strip(run[0])


def _normalize_ws(s: str) -> str:
    return re.sub(r"\s+", " ", s).strip()


def _count():
    n = 0
    while True:
        yield f"s{n}"
        n += 1
