"""Section-tree construction from Markdown."""

import pytest

from rdkg.errors import InputError
from rdkg.markdown import parse_markdown


def test_basic_tree():
    root = parse_markdown("# A\ntext\n## B\nmore")
    assert len(root.children) == 1
    a = root.children[0]
    assert (a.level, a.title) == (1, "A")
    assert [b.text for b in a.blocks] == ["text"]
    b = a.children[0]
    assert (b.level, b.title) == (2, "B")
    assert [blk.text for blk in b.blocks] == ["more"]


def test_empty_document_rejected():
    with pytest.raises(InputError, match="empty input"):
        parse_markdown("")
    with pytest.raises(InputError, match="empty input"):
        parse_markdown("   \n\n  ")


def test_level_jump_repaired():
    root = parse_markdown("# A\n## C\n#### D")
    a = root.children[0]
    c = a.children[0]
    assert c.title == "C"
    assert [s.title for s in c.children] == ["D"]
    assert c.children[0].level == 4


def test_heading_before_level_one_attaches_to_root():
    root = parse_markdown("## B\nx\n# A\ny")
    assert [s.title for s in root.children] == ["B", "A"]


def test_content_before_any_heading_lands_on_root():
    root = parse_markdown("intro paragraph\n\n# A\nbody")
    assert [b.text for b in root.blocks] == ["intro paragraph"]


def test_paragraph_lines_joined():
    root = parse_markdown("# A\nline one\nline two\n\nsecond para")
    a = root.children[0]
    assert [b.text for b in a.blocks] == ["line one line two", "second para"]


def test_list_items_are_separate_blocks():
    root = parse_markdown("# A\n- first item\n- second item\n1. third numbered")
    kinds = [(b.kind, b.text) for b in root.children[0].blocks]
    assert kinds == [
        ("list_item", "first item"),
        ("list_item", "second item"),
        ("list_item", "third numbered"),
    ]


def test_list_item_continuation_lines():
    root = parse_markdown("# A\n- item start\n  continued here\nnot continued")
    blocks = root.children[0].blocks
    assert blocks[0].text == "item start continued here"
    assert blocks[1].text == "not continued"


def test_fenced_code_single_block():
    md = "# A\n```python\ndef f():\n    return 1\n```\nafter"
    blocks = parse_markdown(md).children[0].blocks
    assert blocks[0].kind == "code"
    assert blocks[0].text == "def f():\n    return 1"
    assert blocks[1].text == "after"


@pytest.mark.parametrize("opener, closer", [
    ('```python title="demo.py"', "```"),
    ("~~~ r echo=FALSE", "~~~"),
    ("````", "`````   "),  # a longer closing run, then whitespace
])
def test_a_fence_takes_any_info_string(opener, closer):
    md = f"# A\n{opener}\nx = 1\n{closer}\nFirst paragraph after code.\n\n## B\ntext"
    a = parse_markdown(md).children[0]
    assert [(b.kind, b.text) for b in a.blocks] == [
        ("code", "x = 1"), ("paragraph", "First paragraph after code.")]
    assert [(s.title, [b.text for b in s.blocks]) for s in a.children] == [("B", ["text"])]


@pytest.mark.parametrize("inner", ["```python", "``", "~~~", "``` ```"])
def test_only_a_bare_run_as_long_closes_a_fence(inner):
    md = f"# A\n````\n{inner}\ncode\n````\nafter"
    blocks = parse_markdown(md).children[0].blocks
    assert [(b.kind, b.text) for b in blocks] == [("code", f"{inner}\ncode"),
                                                  ("paragraph", "after")]


def test_a_backtick_run_with_a_backtick_after_it_is_no_fence():
    blocks = parse_markdown("# A\n``` `x`\ntext").children[0].blocks
    assert [(b.kind, b.text) for b in blocks] == [("paragraph", "``` `x` text")]


def test_unclosed_fence_consumes_rest():
    blocks = parse_markdown("# A\n```\ncode line\nmore code").children[0].blocks
    assert blocks[0].kind == "code"
    assert "more code" in blocks[0].text


def test_display_math_block():
    blocks = parse_markdown("# A\n$$\nx = y + z\n$$\ntail").children[0].blocks
    assert blocks[0].kind == "math"
    assert blocks[0].text == "x = y + z"
    assert blocks[1].text == "tail"


def test_single_line_display_math():
    blocks = parse_markdown("# A\n$$e = mc^2$$").children[0].blocks
    assert blocks[0].kind == "math"
    assert blocks[0].text == "e = mc^2"


def walk(section):
    """The sections of a tree depth-first in document order, root included."""
    yield section
    for child in section.children:
        yield from walk(child)


def test_document_order_and_ids():
    root = parse_markdown("# A\n## B\n## C\n# D")
    titles = [s.title for s in walk(root)]
    assert titles == ["<root>", "A", "B", "C", "D"]
    ids = [s.id for s in walk(root)]
    assert ids == sorted(ids, key=lambda x: int(x[1:]))


def test_heading_count_excludes_root():
    root = parse_markdown("# A\n## B\ntext")
    assert root.level == 0
    assert [s.title for s in walk(root) if s.level > 0] == ["A", "B"]


def test_empty_heading_title_placeholder():
    root = parse_markdown("# \nbody")
    assert root.children[0].title == "<untitled>"


def test_trailing_hashes_stripped():
    root = parse_markdown("## Title ##\nbody")
    assert root.children[0].title == "Title"


@pytest.mark.parametrize("heading, title", [
    ("# Title #  ", "Title"),
    ("# C#", "C#"),
    ("# a # b", "a # b"),
    ("# #", "<untitled>"),
])
def test_a_closing_hash_run_follows_whitespace(heading, title):
    root = parse_markdown(f"{heading}\nbody")
    assert root.children[0].title == title


def test_indented_and_bare_headings_open_sections():
    # a bare # run and a heading indented by up to three spaces are
    # headings, as in CommonMark, so no section is lost in a paragraph
    root = parse_markdown("# A\ntext\n#\nafter empty\n   ## B\nx")
    assert [(s.level, s.title, [b.text for b in s.blocks]) for s in walk(root)][1:] == [
        (1, "A", ["text"]), (1, "<untitled>", ["after empty"]), (2, "B", ["x"])]


@pytest.mark.parametrize("line, level, title", [
    ("#", 1, "<untitled>"),
    ("###", 3, "<untitled>"),
    (" # A", 1, "A"),
    ("   ###### A ##", 6, "A"),
    ("#\tA", 1, "A"),
])
def test_a_heading_is_indented_at_most_three_spaces(line, level, title):
    root = parse_markdown(f"{line}\nbody")
    assert [(s.level, s.title) for s in root.children] == [(level, title)]
    assert root.children[0].blocks[0].text == "body"


@pytest.mark.parametrize("line", ["    # A", "#tag", "####### seven", "##A"])
def test_a_hash_line_that_is_no_heading_is_paragraph_text(line):
    root = parse_markdown(f"{line}\nbody")
    assert root.children == []
    assert [b.text for b in root.blocks] == [f"{line.strip()} body"]


@pytest.mark.parametrize("md, tree", [
    # indented to the item's content column (2 for "- "): item text
    ("# A\n- item one\n  more of it\n   ## B\n- item two",
     [(1, "A", ["item one more of it ## B", "item two"])]),
    ("# A\n1. item one\n   ## B\n2. item two",
     [(1, "A", ["item one ## B", "item two"])]),
    # indented less: a heading that opens a section
    ("# A\n- item one\n ## B\n- item two",
     [(1, "A", ["item one"]), (2, "B", ["item two"])]),
    ("# A\n1. item one\n  ## B\n2. item two",
     [(1, "A", ["item one"]), (2, "B", ["item two"])]),
], ids=["bullet-at-column", "ordered-at-column", "bullet-short", "ordered-short"])
def test_a_heading_inside_a_list_item_reaches_its_content_column(md, tree):
    root = parse_markdown(md)
    assert [(s.level, s.title, [b.text for b in s.blocks]) for s in walk(root)][1:] == tree


def test_utf8_bom_tolerated():
    root = parse_markdown("﻿# A\nbody")
    assert root.children[0].title == "A"
