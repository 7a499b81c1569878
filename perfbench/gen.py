"""Seeded synthetic lecture generator for the benchmark.

Independent of the test fixtures on purpose: editing a test must never
change what the benchmark feeds the program. The program only ever sees
the Markdown text; the recorded unit paths and heading tree are kept for
the output checks.

Two random streams make a lecture. The *content* stream, keyed by the
lecture's name alone, picks every word and the block kinds. The *seed*
stream, keyed by name and ``seed``, permutes the two words of every
``###`` heading. Headings reach the program only as node labels, which
the default bag-of-words embedder reads as bags, and as section paths,
which it only compares for equality; so the seed changes the Markdown
but not one number the program computes. The work, the artifacts'
sizes and R/D/L repeat exactly across seeds, and only the host's speed
moves the times. Two wider seeds were tried and dropped: letting the
seed pick the words moved the work of a short-lectures round by up to
15% between seeds, and permuting the words inside units changed the
long-lecture work on 2 of 20 seeds, because refine cuts node
definitions (concatenated unit texts) at 1000 characters and so embeds
a seed-dependent part of the cut unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Six disjoint topic vocabularies. No word appears in two topics, and no
# word is a stopword of the TF-IDF namer.
TOPICS: dict[str, list[str]] = {
    "tables": [
        "dataframe", "index", "column", "groupby", "aggregate", "pivot",
        "merge_tables", "filter_rows", "sort_values", "missing_values",
        "dtype", "csv", "join_key", "melt", "resample", "rolling_window",
    ],
    "sequences": [
        "recurrent", "sequence", "attention", "encoder", "decoder",
        "softmax", "backprop", "hidden_state", "embedding_layer", "token",
        "transformer", "positional", "beam_search", "teacher_forcing",
        "perplexity", "vocabulary",
    ],
    "graphs": [
        "vertex", "adjacency", "dijkstra", "spanning_tree", "bipartite",
        "traversal", "breadth_first", "depth_first", "topological",
        "shortest_path", "clique", "matching", "flow_network", "cut",
        "planar", "coloring",
    ],
    "probability": [
        "random_variable", "expectation", "variance", "bayes", "prior",
        "posterior", "likelihood", "gaussian", "bernoulli", "martingale",
        "conditional", "independence", "sampling", "markov_chain",
        "moment", "entropy_bits",
    ],
    "compilers": [
        "lexer", "parser", "grammar", "ast", "register_allocation",
        "liveness", "ssa_form", "basic_block", "inlining", "peephole",
        "codegen", "type_checker", "symbol_table", "dataflow",
        "instruction_selection", "linker",
    ],
    "storage": [
        "btree", "page_cache", "write_ahead_log", "compaction", "lsm_tree",
        "transaction", "isolation", "checkpoint", "buffer_pool",
        "secondary_index", "vacuum", "replication", "snapshot",
        "deadlock", "two_phase_commit", "redo_record",
    ],
}

TEMPLATES = [
    "The {0} {1} idea connects {2} with {3} and {4}.",
    "We compute {0} from {1} before checking {2}, then revisit {3}.",
    "A common mistake treats {0} as {1}; in practice {2} depends on {3} and {4}.",
    "Recall that {0} bounds {1}, so {2} follows once {3} is fixed.",
    "In the worked example, {0} and {1} interact through {2}.",
    "Students often confuse {0} with {1}, although {2} separates them via {3}.",
]


@dataclass
class Lecture:
    name: str
    markdown: str
    # section path (heading titles from the top) of each unit, in order
    unit_paths: list[tuple[str, ...]] = field(default_factory=list)
    # (title, parent title or None) per heading in document order
    headings: list[tuple[str, str | None]] = field(default_factory=list)


def make_lecture(
    seed: int, name: str, shape: list[list[int]], intro_units: int = 1
) -> Lecture:
    """Write one lecture.

    ``shape[s]`` lists, for ``##`` section s, the unit count of each of
    its ``###`` subsections; each ``##`` section also gets
    ``intro_units`` units before its first subsection, and the ``#``
    title gets one. The seed decides only the word order of ``###``
    headings.
    """
    writer = _Writer(random.Random(name), random.Random(f"{name}:{seed}"))
    topic_names = sorted(TOPICS)
    title = f"{name.replace('-', ' ').title()} notes"
    writer.lines += [f"# {title}", ""]
    lecture = Lecture(name=name, markdown="")
    lecture.headings.append((title, None))
    writer.units(lecture, (title,), TOPICS[writer.content.choice(topic_names)], 1)
    for s, subsections in enumerate(shape):
        topic = writer.content.choice(topic_names)
        words = TOPICS[topic]
        sec_title = f"{s + 1}. {topic.title()} {writer.content.choice(words)}"
        writer.lines += [f"## {sec_title}", ""]
        lecture.headings.append((sec_title, title))
        writer.units(lecture, (title, sec_title), words, intro_units)
        for k, n_units in enumerate(subsections):
            sub_title = writer.fill(f"{s + 1}.{k + 1} {{0}} and {{1}}", words, reorder=True)
            writer.lines += [f"### {sub_title}", ""]
            lecture.headings.append((sub_title, sec_title))
            writer.units(lecture, (title, sec_title, sub_title), words, n_units)
    lecture.markdown = "\n".join(writer.lines)
    return lecture


class _Writer:
    def __init__(self, content: random.Random, order: random.Random):
        self.content = content
        self.order = order
        self.lines: list[str] = []

    def fill(self, template: str, words: list[str], reorder: bool = False) -> str:
        """Template with content-chosen words (every brace in a template
        opens a slot), in seed-chosen slots if ``reorder``."""
        chosen = self.content.sample(words, template.count("{"))
        if reorder:
            self.order.shuffle(chosen)
        return template.format(*chosen)

    def sentence(self, words: list[str]) -> str:
        return self.fill(self.content.choice(TEMPLATES), words)

    def units(self, lecture: Lecture, path: tuple[str, ...], words: list[str],
              count: int) -> None:
        emitted = 0
        while emitted < count:
            roll = self.content.random()
            left = count - emitted
            n = 1
            if roll < 0.08:
                code = self.fill("result = {0}({1}, {2})", words)
                self.lines += ["```python", code, "print(result)", "```", ""]
            elif roll < 0.14:
                math = self.fill("\\sum_i {0}_i \\cdot {1}_i \\leq 1", words)
                self.lines += ["$$", math, "$$", ""]
            elif roll < 0.30 and left >= 2:
                n = min(left, self.content.randint(2, 3))
                self.lines += [f"- {self.sentence(words)}" for _ in range(n)] + [""]
            else:
                self.lines += [self.sentence(words), ""]
            lecture.unit_paths += [path] * n
            emitted += n


# --- workload shapes ----------------------------------------------------------
#
# Unit counts: 1 (title) + sum over sections of (intro + subsection units).


def short_shape(i: int) -> list[list[int]]:
    """39-40 units, 8-13 headings; the i-th lecture of the course."""
    shapes = [
        [[6, 6], [5, 6], [6, 6]],
        [[5, 5, 5], [6, 6], [5, 4]],
        [[8, 8], [7, 7, 7]],
        [[5, 5, 5], [4, 4], [4, 4], [4]],
    ]
    return shapes[i % len(shapes)]


def long_shape() -> list[list[int]]:
    """481 units, 61 headings: 12 sections of 4 subsections at ~10 units."""
    return [[10, 10, 10, 10] if s % 2 == 0 else [10, 9, 9, 10] for s in range(12)]


def sweep_shape() -> list[list[int]]:
    """217 units, 28 headings: 6 sections of 3-4 subsections."""
    return [[10] * (4 if s % 2 == 0 else 3) for s in range(6)]
