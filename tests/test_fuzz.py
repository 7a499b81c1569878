"""A fixed-seed sample of the single-field fuzz scan of every reader
(``fuzz.py``, which runs every mutant as a script)."""

import pytest

import fuzz


@pytest.fixture(scope="module")
def kinds(tmp_path_factory):
    return fuzz.build_kinds(tmp_path_factory.mktemp("fuzz"))


def test_a_sample_of_single_field_mutants_exits_0_or_2_and_a_refusal_writes_nothing(
        kinds, tmp_path):
    # 100 mutants of each of the 7 input kinds, lone surrogates among them; an
    # LLM reply's strings and 10**400 in the artifact's d once escaped main
    chosen = fuzz.sample(fuzz.mutants(kinds), per_kind=100)
    assert {kind for kind, _, value in chosen if value == "\ud800"} == set(kinds)
    faults = [f"{kind} {list(path)} = {value!r}: {why}" for kind, path, value in chosen
              if (why := fuzz.check(kinds, kind, path, value, tmp_path))]
    assert not faults, "\n".join(faults)
