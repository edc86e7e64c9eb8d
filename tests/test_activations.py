"""Tracing does not change the run.

Traced or not, a call runs its clause body in an activation environment;
the trace only closes each step over that environment where it is
emitted. Both runs must give the same reason, detail, call chain, store
and output on the corpus, the hand-built golden cases and every
generator family.
"""

import pytest

import proggen
import test_golden
from conftest import CORPUS
from sidebyside import GENERATED_MAX_DEPTH, observe

ROUNDS = 100


def assert_agree(program, max_depth=10000):
    untraced = observe(program, max_depth, traced=False)
    traced = observe(program, max_depth, traced=True)
    assert untraced[:3] == traced[:3]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.cmod")), ids=lambda p: p.stem)
def test_corpus_runs_agree(path):
    assert_agree(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(test_golden.CASES))
def test_golden_case_runs_agree(name):
    assert_agree(test_golden.CASES[name]())


@pytest.mark.parametrize("family", sorted(proggen.FAMILIES))
def test_family_runs_agree(family):
    for name, seeds, stmt in proggen.family_programs(ROUNDS, [family]):
        assert_agree((seeds, stmt), GENERATED_MAX_DEPTH), name
