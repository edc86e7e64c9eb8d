"""The side-by-side harness's tree encoding round-trips, so a harness
that no longer carries trees across shows here, not only when it runs
against a base commit."""

from __future__ import annotations

import pytest

import proggen
import sidebyside
import test_golden


def _round_trips(seeds, main) -> None:
    for tree in [*seeds, main]:
        assert sidebyside.decode(sidebyside.encode(tree)) == tree


@pytest.mark.parametrize("name", sorted(test_golden.CASES))
def test_golden_case_trees_round_trip(name):
    _round_trips(*test_golden.CASES[name]())


@pytest.mark.parametrize("family", sorted(proggen.FAMILIES))
def test_generated_trees_round_trip(family):
    for _, seeds, main in proggen.family_programs(5, [family]):
        _round_trips(seeds, main)
