"""The side-by-side harness's tree encoding round-trips and its soup
digests tell lex errors, parse errors and trees apart, so a harness that
no longer carries inputs across shows here, not only when it runs
against a base commit."""

from __future__ import annotations

import json
import types

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


def test_a_soup_that_does_not_lex_is_its_lex_error():
    assert sidebyside.soup_digest('x = "a\\q"') == "LexError '\\\\' 1:7: bad escape sequence"


def test_a_soup_that_does_not_parse_is_its_tokens_and_parse_error():
    assert sidebyside.soup_digest("x =") == (
        "[('ident', 'x', 1, 1), ('punct', '=', 1, 3), ('eof', '', 1, 4)]\n"
        "ParseError 1:4: expected expression, found end of input at_eof=True"
    )


def test_a_soup_that_parses_is_its_tokens_and_tree():
    lexed, tree = sidebyside.soup_digest("print(7)").split("\n")
    assert lexed.startswith("[('keyword', 'print', 1, 1), ('punct', '(', 1, 6)")
    assert json.loads(tree) == ["SourceProgram", ["()"], ["()"], ["Print", ["Int", 7]]]


def test_a_token_reads_the_same_as_a_node_or_as_a_tuple():
    # a base before tokens became tuples lexes Token nodes with a line and column
    node = types.SimpleNamespace(kind="ident", lexeme="y", line=2, column=3)
    source = "x =\n  y"
    assert sidebyside.token_fields(node) == sidebyside.token_fields(("ident", "y", 6, source)) == ("ident", "y", 2, 3)


@pytest.mark.parametrize(
    "source, digest",
    [
        ("x = ; $", "LexError 1:7: unexpected character '$' at_eof=None"),
        ("x =", "ParseError 1:4: expected expression, found end of input at_eof=True"),
        ("print(7)", '["SourceProgram", ["()"], ["()"], ["Print", ["Int", 7]]]'),
    ],
    ids=["lex-error-after-parse-error", "parse-error", "tree"],
)
def test_a_streamed_soup_is_its_tree_or_first_error(source, digest):
    assert sidebyside.streamed_digest(source) == digest


def test_soups_are_seeded():
    assert list(sidebyside.soups(50)) == list(sidebyside.soups(50))
    assert len({source for _, source in sidebyside.soups(50)}) > 40


def test_the_summary_counts_differing_inputs_by_family():
    names = ["corpus/a.cmod", "golden/b", *(f"closure-{i}" for i in range(7)), "soup/0", "soup/1"]
    items = [{"name": name, **({"soup": ""} if name.startswith("soup/") else {})} for name in names]
    base = [["s"] if "soup" in item else ["u", "t"] for item in items]
    head = [list(hashes) for hashes in base]
    assert sidebyside.summary(items, base, head) == ([
        "inputs: 11 (base ran 11, working tree ran 11)",
        "differ untraced: 0, traced: 0, soups: 0",
        "  corpus: 0 of 1 differ",
        "  golden: 0 of 1 differ",
        "  closure: 0 of 7 differ",
        "  soup: 0 of 2 differ",
    ], False)
    for i in (1, 2, 3, 4, 5, 6):
        head[2 + i][i % 2] = "changed"  # closure-1..6, untraced or traced
    head[-1] = ["changed"]
    lines, differs = sidebyside.summary(items, base, head)
    assert differs
    assert lines[1:] == [
        "differ untraced: 3, traced: 3, soups: 1",
        "  corpus: 0 of 1 differ",
        "  golden: 0 of 1 differ",
        "  closure: 6 of 7 differ (closure-1, closure-2, closure-3, closure-4, closure-5)",
        "  soup: 1 of 2 differ (soup/1)",
    ]
    assert sidebyside.family("macro_equivalence-12") == "macro_equivalence"


def _one_change():
    """Two corpus inputs and a soup, the first input's traced run changed."""
    items = [{"name": "corpus/a.cmod"}, {"name": "corpus/b.cmod"}, {"name": "soup/0", "soup": ""}]
    base = [["u", "t"], ["u", "t"], ["s"]]
    head = [["u", "changed"], ["u", "t"], ["s"]]
    return items, base, head


def test_a_listed_difference_is_intended():
    intended = {("traced", "corpus/a.cmod"): "the trace shows the switch"}
    lines, failed = sidebyside.summary(*_one_change(), intended)
    assert not failed
    assert lines[1:] == [
        "differ untraced: 0, traced: 1, soups: 0",
        "  corpus: 1 of 2 differ, 1 as intended (corpus/a.cmod)",
        "  soup: 0 of 1 differ",
        "intended traced corpus/a.cmod: the trace shows the switch",
    ]


def test_a_difference_listed_for_another_mode_still_fails():
    lines, failed = sidebyside.summary(*_one_change(), {("untraced", "corpus/a.cmod"): "no"})
    assert failed
    assert "  corpus: 1 of 2 differ (corpus/a.cmod)" in lines
    assert lines[-1] == "listed as intended, but does not differ: untraced corpus/a.cmod"


@pytest.mark.parametrize(
    "pair, line",
    [
        (("traced", "corpus/b.cmod"), "listed as intended, but does not differ: traced corpus/b.cmod"),
        (("soups", "soup/0"), "listed as intended, but does not differ: soups soup/0"),
        (("traced", "corpus/c.cmod"), "listed as intended, but names no input: traced corpus/c.cmod"),
    ],
    ids=["no-difference", "no-soup-difference", "no-input"],
)
def test_a_stale_listing_fails(pair, line):
    intended = {("traced", "corpus/a.cmod"): "meant", pair: "stale"}
    lines, failed = sidebyside.summary(*_one_change(), intended)
    assert failed
    assert lines[-2:] == ["intended traced corpus/a.cmod: meant", line]


def test_the_intended_list_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "intended.txt"
    path.write_text("# why\n\n  # indented\ntraced corpus/a.cmod: shows the switch: as written\nsoups soup/3: a b\n")
    assert sidebyside.read_intended(path) == {
        ("traced", "corpus/a.cmod"): "shows the switch: as written",
        ("soups", "soup/3"): "a b",
    }


@pytest.mark.parametrize("line", ["traced corpus/a.cmod", "trace corpus/a.cmod: why", "traced : why", "traced x:  "])
def test_a_malformed_intended_line_is_an_error(tmp_path, line):
    path = tmp_path / "intended.txt"
    path.write_text(f"# ok\n{line}\n")
    with pytest.raises(ValueError, match="intended.txt:2: expected '<mode> <input name>: <reason>'"):
        sidebyside.read_intended(path)


def test_the_checked_in_intended_list_reads():
    intended = sidebyside.read_intended(sidebyside.INTENDED)
    assert all(mode in sidebyside.MODES for mode, _ in intended)
