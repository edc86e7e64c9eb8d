import sys

import pytest

from cmod.errors import LexError
from cmod.lexer import tokenize


def kinds_and_lexemes(tokens):
    return [(t.kind, t.lexeme) for t in tokens]


def test_simple_call():
    tokens = tokenize("Age(tom);")
    assert kinds_and_lexemes(tokens) == [
        ("ident", "Age"),
        ("punct", "("),
        ("ident", "tom"),
        ("punct", ")"),
        ("punct", ";"),
        ("eof", ""),
    ]


def test_empty_input_is_just_the_end_marker():
    tokens = tokenize("")
    assert kinds_and_lexemes(tokens) == [("eof", "")]


def test_comment_dropped():
    # hand-built expected token list
    tokens = tokenize("x = 100 % pay")
    assert kinds_and_lexemes(tokens) == [
        ("ident", "x"),
        ("punct", "="),
        ("int", "100"),
        ("eof", ""),
    ]


def test_comment_runs_to_end_of_line_only():
    tokens = tokenize("% first\ny = 2")
    assert kinds_and_lexemes(tokens)[:3] == [("ident", "y"), ("punct", "="), ("int", "2")]


def test_positions_are_one_based():
    tokens = tokenize("x = 1\n  y = 22")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[2].line, tokens[2].column) == (1, 5)
    assert (tokens[3].line, tokens[3].column) == (2, 3)  # y
    assert (tokens[5].line, tokens[5].column) == (2, 7)  # 22


def test_keywords_and_identifiers():
    tokens = tokenize("module modules _tmp x9 forall")
    assert kinds_and_lexemes(tokens)[:-1] == [
        ("keyword", "module"),
        ("ident", "modules"),
        ("ident", "_tmp"),
        ("ident", "x9"),
        ("keyword", "forall"),
    ]


def test_two_char_operators_before_one_char():
    tokens = tokenize("=> == != <= >= && || = < >")
    lexemes = [t.lexeme for t in tokens[:-1]]
    assert lexemes == ["=>", "==", "!=", "<=", ">=", "&&", "||", "=", "<", ">"]


def test_string_escapes():
    tokens = tokenize(r'"a\nb\t\"\\"')
    assert tokens[0].kind == "string"
    assert tokens[0].lexeme == 'a\nb\t"\\'


@pytest.mark.parametrize("source", ["$100", "deposit(tom, $100)", "a & b", "a | b", "#x"])
def test_lex_error_on_foreign_characters(source):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert info.value.line >= 1 and info.value.column >= 1


def test_lex_error_position_points_at_offender():
    with pytest.raises(LexError) as info:
        tokenize("x = 1;\n y = $2")
    assert (info.value.line, info.value.column) == (2, 6)
    assert info.value.char == "$"


def test_unterminated_string():
    with pytest.raises(LexError) as info:
        tokenize('msg = "oops')
    assert info.value.column == 7


@pytest.mark.parametrize("digits", ["\u00b2", "\u0661\u0662", "\uff11"])
def test_integers_are_ascii_digits_only(digits):
    # superscript two, Arabic-Indic twelve, full-width one: str.isdigit
    # accepts them all and int() reads the last two as numbers
    with pytest.raises(LexError) as info:
        tokenize(f"x = {digits}")
    assert (info.value.line, info.value.column, info.value.char) == (1, 5, digits[0])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
def test_integer_literal_past_the_conversion_limit_is_a_lex_error():
    limit = sys.get_int_max_str_digits()
    assert tokenize("x = " + "1" * limit)[2].kind == "int"
    with pytest.raises(LexError) as info:
        tokenize("x = " + "0" * (limit + 1))
    assert (info.value.line, info.value.column) == (1, 5)
    assert str(info.value) == f"1:5: integer literal longer than {limit} digits"
