import sys

import pytest

from cmod.errors import LexError
from cmod.lexer import Token, tokenize


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


def test_a_bad_escape_is_reported_before_a_missing_close():
    with pytest.raises(LexError) as info:
        tokenize('x = "a\\q')
    assert str(info.value) == "1:7: bad escape sequence"
    assert info.value.char == "\\"


def test_a_backslash_before_a_newline_is_a_bad_escape():
    with pytest.raises(LexError) as info:
        tokenize('"ab\\\ncd"')
    assert (info.value.line, info.value.column, str(info.value)) == (1, 4, "1:4: bad escape sequence")


def test_a_string_ends_on_its_own_line():
    with pytest.raises(LexError) as info:
        tokenize('x = 1;\n  "ab\ncd"')
    assert str(info.value) == "2:3: unterminated string literal"


def test_carriage_return_and_tab_are_one_column_each():
    tokens = tokenize("\tx\r\r=\t\t1\r\n y")
    assert [(t.lexeme, t.line, t.column) for t in tokens] == [
        ("x", 1, 2),
        ("=", 1, 5),
        ("1", 1, 8),
        ("y", 2, 2),
        ("", 2, 3),
    ]


def test_end_of_input_after_a_trailing_comment():
    assert tokenize("x % note")[-1] == Token("eof", "", 1, 9)
    assert tokenize("x\n% note")[-1] == Token("eof", "", 2, 7)


def test_digits_then_letters_are_an_int_then_an_identifier():
    assert kinds_and_lexemes(tokenize("12ab")) == [("int", "12"), ("ident", "ab"), ("eof", "")]


def test_an_identifier_goes_on_with_digits_of_any_script():
    assert kinds_and_lexemes(tokenize("x\u00b2 \u00e9\u00bd \u00df_1")) == [
        ("ident", "x\u00b2"),
        ("ident", "\u00e9\u00bd"),
        ("ident", "\u00df_1"),
        ("eof", ""),
    ]


@pytest.mark.parametrize(
    "source, column, char", [("\u00b2x", 1, "\u00b2"), ("\u00bd", 1, "\u00bd"), ("y = \u0663x", 5, "\u0663")]
)
def test_an_identifier_cannot_start_with_a_digit_of_another_script(source, column, char):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert (info.value.column, info.value.char) == (column, char)
    assert str(info.value) == f"1:{column}: unexpected character {char!r}"


def test_the_empty_string():
    assert kinds_and_lexemes(tokenize('""')) == [("string", ""), ("eof", "")]


def test_a_keyword_prefix_is_part_of_an_identifier():
    assert kinds_and_lexemes(tokenize("forall_x forall")) == [
        ("ident", "forall_x"),
        ("keyword", "forall"),
        ("eof", ""),
    ]
