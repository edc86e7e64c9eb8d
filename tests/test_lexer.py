import sys

import pytest

from cmod import lexer
from cmod.errors import LexError, ParseError
from cmod.parser import parse_program


def check_offsets(source):
    """Check the offsets that lexing and then parsing source report: each
    token's text starts at its offset, offsets strictly increase and end of
    input is at len(source); an error's line and column are those of its
    offset, where the character or token it names starts."""
    try:
        tokens = lexer.tokenize(source)
    except LexError as exc:
        assert_locates(exc, source)
        assert exc.char == source[exc.offset]
        return
    for kind, lexeme, offset, tok_source in tokens:
        assert tok_source is source
        assert source.startswith('"' if kind == "string" else lexeme, offset), (kind, lexeme, offset)
    offsets = [tok[2] for tok in tokens]
    assert offsets == sorted(set(offsets))
    assert tokens[-1] == ("eof", "", len(source), source)
    try:
        parse_program(tokens)
    except ParseError as exc:
        assert_locates(exc, source)
        kind, lexeme = next(tok[:2] for tok in tokens if tok[2] == exc.offset)
        assert (exc.found, exc.at_eof) == (("end of input", True) if kind == "eof" else (repr(lexeme), False))


def assert_locates(error, source):
    before = source[: error.offset].split("\n")
    assert (error.line, error.column) == (len(before), len(before[-1]) + 1)
    assert str(error).startswith(f"{error.line}:{error.column}: ")


def tokenize(source):
    """lexer.tokenize(source), each source these tests lex checked first."""
    check_offsets(source)
    return lexer.tokenize(source)


def kinds_and_lexemes(tokens):
    return [tok[:2] for tok in tokens]


def position(tok):
    """(line, column) of a token, as a diagnostic at its offset reports them."""
    kind, lexeme, offset, source = tok
    error = ParseError(source, offset, "", "")
    return error.line, error.column


def test_offsets_hold_on_the_corpus_with_each_token_dropped(corpus_files):
    for path in corpus_files:
        source = path.read_text(encoding="utf-8")
        check_offsets(source)
        for kind, lexeme, offset, _ in lexer.tokenize(source):
            if kind != "string":  # its lexeme is the unescaped text
                check_offsets(source[:offset] + source[offset + len(lexeme):])


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
    assert position(tokens[0]) == (1, 1)
    assert position(tokens[2]) == (1, 5)
    assert position(tokens[3]) == (2, 3)  # y
    assert position(tokens[5]) == (2, 7)  # 22


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
    lexemes = [tok[1] for tok in tokens[:-1]]
    assert lexemes == ["=>", "==", "!=", "<=", ">=", "&&", "||", "=", "<", ">"]


def test_string_escapes():
    tokens = tokenize(r'"a\nb\t\"\\"')
    assert tokens[0][:2] == ("string", 'a\nb\t"\\')


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
    assert tokenize("x = " + "1" * limit)[2][0] == "int"
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
    assert [(tok[1], *position(tok)) for tok in tokens] == [
        ("x", 1, 2),
        ("=", 1, 5),
        ("1", 1, 8),
        ("y", 2, 2),
        ("", 2, 3),
    ]


def test_end_of_input_after_a_trailing_comment():
    for source, line, column in [("x % note", 1, 9), ("x\n% note", 2, 7)]:
        eof = tokenize(source)[-1]
        assert eof == ("eof", "", len(source), source) and position(eof) == (line, column)


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
