"""Scanner unit tests: tokens, strings, procedures, radix numbers."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.postscript.objects import Name, PSArray, PSError, String
from repro.postscript.scanner import EOF, Scanner


def scan_all(text):
    return list(Scanner(text))


class TestNumbers:
    def test_integer(self):
        assert scan_all("42") == [42]

    def test_negative_integer(self):
        assert scan_all("-17") == [-17]

    def test_real(self):
        (obj,) = scan_all("3.5")
        assert obj == 3.5 and isinstance(obj, float)

    def test_real_exponent(self):
        assert scan_all("1.5e3") == [1500.0]

    def test_leading_dot_real(self):
        assert scan_all(".5") == [0.5]

    def test_radix_16(self):
        assert scan_all("16#000023d8") == [0x23D8]

    def test_radix_2(self):
        assert scan_all("2#1010") == [10]

    def test_radix_8(self):
        assert scan_all("8#777") == [0o777]

    def test_bad_radix_digits_raises(self):
        with pytest.raises(PSError):
            scan_all("16#zz")

    def test_number_like_name_is_name(self):
        (obj,) = scan_all("1abc#")
        assert isinstance(obj, Name)

    @pytest.mark.parametrize("text", ["1_000", "1_0.5", "\u0661\u0662",
                                      "10#\u0661", "-inf", "+nan", "16#"])
    def test_python_only_numerals_are_names(self, text):
        # int()/float() accept these; PostScript does not
        (obj,) = scan_all(text)
        assert isinstance(obj, Name) and obj.text == text

    @pytest.mark.parametrize("text", ["2#1_0", "16#0x1f"])
    def test_python_only_radix_digits_raise(self, text):
        with pytest.raises(PSError):
            scan_all(text)


class TestNames:
    def test_executable_name(self):
        (obj,) = scan_all("add")
        assert isinstance(obj, Name) and obj.text == "add" and not obj.literal

    def test_literal_name(self):
        (obj,) = scan_all("/foo")
        assert isinstance(obj, Name) and obj.text == "foo" and obj.literal

    def test_ampersand_name(self):
        """Names like &elemsize from the paper's ARRAY code are ordinary."""
        (obj,) = scan_all("&elemsize")
        assert isinstance(obj, Name) and obj.text == "&elemsize"

    def test_name_with_underscore_and_dot(self):
        (obj,) = scan_all("ExpressionServer.lookup")
        assert obj.text == "ExpressionServer.lookup"

    def test_anchor_symbol_name(self):
        (obj,) = scan_all("/_stanchor__V2935334b_e288a")
        assert obj.text == "_stanchor__V2935334b_e288a" and obj.literal

    def test_names_split_at_delimiters(self):
        objs = scan_all("a/b")
        assert [o.text for o in objs] == ["a", "b"]
        assert not objs[0].literal and objs[1].literal


class TestStrings:
    def test_simple(self):
        (obj,) = scan_all("(hello)")
        assert isinstance(obj, String) and obj.text == "hello"

    def test_nested_parens(self):
        (obj,) = scan_all("(a (b) c)")
        assert obj.text == "a (b) c"

    def test_escapes(self):
        (obj,) = scan_all(r"(a\nb\tc\\d\(e\))")
        assert obj.text == "a\nb\tc\\d(e)"

    def test_octal_escape(self):
        (obj,) = scan_all(r"(\101\102)")
        assert obj.text == "AB"

    def test_line_continuation(self):
        (obj,) = scan_all("(a\\\nb)")
        assert obj.text == "ab"

    def test_multiline_string(self):
        (obj,) = scan_all("(line one\nline two)")
        assert obj.text == "line one\nline two"

    def test_unterminated_raises(self):
        with pytest.raises(PSError):
            scan_all("(oops")

    def test_string_containing_postscript(self):
        """The deferral technique quotes code as a string (Sec. 5)."""
        (obj,) = scan_all("({INT} 30 Regset0 Absolute)")
        assert obj.text == "{INT} 30 Regset0 Absolute"


class TestProcedures:
    def test_flat_procedure(self):
        (obj,) = scan_all("{1 2 add}")
        assert isinstance(obj, PSArray) and not obj.literal
        assert obj.items[0] == 1 and obj.items[1] == 2
        assert obj.items[2].text == "add"

    def test_nested_procedure(self):
        (obj,) = scan_all("{ { 1 } { 2 } ifelse }")
        assert isinstance(obj.items[0], PSArray)
        assert isinstance(obj.items[1], PSArray)

    def test_unmatched_close_raises(self):
        with pytest.raises(PSError):
            scan_all("}")

    def test_unterminated_raises(self):
        with pytest.raises(PSError):
            scan_all("{1 2")


class TestStructure:
    def test_brackets_are_names(self):
        objs = scan_all("[1 2]")
        assert objs[0].text == "[" and objs[-1].text == "]"

    def test_dict_brackets_are_names(self):
        objs = scan_all("<< /a 1 >>")
        assert objs[0].text == "<<" and objs[-1].text == ">>"

    def test_hex_string_rejected(self):
        with pytest.raises(PSError):
            scan_all("<41>")

    def test_comment_skipped(self):
        assert scan_all("1 % comment\n2") == [1, 2]

    def test_comment_at_eof(self):
        assert scan_all("1 % trailing") == [1]

    def test_empty_input(self):
        assert scan_all("") == []

    def test_whitespace_only(self):
        assert scan_all(" \t\n\r ") == []


class TestStreamInput:
    def test_scan_from_stream(self):
        stream = io.StringIO("1 2 add\n(more)\n")
        objs = list(Scanner(stream))
        assert objs[0] == 1 and objs[1] == 2
        assert objs[3].text == "more"

    def test_scan_from_bytes_stream(self):
        stream = io.BytesIO(b"/x 10 def\n")
        objs = list(Scanner(stream))
        assert objs[0].text == "x" and objs[1] == 10

    def test_incremental_objects(self):
        scanner = Scanner(io.StringIO("1 2"))
        assert scanner.next_object() == 1
        assert scanner.next_object() == 2
        assert scanner.next_object() is EOF


class TestRoundTrip:
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_integers_round_trip(self, n):
        assert scan_all(str(n)) == [n]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_radix_16_round_trip(self, n):
        assert scan_all("16#%08x" % n) == [n]

    @given(st.text(alphabet=st.characters(blacklist_characters="()\\"),
                   max_size=100))
    def test_plain_strings_round_trip(self, text):
        (obj,) = scan_all("(%s)" % text)
        assert obj.text == text

    @given(st.text(alphabet="abcdefgXYZ&_.0", min_size=1, max_size=30))
    def test_names_round_trip(self, text):
        if text[0].isdigit():
            text = "x" + text
        (obj,) = scan_all("/" + text)
        assert obj.text == text
