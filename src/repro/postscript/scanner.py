"""Scanner for ldb's PostScript dialect.

The scanner reads PostScript source incrementally — from a string or from a
stream such as the open pipe to the expression server — and yields fully
built objects: numbers, names, strings, and procedure bodies (``{...}``).

The tokens ``[``, ``]``, ``<<`` and ``>>`` are returned as executable names;
the corresponding operators (mark, array-building, dict-building) live in
systemdict, exactly as in Adobe PostScript.

Radix numbers (``16#000023d8``) are supported because the loader table
(paper Sec. 3) uses them for addresses.

The scanner has a deliberately fast path for string bodies: the paper
(Sec. 5) defers the *lexical analysis* of quoted PostScript code by reading
it as a string, which "the scanner reads quickly", cutting symbol-table read
time by 40%.  ``bench_deferral.py`` measures that effect against this
implementation.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, List, Optional, Union

from .objects import Name, PSArray, PSError, String

_WHITESPACE = " \t\r\n\f\0"
_DELIMITERS = "()<>[]{}/%"
_REGULAR_BREAK = set(_WHITESPACE) | set(_DELIMITERS)


class CharSource:
    """An incremental character source over a string or a readable stream.

    Stream input is buffered a line at a time so that scanning an open pipe
    makes progress as soon as the writer sends a newline-terminated chunk.
    """

    def __init__(self, source: Union[str, Any], name: str = "<ps>"):
        self.name = name
        if isinstance(source, str):
            self._buf = source
            self._stream = None
        else:
            self._buf = ""
            self._stream = source
        self._pos = 0
        self.line = 1

    def _fill(self) -> bool:
        """Refill the buffer from the stream; False at end of input."""
        if self._stream is None:
            return False
        chunk = self._stream.readline()
        if isinstance(chunk, bytes):
            chunk = chunk.decode("latin-1")
        if not chunk:
            return False
        self._buf = self._buf[self._pos :] + chunk
        self._pos = 0
        return True

    def peek(self) -> str:
        """The next character, or '' at end of input."""
        if self._pos >= len(self._buf) and not self._fill():
            return ""
        return self._buf[self._pos]

    def next(self) -> str:
        ch = self.peek()
        if ch:
            self._pos += 1
            if ch == "\n":
                self.line += 1
        return ch

    def take_while(self, pred) -> str:
        """Consume and return the longest prefix satisfying ``pred``."""
        pieces: List[str] = []
        while True:
            start = self._pos
            buf = self._buf
            n = len(buf)
            i = start
            while i < n and pred(buf[i]):
                i += 1
            if i > start:
                pieces.append(buf[start:i])
                self.line += buf.count("\n", start, i)
                self._pos = i
            if i < n or not self._fill():
                break
        return "".join(pieces)


class Scanner:
    """Reads PostScript objects one at a time from a :class:`CharSource`."""

    def __init__(self, source: Union[str, Any], name: str = "<ps>"):
        self.src = source if isinstance(source, CharSource) else CharSource(source, name)

    def __iter__(self) -> Iterator[Any]:
        while True:
            obj = self.next_object()
            if obj is _EOF:
                return
            yield obj

    def next_object(self) -> Any:
        """Scan and return the next object, or the EOF sentinel.

        ``{`` builds a complete (possibly nested) procedure body.
        """
        token = self._next_token()
        if token is _EOF:
            return _EOF
        if token == "{":
            return self._scan_procedure()
        if token == "}":
            raise PSError("syntaxerror", "unmatched } at line %d" % self.src.line)
        return token

    def _scan_procedure(self) -> PSArray:
        items: List[Any] = []
        while True:
            token = self._next_token()
            if token is _EOF:
                raise PSError("syntaxerror", "unterminated procedure")
            if token == "}":
                proc = PSArray(items)
                proc.literal = False
                return proc
            if token == "{":
                items.append(self._scan_procedure())
            else:
                items.append(token)

    def _next_token(self) -> Any:
        src = self.src
        while True:
            src.take_while(lambda c: c in _WHITESPACE)
            ch = src.peek()
            if ch == "":
                return _EOF
            if ch == "%":
                src.take_while(lambda c: c != "\n")
                continue
            break
        if ch == "(":
            return self._scan_string()
        if ch == "/":
            src.next()
            if src.peek() == "/":  # immediate names are treated as literal
                src.next()
            text = src.take_while(lambda c: c not in _REGULAR_BREAK)
            return Name(text, literal=True)
        if ch in "{}":
            src.next()
            return ch
        if ch in "[]":
            src.next()
            return Name(ch, literal=False)
        if ch == "<":
            src.next()
            if src.peek() != "<":
                raise PSError("syntaxerror", "hex strings are not in the dialect")
            src.next()
            return Name("<<", literal=False)
        if ch == ">":
            src.next()
            if src.peek() != ">":
                raise PSError("syntaxerror", "stray > at line %d" % src.line)
            src.next()
            return Name(">>", literal=False)
        if ch == ")":
            raise PSError("syntaxerror", "unmatched ) at line %d" % src.line)
        text = src.take_while(lambda c: c not in _REGULAR_BREAK)
        number = _parse_number(text)
        if number is not None:
            return number
        return Name(text, literal=False)

    def _scan_string(self) -> String:
        """Scan a ``(...)`` string with nesting and backslash escapes.

        This is the dialect's fast path: the common case (no escapes) is a
        bulk scan for the matching parenthesis.
        """
        src = self.src
        src.next()  # consume '('
        depth = 1
        pieces: List[str] = []
        while True:
            run = src.take_while(lambda c: c not in "()\\")
            if run:
                pieces.append(run)
            ch = src.next()
            if ch == "":
                raise PSError("syntaxerror", "unterminated string")
            if ch == "(":
                depth += 1
                pieces.append("(")
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return String("".join(pieces))
                pieces.append(")")
            else:  # backslash escape
                esc = src.next()
                if esc == "":
                    raise PSError("syntaxerror", "unterminated string escape")
                if esc == "n":
                    pieces.append("\n")
                elif esc == "t":
                    pieces.append("\t")
                elif esc == "r":
                    pieces.append("\r")
                elif esc == "\n":
                    pass  # line continuation
                elif esc in "01234567":
                    digits = esc
                    while len(digits) < 3 and src.peek() in "01234567":
                        digits += src.next()
                    pieces.append(chr(int(digits, 8)))
                else:
                    pieces.append(esc)  # \\, \(, \) and unknown escapes


#: PostScript number syntax.  Python's int() and float() also take
#: underscores, non-ASCII digits, "inf"/"nan" and "0x" prefixes, none
#: of which PostScript has.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_REAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _parse_number(text: str) -> Optional[Union[int, float]]:
    """Parse ``text`` as a PostScript number, or return None.

    Handles integers, reals, and radix numbers like ``16#000023d8``.
    """
    if not text or text[0] not in "0123456789+-." or not text.isascii():
        return None
    if "#" in text:
        base_text, _, digits = text.partition("#")
        if not base_text.isdigit():
            return None
        base = int(base_text)
        if not 2 <= base <= 36 or not digits:
            return None
        # strip() leaves nothing only if every character is a digit
        # of this base
        if digits.lower().strip(_DIGITS[:base]):
            raise PSError("syntaxerror", "bad radix number %r" % text)
        return int(digits, base)
    if text.isdigit() or _INTEGER.fullmatch(text):
        return int(text)
    if _REAL.fullmatch(text):
        return float(text)
    return None


class _Eof:
    def __repr__(self) -> str:
        return "<EOF>"


#: Sentinel returned by :meth:`Scanner.next_object` at end of input.
_EOF = _Eof()
EOF = _EOF
