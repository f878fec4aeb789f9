"""Hand-written lexer for the C subset.

Supports decimal/hex/octal integer constants (with ``u``/``l`` suffixes),
floating constants, character constants with the usual escapes, string
literals (adjacent literals are concatenated by the parser), ``//`` and
``/* */`` comments, and the full punctuator set in
:mod:`repro.frontend.tokens`.
"""

from .errors import LexError
from .tokens import (
    KEYWORDS,
    KIND_CHAR,
    KIND_EOF,
    KIND_FLOAT,
    KIND_IDENT,
    KIND_INT,
    KIND_KEYWORD,
    KIND_PUNCT,
    KIND_STRING,
    PUNCTUATORS,
    Token,
)

_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
    "a": 7,
    "b": 8,
    "f": 12,
    "v": 11,
}

#: The largest integer constant: C99 §6.4.4p2 requires a constant to
#: fit its type, and the widest integer type here has 64 bits.  It has
#: at most 22 digits in any base, so a literal with more (leading zeros
#: aside) is too large before it is converted.
_INT_MAX = (1 << 64) - 1
#: C's digits (``str.isdigit`` also accepts other scripts' digits and
#: superscripts, which ``int()`` rejects).
_DECIMAL = frozenset("0123456789")
_HEX = _DECIMAL | frozenset("abcdefABCDEF")


class Lexer:
    """Converts C source text into a list of tokens ending with EOF."""

    def __init__(self, source):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def tokenize(self):
        tokens = []
        while True:
            tok = self._next_token()
            tokens.append(tok)
            if tok.kind == KIND_EOF:
                return tokens

    # -- internals ---------------------------------------------------

    def _peek(self, offset=0):
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def _advance(self, n=1):
        for _ in range(n):
            if self.pos < len(self.src):
                if self.src[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_ws_and_comments(self):
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance(2)
                while self.pos < len(self.src):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated comment", start_line, start_col)
            elif ch == "#":
                # Preprocessor lines (e.g. #include) are skipped: the
                # subset has no preprocessor, but workloads keep the
                # directives for documentation.
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self):
        self._skip_ws_and_comments()
        line, col = self.line, self.col
        if self.pos >= len(self.src):
            return Token(KIND_EOF, "", line, col)
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_ident(line, col)
        if ch in _DECIMAL or (ch == "." and self._peek(1) in _DECIMAL):
            return self._lex_number(line, col)
        if ch == "'":
            return self._lex_char(line, col)
        if ch == '"':
            return self._lex_string(line, col)
        for punct in PUNCTUATORS:
            if self.src.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(KIND_PUNCT, punct, line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)

    def _lex_ident(self, line, col):
        start = self.pos
        while self.pos < len(self.src) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.src[start : self.pos]
        kind = KIND_KEYWORD if text in KEYWORDS else KIND_IDENT
        return Token(kind, text, line, col)

    def _lex_number(self, line, col):
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() in _HEX:
                self._advance()
            digits, base = self.src[start + 2:self.pos], 16
            if not digits:
                raise LexError("hexadecimal constant has no digits", line, col)
        else:
            while self._peek() in _DECIMAL:
                self._advance()
            if self._peek() == "." and self._peek(1) != ".":
                is_float = True
                self._advance()
                while self._peek() in _DECIMAL:
                    self._advance()
            if self._peek() in "eE" and (
                self._peek(1) in _DECIMAL
                or (self._peek(1) in "+-" and self._peek(2) in _DECIMAL)
            ):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek() in _DECIMAL:
                    self._advance()
            digits = self.src[start:self.pos]
            base = 8 if digits.startswith("0") else 10
            if base == 8 and not is_float and max(digits) > "7":
                raise LexError(f"invalid digit '{max(digits)}' in octal "
                               f"constant", line, col)
        if is_float:
            value = float(digits)
        else:
            value = (int(digits, base)
                     if len(digits.lstrip("0")) <= 22 else None)
            if value is None or value > _INT_MAX:
                raise LexError("integer constant is too large for its type",
                               line, col)
        # Suffixes: u/U/l/L in any combination; f/F forces float.
        # (guard: "" is a substring of any string, so test non-empty first)
        while self._peek() and self._peek() in "uUlLfF":
            self._advance()
        if is_float:
            return Token(KIND_FLOAT, value, line, col)
        return Token(KIND_INT, value, line, col)

    def _read_escape(self, line, col):
        self._advance()  # backslash
        ch = self._peek()
        if ch == "x":
            self._advance()
            digits = ""
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                digits += self._peek()
                self._advance()
            if not digits:
                raise LexError("bad hex escape", line, col)
            return int(digits, 16) & 0xFF
        if ch in _ESCAPES:
            self._advance()
            return _ESCAPES[ch]
        raise LexError(f"unknown escape \\{ch}", line, col)

    def _lex_char(self, line, col):
        self._advance()  # opening quote
        if self._peek() == "\\":
            value = self._read_escape(line, col)
        else:
            if not self._peek():
                raise LexError("unterminated character constant", line, col)
            value = ord(self._peek())
            self._advance()
        if self._peek() != "'":
            raise LexError("unterminated character constant", line, col)
        self._advance()
        return Token(KIND_CHAR, value, line, col)

    def _lex_string(self, line, col):
        self._advance()  # opening quote
        data = bytearray()
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexError("unterminated string literal", line, col)
            if ch == '"':
                self._advance()
                return Token(KIND_STRING, bytes(data), line, col)
            if ch == "\\":
                data.append(self._read_escape(line, col))
            else:
                data.append(ord(ch))
                self._advance()


def tokenize(source):
    """Convenience wrapper: lex ``source`` and return the token list."""
    return Lexer(source).tokenize()
