"""Free-group words over the ordered generators a0 < a1 < ... of finite rank.

This is the raw input layer: words are freely reduced sequences of
(generator, exponent) syllables, with no group relations applied beyond
free cancellation.  Everything deeper (collection, truncation) lives in
:mod:`metanil.core`.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParseError(ValueError):
    """Malformed word text; carries the offending source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


@dataclass(frozen=True)
class GroupParams:
    """Rank d and nilpotency class k of the ambient group.

    The generating set is the index set 0..d-1; nonabelian statements
    (automorphism decisions in particular) additionally require d >= 2.
    """

    rank: int
    nilclass: int

    def __post_init__(self):
        if self.rank < 1:
            raise DomainError(f"rank must be >= 1, got {self.rank}")
        if self.nilclass < 1:
            raise DomainError(f"class must be >= 1, got {self.nilclass}")


def generator_name(i: int) -> str:
    """Print name of generator i: aliases a, b, c for 0, 1, 2, then a3, a4, ..."""
    return "abc"[i] if 0 <= i < 3 else f"a{i}"


def _reduce(letters) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for g, e in letters:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """Freely reduced word, stored as (generator index, nonzero exponent) syllables."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce(self.letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inv(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inv() ** (-n)
        out = Word()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(
            generator_name(g) if e == 1 else f"{generator_name(g)}^{e}"
            for g, e in self.letters
        )


def commutator_word(x: Word, y: Word) -> Word:
    """[x, y] = x^-1 y^-1 x y as a freely reduced word."""
    return x.inv() * y.inv() * x * y


def left_normed_word(ws: list[Word]) -> Word:
    """Left-normed bracket [w1, ..., wn] = [[w1, ..., w_{n-1}], wn]."""
    if not ws:
        raise DomainError("left-normed bracket of an empty list")
    acc = ws[0]
    for w in ws[1:]:
        acc = commutator_word(acc, w)
    return acc


def retract(w: Word, keep: set[int]) -> Word:
    """Delete every letter whose generator is outside `keep`, then reduce.

    This is the retraction endomorphism onto the subgroup generated by `keep`
    (substituting the identity for every other generator).
    """
    return Word(tuple((g, e) for g, e in w.letters if g in keep))


# --- parser -----------------------------------------------------------------
#
# Grammar (whitespace separates terms, juxtaposition is product):
#   expr := term+ ; term := atom ('^' int)? ;
#   atom := NAME | '1' | '(' expr ')' | '[' expr (',' expr)+ ']'
#   NAME := single letter a..z (alias for index 0..25) or 'a' followed by digits.
# Brackets are left-normed: [x,y,z] = [[x,y],z].  A lone '1' is the identity.

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The parser recurses once per '(' / '[' level; deeper input is refused
# before it can exhaust the interpreter stack.
_MAX_NESTING = 200


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "[](),^":
            toks.append((ch, None, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in "+-":
            toks.append(("sign", -1 if ch == "-" else 1, i))
            i += 1
            continue
        if ch in _LETTERS:
            if ch == "a" and i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(("gen", int(text[i + 1 : j]), i))
                i = j
                continue
            toks.append(("gen", _LETTERS.index(ch), i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text: str, params: GroupParams):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.params = params

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse_expr(self, allow_empty=False) -> Word:
        terms = []
        while self.peek()[0] in ("gen", "(", "[", "int"):
            terms.append(self.parse_term())
        if not terms and not allow_empty:
            raise ParseError("expected a term", self.peek()[2])
        out = Word()
        for t in terms:
            out = out * t
        return out

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            return atom ** self.parse_int()
        return atom

    def parse_int(self) -> int:
        sign = 1
        if self.peek()[0] == "sign":
            sign = self.next()[1]
        tok = self.expect("int")
        return sign * tok[1]

    def parse_atom(self) -> Word:
        kind, value, pos = self.next()
        if kind == "gen":
            if value >= self.params.rank:
                raise ParseError(
                    f"generator index {value} out of range for rank {self.params.rank}",
                    pos,
                )
            return Word(((value, 1),))
        if kind == "int":
            if value == 1:
                return Word()
            raise ParseError("expected a generator, '(' or '['", pos)
        if kind in ("(", "["):
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise DomainError(
                    f"nesting deeper than {_MAX_NESTING} levels (at position {pos})"
                )
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "[":
            parts = [self.parse_expr()]
            while self.peek()[0] == ",":
                self.next()
                parts.append(self.parse_expr())
            self.expect("]")
            self.depth -= 1
            if len(parts) < 2:
                raise ParseError("bracket needs at least two arguments", pos)
            return left_normed_word(parts)
        raise ParseError("expected a generator, '(' or '['", pos)


def parse_word(text: str, params: GroupParams) -> Word:
    """Parse `text` into a freely reduced Word, expanding powers and brackets."""
    p = _Parser(text, params)
    w = p.parse_expr(allow_empty=True)
    end = p.peek()
    if end[0] != "end":
        raise ParseError(f"unexpected token {end[0]!r}", end[2])
    return w
