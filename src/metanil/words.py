"""Word text, and free-group words over the ordered generators a0 < a1 < ....

This is the raw input layer.  One parser evaluates word text with the
operations it is handed: :func:`parse_word` passes those of :class:`Word`
(freely reduced (generator, exponent) syllables, the Magnus oracle's
input), :func:`metanil.core.collect_text` those of the group.

A Word is freely reduced once, when it is built from untrusted letters.
Products, inverses, powers and brackets of Words keep that invariant
without re-reducing: a product cancels and merges syllables only at the
junction of its two operands.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial, reduce


class ParseError(ValueError):
    """Malformed word text; carries the offending source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


class PayloadError(ValueError):
    """A JSON payload lacks a field or holds a value of the wrong type."""


class EngineFault(RuntimeError):
    """An internal consistency check failed: a bug, never a verdict or bad input."""


MAX_RANK = 1 << 16  # each exponent vector holds one int per generator; README gives the cost


class GroupParams(namedtuple("GroupParams", "rank nilclass")):
    """Rank d and nilpotency class k of the ambient group.

    The generating set is the index set 0..d-1, d <= MAX_RANK; nonabelian
    statements (automorphism decisions in particular) also require d >= 2.
    """

    __slots__ = ()

    def __new__(cls, rank: int, nilclass: int):
        if rank < 1:
            raise DomainError(f"rank must be >= 1, got {rank}")
        if rank > MAX_RANK:
            raise DomainError(f"rank must be <= {MAX_RANK}, got {rank}")
        if nilclass < 1:
            raise DomainError(f"class must be >= 1, got {nilclass}")
        return super().__new__(cls, rank, nilclass)


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


# A product of Words whose operands hold more syllables than this together
# is refused before it is built, so powers and brackets fail fast too.
MAX_WORD_SYLLABLES = 100_000


@dataclass(frozen=True)
class Word:
    """Freely reduced word, stored as (generator index, nonzero exponent) syllables.

    Invariant: no exponent is zero and no two neighbouring syllables share a
    generator.  ``Word(letters)`` establishes it by reducing the letters it is
    given; every operation below builds its result from operands that already
    hold it, through ``_from_reduced``, and never reduces a whole word again.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce(self.letters))

    @classmethod
    def _from_reduced(cls, letters: tuple[tuple[int, int], ...]) -> "Word":
        """A Word of `letters`, which must already be freely reduced (not checked)."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __mul__(self, other: "Word") -> "Word":
        a, b = self.letters, other.letters
        n = len(a) + len(b)
        if n > MAX_WORD_SYLLABLES:
            raise DomainError(f"a Word product of {n} syllables exceeds {MAX_WORD_SYLLABLES}")
        # cancel inverse syllables across the junction, then merge the two
        # boundary syllables if they share a generator
        i, m, end = 0, min(len(a), len(b)), len(a) - 1
        while i < m and a[end - i][0] == b[i][0]:
            e = a[end - i][1] + b[i][1]
            if e:
                return Word._from_reduced(a[: end - i] + ((b[i][0], e),) + b[i + 1 :])
            i += 1
        return Word._from_reduced(a[: len(a) - i] + b[i:])

    def inv(self) -> "Word":
        return Word._from_reduced(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inv() ** (-n)
        out = Word()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
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

# The five operations the parser evaluates a word text with.
WordOps = namedtuple("WordOps", "identity generator product power bracket")

_WORD_OPS = WordOps(
    Word,
    lambda i: Word._from_reduced(((i, 1),)),
    Word.__mul__,
    Word.__pow__,
    partial(reduce, commutator_word),
)


def _digits(text: str, i: int) -> tuple[int, int]:
    """The decimal literal at text[i:] and its end; past the digit limit, a ParseError."""
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    try:
        return int(text[i:j]), j
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError(f"integer literal of {j - i} digits is too long", i) from None


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
        if ch.isdecimal() or ch == "a" and text[i + 1 : i + 2].isdecimal():
            value, j = _digits(text, i + (ch == "a"))  # a0, a1, ... name generators
            toks.append(("gen" if ch == "a" else "int", value, i))
            i = j
            continue
        if ch in "+-":
            toks.append(("sign", -1 if ch == "-" else 1, i))
            i += 1
            continue
        if ch in _LETTERS:
            toks.append(("gen", _LETTERS.index(ch), i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text: str, params: GroupParams, ops: WordOps):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.params = params
        self.ops = ops

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

    def parse_expr(self, allow_empty=False):
        terms = []
        while self.peek()[0] in ("gen", "(", "[", "int"):
            terms.append(self.parse_term())
        if not terms and not allow_empty:
            raise ParseError("expected a term", self.peek()[2])
        return reduce(self.ops.product, terms) if terms else self.ops.identity()

    def parse_term(self):
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            return self.ops.power(atom, self.parse_int())
        return atom

    def parse_int(self) -> int:
        sign = 1
        if self.peek()[0] == "sign":
            sign = self.next()[1]
        tok = self.expect("int")
        return sign * tok[1]

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "gen":
            if value >= self.params.rank:
                raise ParseError(
                    f"generator index {value} out of range for rank {self.params.rank}",
                    pos,
                )
            return self.ops.generator(value)
        if kind == "int":
            if value == 1:
                return self.ops.identity()
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
            return self.ops.bracket(parts)
        raise ParseError("expected a generator, '(' or '['", pos)


def evaluate(text: str, params: GroupParams, ops: WordOps):
    """Parse `text` and evaluate it with `ops`.

    Syntax, nesting depth and generator range are checked here, so those
    errors are the same whatever `ops` is.
    """
    p = _Parser(text, params, ops)
    value = p.parse_expr(allow_empty=True)
    end = p.peek()
    if end[0] != "end":
        raise ParseError(f"unexpected token {end[0]!r}", end[2])
    return value


def parse_word(text: str, params: GroupParams) -> Word:
    """Parse `text` into a freely reduced Word, expanding powers and brackets.

    A product past MAX_WORD_SYLLABLES raises DomainError before it is built;
    metanil.core.collect_text evaluates the text without building a Word.
    """
    return evaluate(text, params, _WORD_OPS)
