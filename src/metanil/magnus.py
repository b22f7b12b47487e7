"""Independent equality oracle via a truncated matrix representation.

Words map to upper-triangular pairs (s, m): s a polynomial in X_0..X_{d-1}
truncated at total degree k, m a length-d vector of polynomials truncated at
degree k-1, with product (s1, m1)*(s2, m2) = (s1*s2, s1*m2 + m1) and
generator images a_i -> (1 + X_i, e_i).  The module coordinates behave like
first derivatives, which is why their degree cap sits one below the scalar
cap; with these caps the kernel is expected to be exactly the defining
relations of the class-k metabelian quotient.  That exactness is *checked*,
not assumed: see kernel_selfcheck.  The oracle shares no code with the
collector in :mod:`metanil.core`, so agreement between the two is meaningful
evidence for both.

Each polynomial is a dense coefficient tuple over the monomials of degree
<= its cap, listed by degree (_basis); magnus_of_word folds a word into
(s, m) one syllable at a time, in place, in at most k sweeps per syllable.
The kernel audit brackets module vectors with the fold's division sweep
(_bracket); it needs no product or inverse of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import comb

from .core import binom, enumerate_basics
from .words import DomainError, GroupParams, Word, parse_word


class _Basis:
    """Monomials in nvars variables of total degree <= cap, in degree order.

    The order within one degree does not depend on cap, so the basis for
    cap - 1 is a prefix of the basis for cap and truncating is slicing.
    ``down[g][i]`` is the index of monomial i divided by X_g, or -1 when X_g
    does not divide it; ``steps[g]`` lists the pairs (i, down[g][i]) with
    X_g dividing monomial i, in increasing i.
    """

    __slots__ = ("monos", "index", "down", "steps")

    def __init__(self, nvars: int, cap: int):
        monos = []
        for deg in range(cap + 1):
            for combo in combinations_with_replacement(range(nvars), deg):
                key = [0] * nvars
                for v in combo:
                    key[v] += 1
                monos.append(tuple(key))
        self.monos = tuple(monos)
        self.index = {m: i for i, m in enumerate(monos)}
        self.down = tuple(
            tuple(
                self.index[m[:g] + (m[g] - 1,) + m[g + 1 :]] if m[g] else -1
                for m in monos
            )
            for g in range(nvars)
        )
        self.steps = tuple(
            tuple((i, p) for i, p in enumerate(down) if p >= 0) for down in self.down
        )


# A polynomial basis of more monomials than this, C(nvars + cap, nvars), is
# refused before it is enumerated: the oracle at rank d and class k builds
# bases of C(d + k, d) and C(d + k - 1, d) monomials.
MAX_BASIS_MONOMIALS = 20_000


@lru_cache(maxsize=64)
def _basis(nvars: int, cap: int) -> _Basis:
    if nvars < 1 or cap < 0:
        raise DomainError(f"no polynomial basis for {nvars} variables and cap {cap}")
    size = comb(nvars + cap, nvars)
    if size > MAX_BASIS_MONOMIALS:
        raise DomainError(
            f"a polynomial basis of {size} monomials ({nvars} variables, cap {cap}) "
            f"exceeds {MAX_BASIS_MONOMIALS}"
        )
    return _Basis(nvars, cap)


@dataclass(frozen=True)
class MagnusMatrix:
    """(s, m): s over _basis(d, k), each m_g over _basis(d, k - 1)."""

    scalar: tuple[int, ...]
    module: tuple[tuple[int, ...], ...]

    def is_identity(self) -> bool:
        s = self.scalar
        return s[0] == 1 and not any(s[1:]) and not any(map(any, self.module))


def magnus_of_word(w: Word, params: GroupParams) -> MagnusMatrix:
    """Fold the word's syllables into (s, m), right-multiplying in place.

    A syllable (g, e) multiplies s by (1 + X_g)^e and adds s_low * u_e to m_g,
    with u_e = ((1 + X_g)^e - 1) / X_g and s_low the old s cut to cap k - 1.
    For e = -1 one forward sweep t[i] = s[i] - t[i / X_g] divides s by
    1 + X_g (the degree order puts i / X_g before i), and then u_e * s_low is
    -t_low.  Otherwise u = u_e * s_low is built by Horner's rule over
    binom(e, r), r = 1..min(e, k) (all r <= k for e < 0), and
    s * (1 + X_g)^e = s + X_g * u: at most k sweeps whatever |e| is.
    """
    d, k = params.rank, params.nilclass
    top, low = _basis(d, k), _basis(d, k - 1)
    n_low = len(low.monos)
    s = [1] + [0] * (len(top.monos) - 1)
    module = [[0] * n_low for _ in range(d)]
    for g, e in w.letters:
        if not 0 <= g < d:
            raise DomainError(f"generator index {g} out of range for rank {d}")
        if e == -1:
            for i, p in top.steps[g]:
                s[i] -= s[p]
            module[g] = [a - b for a, b in zip(module[g], s)]
            continue
        s_low = s[:n_low]
        r_max = min(e, k) if e > 0 else k
        c = binom(e, r_max)
        u = [c * a for a in s_low]
        down = low.down[g]
        for r in range(r_max - 1, 0, -1):
            c = binom(e, r)
            u.append(0)  # read by down[i] == -1: X_g does not divide monomial i
            u = [c * a + u[p] for a, p in zip(s_low, down)]
        module[g] = [a + b for a, b in zip(module[g], u)]
        for i, p in top.steps[g]:
            s[i] += u[p]
    return MagnusMatrix(tuple(s), tuple(map(tuple, module)))


def oracle_equal(w1: Word, w2: Word, params: GroupParams) -> bool:
    """Equality of the images, folding only the middles where the words differ.

    One pass checks every generator index and the exponent sums, the degree-1
    part of s.  The map is a homomorphism, so u x v = u y v exactly when x = y.
    Identical words are equal before any basis is built.
    """
    a, b, d = w1.letters, w2.letters, params.rank
    sums = [0] * d
    for letters, sign in ((a, 1), (b, -1)):
        for g, e in letters:
            if not 0 <= g < d:
                raise DomainError(f"generator index {g} out of range for rank {d}")
            sums[g] += sign * e
    if any(sums):
        return False
    n = min(len(a), len(b))
    i = next((i for i in range(n) if a[i] != b[i]), n)
    j = next((j for j in range(n - i) if a[-1 - j] != b[-1 - j]), n - i)
    # a slice of a freely reduced word is freely reduced
    x, y = (Word._from_reduced(w[i : len(w) - j]) for w in (a, b))
    if x.is_identity and y.is_identity:
        return True
    return magnus_of_word(x, params) == magnus_of_word(y, params)


def _bracket(node, g: int, params: GroupParams) -> tuple[tuple[int, ...], ...]:
    """The module part of [x, a_g], whose scalar is 1.  x is the generator of
    index node, and the bracket is folded from its four letters, or x is in M'
    with image (1, node): then [x, a_g] -> (1, ((1 + X_g)^-1 - 1) node) by the
    product rule, one forward division sweep per entry, the fold's e = -1 sweep."""
    if isinstance(node, int):
        return magnus_of_word(Word(((node, -1), (g, -1), (node, 1), (g, 1))), params).module
    steps = _basis(params.rank, params.nilclass - 1).steps[g]
    out = []
    for m in node:
        q = list(m)
        for i, p in steps:
            q[i] -= q[p]
        out.append(tuple(a - b for a, b in zip(q, m)))
    return tuple(out)


@dataclass(frozen=True)
class SelfCheckReport:
    ok: bool
    checks: int
    failures: tuple[str, ...]


# products of two derived-subgroup brackets: dead in any metabelian quotient
_SECOND_DERIVED_WITNESSES = (
    "[[b,a],[b,a,a]]",
    "[[b,a],[b,a,b]]",
    "[[b,a,a],[b,a,b]]",
    "[[b,a],[c,a]]",
    "[[c,b],[c,a,a]]",
    "[[c,a],[c,b,b]]",
)


def kernel_selfcheck(params: GroupParams) -> SelfCheckReport:
    """Desk-scale audit that the truncation caps pin down the intended kernel.

    Checks (a) the map is injective on M': the module image of each basic
    (i, j, K) is +-1 at its own coordinate (e_i, X^(K + e_j)), where every
    other basic of its weight or heavier is 0, so a relation among the images
    has no term of its lowest weight; (b) every left-normed generator bracket
    of weight k+1 dies, (c) fixed second-derived witness words die.  Intended
    for rank <= 3, class <= 6.
    """
    d, k = params.rank, params.nilclass
    if d > 3 or k > 6:
        raise DomainError("self-check is a desk-scale audit: rank <= 3, class <= 6")
    failures = []
    images = {
        seq: reduce(lambda m, g: _bracket(m, g, params), seq[1:], seq[0])
        for w in range(2, k + 1) for seq in enumerate_basics(params, w)
    }
    index = _basis(d, k - 1).index
    checks = len(images)
    for seq, m in images.items():
        i, c = seq[0], index[tuple(seq[1:].count(g) for g in range(d))]
        if m[i][c] not in (1, -1) or any(
            n[i][c] for o, n in images.items() if o != seq and len(o) >= len(seq)
        ):
            failures.append(f"basic commutator {list(seq)} is not read off its own coordinate")
    # left-normed generator brackets one weight at a time; a dead bracket stays
    # dead under further bracketing, so below weight k+1 it is counted and dropped
    level = list(range(d))
    for w in range(2, k + 2):
        level = [_bracket(node, g, params) for node in level for g in range(d)]
        live = [m for m in level if any(map(any, m))]
        checks += len(level) if w == k + 1 else len(level) - len(live)
        level = live
    failures += [f"a weight-{k + 1} bracket survives truncation"] * len(level)
    if d >= 2:
        for text in _SECOND_DERIVED_WITNESSES:
            if d < 3 and "c" in text:
                continue
            checks += 1
            if not magnus_of_word(parse_word(text, params), params).is_identity():
                failures.append(f"second-derived witness {text} does not die")
    return SelfCheckReport(not failures, checks, tuple(failures))
