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
The kernel audit multiplies and inverts the same tuples (_mul, _inv).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .core import Basic, binom, enumerate_basics
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


@lru_cache(maxsize=64)
def _product_table(nvars: int, cap: int) -> tuple[tuple[int, ...], ...]:
    """Row i: the index of monomial i times monomial j, for every j that fits.

    The j that fit are those of degree <= cap - deg(i): a prefix of the basis.
    """
    basis = _basis(nvars, cap)
    monos, index = basis.monos, basis.index
    return tuple(
        tuple(
            index[tuple(a + b for a, b in zip(mi, mj))]
            for mj in monos[: comb(nvars + cap - sum(mi), nvars)]
        )
        for mi in monos
    )


def _mul(p: tuple, q: tuple, nvars: int, cap: int) -> tuple:
    """Product of two coefficient tuples over _basis(nvars, cap)."""
    out = [0] * len(q)
    for a, row in zip(p, _product_table(nvars, cap)):
        if a:
            for b, t in zip(q, row):
                if b:
                    out[t] += a * b
    return tuple(out)


def _inv(p: tuple, nvars: int, cap: int) -> tuple:
    """Inverse of a unit (constant term +-1) by the geometric series.

    p = c (1 - q) with c = p[0] and q of zero constant term, so
    p^-1 = c (1 + q + q^2 + ...), and q^(cap+1) is truncated away.
    """
    c = p[0]
    if c not in (1, -1):
        raise DomainError("only units with constant term +-1 are invertible")
    q = (0,) + tuple(-c * a for a in p[1:])
    out = term = (1,) + (0,) * (len(p) - 1)
    for _ in range(cap):
        term = _mul(term, q, nvars, cap)
        if not any(term):
            break
        out = tuple(a + b for a, b in zip(out, term))
    return tuple(c * a for a in out)


@dataclass(frozen=True)
class MagnusMatrix:
    """(s, m): s over _basis(d, k), each m_g over _basis(d, k - 1)."""

    scalar: tuple[int, ...]
    module: tuple[tuple[int, ...], ...]

    def is_identity(self) -> bool:
        s = self.scalar
        return s[0] == 1 and not any(s[1:]) and not any(map(any, self.module))


def mm_identity(params: GroupParams) -> MagnusMatrix:
    d, k = params.rank, params.nilclass
    n_top, n_low = len(_basis(d, k).monos), len(_basis(d, k - 1).monos)
    return MagnusMatrix((1,) + (0,) * (n_top - 1), ((0,) * n_low,) * d)


def mm_mul(a: MagnusMatrix, b: MagnusMatrix, params: GroupParams) -> MagnusMatrix:
    d, k = params.rank, params.nilclass
    s_low = a.scalar[: len(a.module[0])]
    module = tuple(
        tuple(x + y for x, y in zip(_mul(s_low, mb, d, k - 1), ma))
        for ma, mb in zip(a.module, b.module)
    )
    return MagnusMatrix(_mul(a.scalar, b.scalar, d, k), module)


def mm_inv(a: MagnusMatrix, params: GroupParams) -> MagnusMatrix:
    d, k = params.rank, params.nilclass
    s_inv = _inv(a.scalar, d, k)
    s_inv_low = s_inv[: len(a.module[0])]
    module = tuple(tuple(-x for x in _mul(s_inv_low, m, d, k - 1)) for m in a.module)
    return MagnusMatrix(s_inv, module)


def mm_comm(a: MagnusMatrix, b: MagnusMatrix, params: GroupParams) -> MagnusMatrix:
    inverses = mm_mul(mm_inv(a, params), mm_inv(b, params), params)
    return mm_mul(inverses, mm_mul(a, b, params), params)


def _gen_power(params: GroupParams, i: int, e: int) -> MagnusMatrix:
    """Closed form of the i-th generator image raised to any integer power."""
    d, k = params.rank, params.nilclass

    def series(cap: int, shift: int) -> tuple:
        # binom(e, r + shift) at X_i^r, r = 0..cap
        index = _basis(d, cap).index
        out = [0] * len(index)
        for r in range(cap + 1):
            out[index[tuple(r if j == i else 0 for j in range(d))]] = binom(e, r + shift)
        return tuple(out)

    mod = series(k - 1, 1)
    zero = (0,) * len(mod)
    return MagnusMatrix(series(k, 0), tuple(mod if j == i else zero for j in range(d)))


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


def _basic_matrix(seq: Basic, params: GroupParams) -> MagnusMatrix:
    acc = _gen_power(params, seq[0], 1)
    for g in seq[1:]:
        acc = mm_comm(acc, _gen_power(params, g, 1), params)
    return acc


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

    Checks (a) no basic commutator of weight <= k dies, (b) every left-normed
    generator bracket of weight k+1 dies, (c) fixed second-derived witness
    words die.  Intended for rank <= 3, class <= 6.
    """
    d, k = params.rank, params.nilclass
    if d > 3 or k > 6:
        raise DomainError("self-check is a desk-scale audit: rank <= 3, class <= 6")
    failures = []
    checks = 0
    for w in range(2, k + 1):
        for seq in enumerate_basics(params, w):
            checks += 1
            if _basic_matrix(seq, params).is_identity():
                failures.append(f"basic commutator {list(seq)} maps to the identity")
    # depth-first extension by one generator at a time; identity nodes stay
    # identity under further bracketing and can be pruned
    def extend(mat: MagnusMatrix, depth: int):
        nonlocal checks
        if depth == k + 1:
            checks += 1
            if not mat.is_identity():
                failures.append(f"a weight-{k + 1} bracket survives truncation")
            return
        for g in range(d):
            nxt = mm_comm(mat, _gen_power(params, g, 1), params)
            if nxt.is_identity() and depth + 1 < k + 1:
                checks += 1
                continue
            extend(nxt, depth + 1)

    if k >= 1:
        for g1 in range(d):
            extend(_gen_power(params, g1, 1), 1)
    if d >= 2:
        for text in _SECOND_DERIVED_WITNESSES:
            if d < 3 and "c" in text:
                continue
            checks += 1
            if not magnus_of_word(parse_word(text, params), params).is_identity():
                failures.append(f"second-derived witness {text} does not die")
    return SelfCheckReport(not failures, checks, tuple(failures))
