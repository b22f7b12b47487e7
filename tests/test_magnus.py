import random
from collections import Counter
from functools import reduce
from math import factorial, prod

import pytest

from metanil.core import binom, collect, enumerate_basics
from metanil.magnus import (
    MAX_BASIS_MONOMIALS,
    SelfCheckReport,
    _basis,
    _bracket,
    kernel_selfcheck,
    magnus_of_word,
    oracle_equal,
)
from metanil.words import DomainError, GroupParams, Word, commutator_word, parse_word
from metanil.verify import random_word, related_words

P22 = GroupParams(2, 2)
P23 = GroupParams(2, 3)


def _dense(terms: dict, nvars: int, cap: int) -> tuple:
    """The coefficient tuple over _basis(nvars, cap) of {exponents: coefficient}."""
    index = _basis(nvars, cap).index
    out = [0] * len(index)
    for key, c in terms.items():
        if sum(key) <= cap:
            out[index[key]] = c
    return tuple(out)


def _terms(coeffs: tuple, nvars: int, cap: int) -> dict:
    return {m: c for m, c in zip(_basis(nvars, cap).monos, coeffs) if c}


def test_generator_image():
    m = magnus_of_word(parse_word("a", P22), P22)
    # _basis(2, 2) lists 1, X_0, X_1, X_0^2, X_0 X_1, X_1^2
    assert m.scalar == (1, 1, 0, 0, 0, 0)
    assert m.module == ((1, 0, 0), (0, 0, 0))
    assert _sparse_pair(m, P22) == _gen_pair(P22, 0, 1)


def test_representation_property_and_inverses():
    rng = random.Random(1)
    for _ in range(60):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        w1, w2 = random_word(rng, params), random_word(rng, params)
        m1, m2, m1_inv = (_sparse_pair(magnus_of_word(w, params), params) for w in (w1, w2, w1.inv()))
        assert _sparse_pair(magnus_of_word(w1 * w2, params), params) == _pair_mul(m1, m2, params)
        assert _pair_mul(m1, m1_inv, params) == _pair_identity(params)
        assert _pair_mul(m1_inv, m1, params) == _pair_identity(params)
    assert magnus_of_word(parse_word("a a^-1 b", P22), P22) == magnus_of_word(
        parse_word("b", P22), P22
    )


def test_oracle_equal_examples():
    assert oracle_equal(parse_word("a b", P23), parse_word("b a [a,b]", P23), P23)
    p21 = GroupParams(2, 1)
    assert oracle_equal(parse_word("[b,a]", p21), Word(), p21)
    assert not oracle_equal(parse_word("[b,a]", P22), Word(), P22)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_second_derived_word_dies(k):
    params = GroupParams(2, k)
    assert oracle_equal(parse_word("[[b,a],[b,a,a]]", params), Word(), params)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 3), (2, 5), (3, 5)])
def test_kernel_selfcheck_passes(d, k):
    rep = kernel_selfcheck(GroupParams(d, k))
    assert isinstance(rep, SelfCheckReport)
    assert rep.ok, rep.failures
    assert rep.checks > 0


# the check counts that oracle-selftest does not print: it runs ranks 2-3 and
# classes 2-5
@pytest.mark.parametrize(
    "d,k,checks",
    [(1, k, 1) for k in range(1, 7)] + [(2, 1, 7), (3, 1, 15), (2, 6, 84), (3, 6, 1552)],
)
def test_kernel_selfcheck_counts(d, k, checks):
    rep = kernel_selfcheck(GroupParams(d, k))
    assert rep.ok, rep.failures
    assert rep.checks == checks


@pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5)])
def test_kernel_selfcheck_sees_a_map_that_is_not_injective(monkeypatch, d, k):
    # bracketing with a_0 whatever the generator gives same-weight basics the
    # same image: no basic dies, but their images are not independent
    import metanil.magnus as magnus

    bracket = magnus._bracket
    monkeypatch.setattr(magnus, "_bracket", lambda node, g, params: bracket(node, 0, params))
    rep = kernel_selfcheck(GroupParams(d, k))
    assert not rep.ok
    assert any(f.endswith("is not read off its own coordinate") for f in rep.failures)


@pytest.mark.parametrize("d,k", [(2, 5), (3, 4), (3, 6), (4, 4)])
def test_bracket_step_matches_the_folded_commutator(d, k):
    # [w, a_g] for w in M': the audit's division sweep against the fold of
    # the commutator word
    params = GroupParams(d, k)
    rng = random.Random(17 * d + k)
    live = 0
    for _ in range(40):
        w = commutator_word(random_word(rng, params, max_len=6), random_word(rng, params, max_len=6))
        if rng.random() < 0.5:
            w = w * commutator_word(random_word(rng, params, max_len=4), random_word(rng, params, max_len=4))
        m = magnus_of_word(w, params)
        assert m.scalar == (1,) + (0,) * (len(m.scalar) - 1)
        g = rng.randrange(d)
        got = _bracket(m.module, g, params)
        assert got == magnus_of_word(commutator_word(w, Word(((g, 1),))), params).module
        live += any(map(any, got))
    assert live >= 20


@pytest.mark.parametrize("d,k", [(2, 11), (3, 8), (4, 5), (5, 6)])
def test_each_basic_has_a_unit_at_its_own_module_coordinate(d, k):
    # the basic (i, j, K) has +-1 at (e_i, X^(K + e_j)), where no other basic
    # of its weight and no heavier one is nonzero: lighter ones may be, so the
    # read-off is triangular by weight and exact within a weight
    params = GroupParams(d, k)
    index = _basis(d, k - 1).index
    images, own = {}, {}
    for w in range(2, k + 1):
        for seq in enumerate_basics(params, w):
            m = seq[0]
            for g in seq[1:]:
                m = _bracket(m, g, params)
            images[seq] = m
            count = Counter(seq[1:])
            own[seq] = seq[0], index[tuple(count[v] for v in range(d))]
    lighter = 0
    for seq, m in images.items():
        for other, (i, c) in own.items():
            if other == seq:
                assert m[i][c] in (1, -1), seq
            elif len(other) <= len(seq):
                assert m[i][c] == 0, (seq, other)
            else:
                lighter += m[i][c] != 0
    assert lighter > 0


def test_kernel_selfcheck_scale_guard():
    with pytest.raises(DomainError):
        kernel_selfcheck(GroupParams(4, 3))


def test_weight_boundary_matrices():
    # the class-k bracket survives, the class-(k+1) bracket dies
    surviving = magnus_of_word(parse_word("[b,a,a]", P23), P23)
    assert not surviving.is_identity()
    dead = magnus_of_word(parse_word("[b,a,a,a]", P23), P23)
    assert dead.is_identity()


def test_oracle_collector_agreement():
    rng = random.Random(2)
    for d in (2, 3):
        for k in (2, 3, 4, 5):
            params = GroupParams(d, k)
            for _ in range(60):
                w1 = random_word(rng, params, max_len=20)
                w2 = random_word(rng, params, max_len=20)
                assert (collect(w1, params) == collect(w2, params)) == oracle_equal(
                    w1, w2, params
                )


def test_oracle_collector_agreement_at_class_six():
    rng = random.Random(3)
    for d in (2, 3):
        params = GroupParams(d, 6)
        assert kernel_selfcheck(params).ok
        for _ in range(25):
            w1 = random_word(rng, params, max_len=14)
            w2 = random_word(rng, params, max_len=14)
            assert (collect(w1, params) == collect(w2, params)) == oracle_equal(
                w1, w2, params
            )


# --- the fold against a sparse pair product kept here ------------------------


def _sparse_mul(p: dict, q: dict, cap: int) -> dict:
    """Reference product of {exponents: coefficient} polynomials, truncated above cap."""
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            if sum(k1) + sum(k2) > cap:
                continue
            key = tuple(a + b for a, b in zip(k1, k2))
            v = out.get(key, 0) + c1 * c2
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _sparse_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def _pair_mul(x: tuple, y: tuple, params: GroupParams) -> tuple:
    """Reference pair product (s1, m1)(s2, m2) = (s1 s2, s1 m2 + m1), sparse."""
    k = params.nilclass
    (s1, m1), (s2, m2) = x, y
    module = tuple(_sparse_add(_sparse_mul(s1, b, k - 1), a) for a, b in zip(m1, m2))
    return _sparse_mul(s1, s2, k), module


def _pair_identity(params: GroupParams) -> tuple:
    return {(0,) * params.rank: 1}, ({},) * params.rank


def _binom(e: int, r: int) -> int:
    """binom(e, r) for any integer e: a product of r consecutive integers over r!."""
    return prod(e - j for j in range(r)) // factorial(r)


def _gen_pair(params: GroupParams, i: int, e: int) -> tuple:
    """Closed form of a_i^e = ((1 + X_i)^e, ((1 + X_i)^e - 1) / X_i e_i), sparse."""
    d, k = params.rank, params.nilclass

    def series(cap: int, shift: int) -> dict:
        # binom(e, r + shift) at X_i^r, r = 0..cap
        terms = {tuple(r if j == i else 0 for j in range(d)): _binom(e, r + shift) for r in range(cap + 1)}
        return {key: c for key, c in terms.items() if c}

    return series(k, 0), tuple(series(k - 1, 1) if j == i else {} for j in range(d))


def _sparse_pair(m, params: GroupParams) -> tuple:
    """The fold's dense (s, m) as sparse polynomials; the tuples fill their bases."""
    d, k = params.rank, params.nilclass
    assert len(m.scalar) == len(_basis(d, k).monos)
    assert all(len(v) == len(_basis(d, k - 1).monos) for v in m.module)
    return _terms(m.scalar, d, k), tuple(_terms(v, d, k - 1) for v in m.module)


def _random_terms(rng: random.Random, nvars: int, cap: int) -> dict:
    terms = {}
    for _ in range(rng.randrange(1, 12)):
        deg = rng.randrange(0, cap + 1)
        key = [0] * nvars
        for _ in range(deg):
            key[rng.randrange(nvars)] += 1
        if rng.random() < 0.3:
            c = rng.choice([1, -1]) * binom(10**30, rng.randrange(cap + 1)) + rng.randrange(-3, 4)
        else:
            c = rng.randrange(-5, 6)
        terms[tuple(key)] = c
    return terms


SHAPES = [(2, 3), (3, 4), (3, 5), (4, 5), (2, 8)]


@pytest.mark.parametrize("nvars,cap", SHAPES)
def test_dense_product_matches_sparse_reference(nvars, cap):
    rng = random.Random(1000 * nvars + cap)
    for _ in range(30):
        p = _random_terms(rng, nvars, cap)
        want_p = {key: c for key, c in p.items() if c}
        dp = _dense(p, nvars, cap)
        assert _terms(dp, nvars, cap) == want_p
        # the cap-(low) basis is a prefix of the cap basis: recapping is slicing
        for low in range(cap + 1):
            cut = dp[: len(_basis(nvars, low).monos)]
            assert _terms(cut, nvars, low) == {
                key: c for key, c in want_p.items() if sum(key) <= low
            }


@pytest.mark.parametrize("d,k", [(2, 4), (3, 5), (2, 6), (4, 3)])
def test_syllable_fold_matches_closed_form_factors(d, k):
    params = GroupParams(d, k)
    rng = random.Random(31 * d + k)
    for e in (1, -1, 2, -2, 7, -7, 10**30):
        for _ in range(6):
            letters = []
            for _ in range(rng.randrange(1, 9)):
                g = rng.randrange(d)
                letters.append((g, e if rng.random() < 0.6 else rng.choice([1, -1, e])))
            w = Word(tuple(letters))
            factors = [_gen_pair(params, g, x) for g, x in w.letters]
            product = reduce(lambda a, b: _pair_mul(a, b, params), factors, _pair_identity(params))
            assert _sparse_pair(magnus_of_word(w, params), params) == product


def _benchmark_shaped_pair(rng: random.Random, params: GroupParams, equal: bool):
    names = "abc"

    def sub(n):
        return " ".join(g if rng.random() < 0.5 else f"{g}^-1" for g in rng.sample(names, n))

    factors = [f"({sub(3)})^{rng.choice([1, -1]) * rng.randint(50, 55)}" for _ in range(2)]
    if equal:
        x, y, z, t = (sub(2) for _ in range(4))
        insert = f"[[{x},{y}],[{z},{t}]]"
    else:
        seq = rng.choice(enumerate_basics(params, rng.randint(2, params.nilclass)))
        insert = "[" + ",".join(names[g] for g in seq) + f"]^{rng.choice([1, -1, 2, -2])}"
    pos = rng.randrange(3)
    w2 = factors[:pos] + [insert] + factors[pos:]
    return parse_word(" ".join(factors), params), parse_word(" ".join(w2), params)


def test_oracle_collector_agreement_on_long_powered_words():
    params = GroupParams(3, 5)
    rng = random.Random(55)
    for i in range(8):
        equal = i % 2 == 0
        w1, w2 = _benchmark_shaped_pair(rng, params, equal)
        assert len(w1.letters) >= 300
        assert oracle_equal(w1, w2, params) is equal
        assert (collect(w1, params) == collect(w2, params)) is equal


# --- oracle_equal folds only the middles between the shared ends --------------


def _full_fold_equal(w1: Word, w2: Word, params: GroupParams) -> bool:
    """Reference: fold both whole words and compare the two pairs."""
    return magnus_of_word(w1, params) == magnus_of_word(w2, params)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_oracle_equal_matches_the_full_fold_on_related_pairs(d, k):
    # u x v against u y v: y = x with a trivial bracket (weight k+1 or second
    # derived) inserted, with a generator bracket of weight <= k, or fresh;
    # the ends often merge with the middle, and every third pair has
    # exponents up to 10^18
    params = GroupParams(d, k)
    rng = random.Random(100 * d + k)
    verdicts = []
    for i in range(30):
        w1, w2 = related_words(rng, params, max_exp=10**18 if i % 3 == 0 else 2)
        same = _full_fold_equal(w1, w2, params)
        assert oracle_equal(w1, w2, params) is same, (w1, w2)
        assert oracle_equal(w2, w1, params) is same
        verdicts.append(same)
    assert True in verdicts
    assert False in verdicts or d == 1


@pytest.mark.parametrize(
    "d,k,text1,text2",
    [
        # the last syllable of u merges with the first of the middle
        (2, 3, "b a^2 a b a", "b a^2 a [b,a,a,a] b a"),
        (2, 3, "b a^2 a b a", "b a^2 a^2 b a^-1 a"),
        (3, 4, "c a^3 (a b)^2 c", "c a^3 a [b,a] b a b c"),
        # the middle's last syllable merges with the first of v
        (3, 4, "a b c^2 c^5", "a b [[a,b],[c,a]] c^2 c^5"),
        (3, 4, "a b c^-1 c^3", "a b c c^-2 [c,a,b] c^3"),
        # u x v with an empty x, and one word a prefix of the other
        (2, 5, "a b", "a [b,a,a,b,b,a] b"),
        (3, 3, "a b", "a b [c,a]"),
        (3, 3, "a b", "[c,b,b,b] a b"),
        (2, 5, "a^1000000000000000000 b", "a^999999999999999999 a b"),
    ],
)
def test_oracle_equal_across_merged_junctions(d, k, text1, text2):
    params = GroupParams(d, k)
    w1, w2 = parse_word(text1, params), parse_word(text2, params)
    same = _full_fold_equal(w1, w2, params)
    assert oracle_equal(w1, w2, params) is same
    assert same is (collect(w1, params) == collect(w2, params))


def test_oracle_equal_checks_the_range_over_the_whole_word():
    # the index check must not skip the shared ends: both pairs are out of
    # range for rank 3 although their ends agree
    params = GroupParams(3, 3)
    for w1, w2 in [
        (Word(((5, 1),)), Word(((5, 1),))),
        (Word(((5, 1), (0, 1))), Word(((5, 1), (1, 1)))),
        (Word(((0, 1), (1, 1), (-1, 2))), Word(((0, 1), (1, 1), (-1, 2)))),
    ]:
        with pytest.raises(DomainError, match="out of range for rank 3"):
            oracle_equal(w1, w2, params)


def test_oracle_equal_folds_only_where_the_words_differ(monkeypatch):
    import metanil.magnus as magnus

    folded = []
    fold = magnus.magnus_of_word

    def counting(w, params):
        folded.append(len(w.letters))
        return fold(w, params)

    monkeypatch.setattr(magnus, "magnus_of_word", counting)
    params = GroupParams(3, 5)
    rng = random.Random(56)
    for i in range(6):
        equal = i % 2 == 0
        w1, w2 = _benchmark_shaped_pair(rng, params, equal)
        folded.clear()
        assert oracle_equal(w1, w2, params) is equal
        assert len(folded) == 2 and sum(folded) <= 200 < 300 <= len(w1.letters)
    # different exponent sums are decided before any fold
    folded.clear()
    assert not oracle_equal(parse_word("a b c", params), parse_word("a c", params), params)
    assert folded == []


# --- basis size limit and identical words ------------------------------------


def test_oracle_refuses_an_oversized_basis_before_enumerating(monkeypatch):
    import metanil.magnus as magnus

    def enumerate_basis(nvars, cap):
        raise AssertionError(f"basis ({nvars}, {cap}) enumerated")

    params = GroupParams(12, 12)  # C(24, 12) = 2 704 156 monomials
    w1, w2 = parse_word("a b", params), parse_word("b a", params)
    monkeypatch.setattr(magnus, "_Basis", enumerate_basis)
    with pytest.raises(DomainError, match=f"2704156 monomials .* exceeds {MAX_BASIS_MONOMIALS}"):
        oracle_equal(w1, w2, params)
    monkeypatch.undo()
    # the largest shapes the tests and the CI fold stay under the limit
    for d, k in [(4, 6), (3, 8), (2, 11)]:
        p = GroupParams(d, k)
        assert not oracle_equal(parse_word("a b", p), parse_word("b a", p), p)


def test_oracle_equal_builds_no_basis_for_identical_words(monkeypatch):
    import metanil.magnus as magnus

    def no_basis(nvars, cap):
        raise AssertionError(f"basis ({nvars}, {cap}) built for identical words")

    monkeypatch.setattr(magnus, "_basis", no_basis)
    for d, k, text in [(12, 12, "a"), (8, 8, "(a b c^-1)^40 [d,e,f]"), (3, 5, ""), (2, 3, "1")]:
        p = GroupParams(d, k)
        assert oracle_equal(parse_word(text, p), parse_word(text, p), p) is True
