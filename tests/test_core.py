import json
import math
import random
from itertools import product

import pytest

import metanil
from metanil.core import (
    MAX_BASICS,
    Element,
    _apply_d,
    _comm_exp_parts,
    _conj_minus_one,
    _gen_comm_cached,
    _hockey,
    _mk,
    _power_differences,
    _vadd,
    _sinv,
    _smul,
    _spow,
    _state,
    all_basics,
    basis_size,
    binom,
    collect,
    collect_text,
    commutator,
    element_from_json,
    element_to_json,
    enumerate_basics,
    gamma_layer,
    gen_element,
    identity,
    inverse,
    is_basic,
    left_normed,
    left_normed_rep,
    mul,
    normalize_left_normed,
    power,
    reduce_class,
    text_state,
    truncate_weight,
)
from metanil.magnus import oracle_equal
from metanil.words import DomainError, GroupParams, generator_name, parse_word
from metanil.verify import random_derived_element, random_element, random_gen_inner, random_word

P23 = GroupParams(2, 3)
P22 = GroupParams(2, 2)
P33 = GroupParams(3, 3)
P35 = GroupParams(3, 5)


# --- basic commutator vocabulary ------------------------------------------------


def brute_force_basics(d, w):
    # independent oracle: filter every sequence by the shape definition
    out = []
    for seq in product(range(d), repeat=w):
        if seq[0] > seq[1] and all(seq[i] <= seq[i + 1] for i in range(1, w - 1)):
            out.append(seq)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("w", [2, 3, 4, 5, 6])
def test_enumerate_basics_matches_brute_force(d, w):
    params = GroupParams(d, 6)
    got = list(enumerate_basics(params, w))
    expect = brute_force_basics(d, w)
    assert sorted(got) == sorted(expect)
    assert len(got) == (w - 1) * math.comb(d + w - 2, w)


def test_enumerate_basics_examples():
    assert list(enumerate_basics(P23, 2)) == [(1, 0)]
    assert list(enumerate_basics(P23, 3)) == [(1, 0, 0), (1, 0, 1)]
    assert len(enumerate_basics(P33, 3)) == 8


def test_enumerate_basics_range_check():
    with pytest.raises(DomainError):
        enumerate_basics(P23, 4)
    with pytest.raises(DomainError):
        enumerate_basics(P23, 1)


def test_all_basics_canonical_order():
    seqs = all_basics(P35)
    keys = [(len(s), s) for s in seqs]
    assert keys == sorted(keys)
    assert all(is_basic(s) for s in seqs)


def test_basis_size_counts_without_enumerating():
    for d in range(2, 6):
        for k in range(2, 7):
            assert basis_size(GroupParams(d, k)) == len(all_basics(GroupParams(d, k)))
    # the largest shape the tests, CI and benchmark decide stays under the
    # limit; the (12,8) of the CLI refusal test does not
    assert basis_size(GroupParams(9, 6)) == 13014 <= MAX_BASICS
    assert basis_size(GroupParams(12, 8)) == 478687 > MAX_BASICS


# --- rewriting into the basis ----------------------------------------------------


def test_normalize_trivial_cases():
    assert normalize_left_normed((0, 0), P33) == {}
    assert normalize_left_normed((1, 0), P33) == {(1, 0): 1}
    assert normalize_left_normed((0, 1), P33) == {(1, 0): -1}


def test_normalize_head_inversion():
    assert normalize_left_normed((0, 1, 2), P33) == {(1, 0, 2): -1}


def test_normalize_head_repair():
    # the smallest letter must reach the second slot, splitting in two
    assert normalize_left_normed((2, 1, 0), P33) == {(1, 0, 2): -1, (2, 0, 1): 1}


def test_normalize_kills_overweight():
    assert normalize_left_normed((1, 0, 0, 1), P23) == {}


def test_normalize_input_validation():
    with pytest.raises(DomainError):
        normalize_left_normed((1,), P23)
    with pytest.raises(DomainError):
        normalize_left_normed((1, 5), P23)


def test_normalize_agrees_with_element_bracket():
    rng = random.Random(2)
    for _ in range(150):
        d, k = rng.choice([(2, 3), (2, 4), (3, 4), (3, 5)])
        params = GroupParams(d, k)
        seq = [rng.randrange(d) for _ in range(rng.randrange(2, k + 2))]
        vec = normalize_left_normed(seq, params)
        elt = left_normed([gen_element(params, g) for g in seq])
        assert dict(elt.derived) == vec


# --- collection --------------------------------------------------------------


def test_collect_identity():
    e = collect_text("", P23)
    assert e.is_identity
    assert e.exp == (0, 0) and e.derived == ()


def test_collect_definition_of_bracket():
    e = collect_text("a^-1 b^-1 a b", P23)
    assert e.exp == (0, 0)
    assert dict(e.derived) == {(1, 0): -1}


def test_collect_square_of_ab():
    # hand-collected; certified against the independent matrix oracle below
    e = collect_text("(a b)^2", P23)
    assert e.exp == (2, 2)
    assert dict(e.derived) == {(1, 0): 1, (1, 0, 1): 1}
    assert oracle_equal(parse_word("(a b)^2", P23), parse_word(str(e), P23), P23)


def test_collect_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(100):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        w1, w2 = random_word(rng, params), random_word(rng, params)
        assert collect(w1 * w2, params) == mul(collect(w1, params), collect(w2, params))


def test_collect_rejects_foreign_letters():
    w = parse_word("c", P33)
    with pytest.raises(DomainError):
        collect(w, P23)


# --- group arithmetic -----------------------------------------------------------


def test_mul_examples():
    x = random_element(random.Random(4), P35)
    assert mul(x, identity(P35)) == x
    ab = mul(collect_text("a", P23), collect_text("b", P23))
    assert ab.exp == (1, 1) and ab.derived == ()
    ba = mul(collect_text("b", P23), collect_text("a", P23))
    assert ba.exp == (1, 1) and dict(ba.derived) == {(1, 0): 1}


def test_mul_params_mismatch():
    with pytest.raises(DomainError):
        mul(identity(P23), identity(P33))


def test_inverse_examples():
    assert inverse(identity(P23)) == identity(P23)
    assert inverse(collect_text("a", P23)).exp == (-1, 0)
    inv = inverse(collect_text("a b", P22))
    assert inv.exp == (-1, -1)
    assert dict(inv.derived) == {(1, 0): 1}
    assert mul(collect_text("a b", P22), inv).is_identity


def test_group_axioms_sampled():
    rng = random.Random(7)
    for _ in range(60):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        x, y, z = (random_element(rng, params) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, inverse(x)).is_identity
        assert mul(inverse(x), x).is_identity
        assert mul(identity(params), x) == x


def test_metabelian_law_and_nilpotency():
    rng = random.Random(8)
    for _ in range(40):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        xs = [random_element(rng, params) for _ in range(4)]
        assert commutator(commutator(xs[0], xs[1]), commutator(xs[2], xs[3])).is_identity
        chain = [random_element(rng, params) for _ in range(params.nilclass + 1)]
        assert left_normed(chain).is_identity


def test_commutator_identity_table():
    rng = random.Random(9)
    for _ in range(40):
        params = GroupParams(rng.choice([2, 3]), rng.choice([3, 4, 5]))
        x, y, z = (random_element(rng, params) for _ in range(3))
        t = commutator(random_element(rng, params), random_element(rng, params))
        lam = rng.randrange(-3, 4)
        assert commutator(mul(x, t), y) == mul(commutator(x, y), commutator(t, y))
        assert commutator(power(t, lam), y) == power(commutator(t, y), lam)
        jac = mul(
            mul(left_normed([x, y, z]), left_normed([y, z, x])),
            left_normed([z, x, y]),
        )
        assert jac.is_identity
        assert left_normed([t, x, y]) == left_normed([t, y, x])


def test_commutator_examples():
    x = collect_text("a b^-1 a", P23)
    assert commutator(x, x).is_identity
    assert dict(commutator(collect_text("b", P23), collect_text("a", P23)).derived) == {
        (1, 0): 1
    }


def three_product_commutator(params, e, f):
    """[a^E, a^F] collected as the general products A^-1 B^-1 . A B."""
    a, b = _mk(params, e, {}), _mk(params, f, {})
    return dict(mul(mul(inverse(a), inverse(b)), mul(a, b)).derived)


@pytest.mark.parametrize(
    "d,k,n",
    [(2, 3, 30), (2, 8, 30), (2, 11, 20), (3, 5, 30), (3, 6, 30),
     (4, 5, 20), (5, 6, 12), (7, 6, 6), (9, 6, 3)],
)
def test_exponent_commutator_matches_three_products(d, k, n):
    # c(E,F) - c(F,E) from two product formulas against the collector's
    # three general products, on zero vectors, single moving blocks, E = F,
    # and random vectors with negative entries
    params = GroupParams(d, k)
    rng = random.Random(10 * d + k)
    zero = (0,) * d

    def vec():
        return tuple(rng.randint(-4, 4) for _ in range(d))

    def block():
        j = rng.randrange(d)
        return zero[:j] + (rng.choice([-3, -1, 2, 4]),) + zero[j + 1 :]

    e = vec()
    pairs = [(zero, zero), (zero, e), (e, zero), (e, e), (block(), block()), (block(), e)]
    pairs += [(vec(), vec()) for _ in range(n)]
    for e, f in pairs:
        got = dict(_comm_exp_parts(params, e, f))
        assert got == three_product_commutator(params, e, f)
        assert dict(_comm_exp_parts(params, f, e)) == {b: -c for b, c in got.items()}
    assert _comm_exp_parts(params, e, e) == ()


def test_brackets_and_pair_data_take_no_general_product(monkeypatch):
    # commutator, the pair-data maps and the decision answer the same with
    # the collector's general product and inverse made to raise, cold
    import metanil.autos as autos
    import metanil.core as core
    import metanil.normality as normality
    from metanil.autos import apply_gen_inner, gen_inner_to_spec, invert_gen_inner
    from metanil.normality import synthesize_gen_inner

    rng = random.Random(29)
    cases = []
    for params in (P35, GroupParams(4, 4), GroupParams(2, 6)):
        for _ in range(3):
            x = mul(random_element(rng, params), random_derived_element(rng, params))
            y = mul(random_element(rng, params), random_derived_element(rng, params))
            cases.append((x, y, random_gen_inner(rng, params)))

    def run():
        return [
            (
                commutator(x, y),
                apply_gen_inner(data, x),
                invert_gen_inner(data),
                synthesize_gen_inner(gen_inner_to_spec(data)),
            )
            for x, y, data in cases
        ]

    expect = run()

    def refuse(*args):
        raise AssertionError("a general product or inverse was collected")

    metanil.clear_caches()
    for mod in (core, autos, normality):
        for name in ("mul", "inverse"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    assert run() == expect


def test_power_matches_repeated_mul():
    x = collect_text("a b", P35)
    acc = identity(P35)
    for n in range(5):
        assert power(x, n) == acc
        acc = mul(acc, x)
    assert power(x, -3) == inverse(power(x, 3))


def test_left_normed_forms_agree():
    b, a = collect_text("b", P23), collect_text("a", P23)
    assert left_normed([b]) == b
    assert left_normed_rep(b, 0, a) == b
    e = left_normed([b, a, a])
    assert e == left_normed_rep(commutator(b, a), 1, a)
    assert dict(e.derived) == {(1, 0, 0): 1}
    with pytest.raises(DomainError):
        left_normed([])


def test_truncation_boundary():
    p4 = GroupParams(2, 4)
    p5 = GroupParams(2, 5)
    assert collect_text("[b,a,a,a,a]", p4).is_identity
    assert not collect_text("[b,a,a,a,a]", p5).is_identity


def test_equality_is_canonical():
    from metanil.core import equals, is_identity

    assert collect_text("a b", P23) != collect_text("b a", P23)
    assert equals(collect_text("a b", P23), collect_text("a b", P23))
    assert not equals(collect_text("a b", P23), collect_text("b a", P23))
    assert is_identity(collect_text("[b,a] [a,b]", P23))
    with pytest.raises(DomainError):
        equals(identity(P23), identity(P33))


# --- quotients and layers --------------------------------------------------------


def test_reduce_class():
    e = collect_text("(a b)^2", P23)
    assert reduce_class(e, 3) == e
    r = reduce_class(e, 2)
    assert r.params == P22 and r.exp == (2, 2) and dict(r.derived) == {(1, 0): 1}
    ab = reduce_class(e, 1)
    assert ab.exp == (2, 2) and ab.derived == ()
    with pytest.raises(DomainError):
        reduce_class(e, 4)


def test_reduce_class_is_a_homomorphism():
    rng = random.Random(10)
    for _ in range(50):
        params = GroupParams(rng.choice([2, 3]), rng.choice([3, 4, 5]))
        j = rng.randrange(1, params.nilclass + 1)
        x, y = random_element(rng, params), random_element(rng, params)
        assert reduce_class(mul(x, y), j) == mul(reduce_class(x, j), reduce_class(y, j))


def test_gamma_layer():
    assert gamma_layer(identity(P23), 3) == [0, 0]
    assert gamma_layer(collect_text("[b,a,a]", P23), 3) == [1, 0]
    v = gamma_layer(collect_text("[c,b,a]", P33), 3)
    basics = list(enumerate_basics(P33, 3))
    nz = {basics[i]: c for i, c in enumerate(v) if c}
    assert nz == {(2, 0, 1): 1, (1, 0, 2): -1}


def test_gamma_layer_preconditions():
    with pytest.raises(DomainError, match="generator"):
        gamma_layer(collect_text("a", P23), 2)
    with pytest.raises(DomainError, match="weight"):
        gamma_layer(collect_text("[b,a]", P23), 3)


def test_truncate_weight():
    e = collect_text("(a b)^2", P23)
    t = truncate_weight(e, 2)
    assert dict(t.derived) == {(1, 0): 1} and t.params == P23
    assert truncate_weight(e, 3) is e


def test_truncate_weight_below_one_is_the_identity():
    # the exponent part goes too, whether or not there is a derived part
    for text in ("a b^2", "(a b)^2", "[b,a]"):
        x = collect_text(text, P23)
        for w in (0, -1):
            assert truncate_weight(x, w) == identity(P23)
    p11 = GroupParams(1, 1)
    assert truncate_weight(collect_text("a^3", p11), 0) == identity(p11)


# --- degenerate parameters --------------------------------------------------------


def test_abelian_class_one():
    p = GroupParams(3, 1)
    x = collect_text("a b a c", p)
    assert x.exp == (2, 1, 1) and x.derived == ()
    assert commutator(x, collect_text("b c", p)).is_identity


def test_rank_one():
    p = GroupParams(1, 3)
    x = collect_text("a^5", p)
    assert mul(x, inverse(x)).is_identity
    assert commutator(x, x).is_identity


def test_huge_exponents_are_exact():
    # exponents are unbounded integers; coefficients grow combinatorially
    # (binomially in the exponent) and must stay exact
    n = 10**6
    p = GroupParams(2, 4)
    x = collect_text(f"a^{n} b", p)
    assert mul(x, inverse(x)).is_identity
    y = collect_text(f"b a^{n}", p)
    # b a^n = a^n b [b,a]^n [b,a,a]^C(n,2) [b,a,a,a]^C(n,3)
    assert y.exp == (n, 1)
    assert dict(y.derived) == {
        (1, 0): n,
        (1, 0, 0): n * (n - 1) // 2,
        (1, 0, 0, 0): n * (n - 1) * (n - 2) // 6,
    }
    assert collect_text(f"b a^{n}", p) == mul(collect_text("b", p), power(collect_text("a", p), n))


def test_huge_power_is_evaluated_in_closed_form(capsys):
    # (a b c)^(10^18) expands to 3 * 10^18 syllables as a free-group word;
    # evaluated in the group it is one closed-form power of a collector state
    from metanil.cli import main

    n = 10**18
    text = f"(a b c)^{n}"
    expect = power(collect_text("a b c", P35), n)
    assert collect_text(text, P35) == expect
    assert collect_text(f"(a b c)^-{n}", P35) == inverse(expect)
    assert main(["nf", "--rank", "3", "--class", "5", "--json", text]) == 0
    assert element_from_json(json.loads(capsys.readouterr().out)) == expect


def squaring_power(params, x, n):
    """x^n by repeated squaring of a collector state: the reference for power."""
    if n < 0:
        x, n = _sinv(params, x), -n
    out = ([0] * params.rank, {})
    while n:
        if n & 1:
            out = _smul(params, out, x)
        n >>= 1
        if n:
            x = _smul(params, x, x)
    return out


def dense_element(rng, params):
    # every generator exponent and every basic-commutator coefficient nonzero
    def nz():
        return rng.choice([-3, -2, -1, 1, 2, 3])

    derived = tuple((s, nz()) for s in all_basics(params))
    return Element(params, tuple(nz() for _ in range(params.rank)), derived)


@pytest.mark.parametrize(
    "d,k", [(2, 3), (2, 8), (2, 10), (3, 5), (3, 6), (4, 5), (5, 4), (5, 6)]
)
def test_power_matches_the_squaring_reference(d, k):
    # entry for entry, on both sides of the small-|n| crossover, with the
    # Hall-polynomial cache cleared and then warm
    params = GroupParams(d, k)
    rng = random.Random(100 * d + k)
    exps = [1, 2, k, k + 1, 51, 10**6, 10**18]
    exps = [0] + exps + [-n for n in exps]
    for x in [dense_element(rng, params) for _ in range(1 if d * k >= 30 else 2)]:
        text = str(x)
        assert collect_text(text, params) == x
        for n in exps:
            expect = _mk(params, *squaring_power(params, _state(x), n))
            _power_differences.cache_clear()
            for _ in ("cold", "warm"):
                assert power(x, n) == expect, n
                assert collect_text(f"({text})^{n}", params) == expect, n


def test_power_texts_agree_with_the_oracle():
    # x^n against x^m x^(n-m), |n|, |m|, |n-m| <= 60, half with a basic
    # commutator appended: the collector's verdict is the Magnus oracle's
    rng = random.Random(7)
    basics = all_basics(P35)
    verdicts = []
    for i in range(50):
        base = " ".join(
            f"{rng.choice('abc')}^{rng.choice([-2, -1, 1, 2])}" for _ in range(rng.randint(2, 4))
        )
        n = rng.randint(-60, 60)
        m = rng.randint(max(-60, n - 60), min(60, n + 60))
        t1 = f"({base})^{n}"
        t2 = f"({base})^{m} ({base})^{n - m}"
        if i % 2:
            t2 += " [" + ",".join("abc"[g] for g in rng.choice(basics)) + "]"
        same = collect_text(t1, P35) == collect_text(t2, P35)
        assert same == oracle_equal(parse_word(t1, P35), parse_word(t2, P35), P35), (t1, t2)
        verdicts.append(same)
    assert verdicts.count(True) == 25


# --- work that is zero by construction is skipped ----------------------------------


def test_hockey_stops_at_its_last_nonzero_binomial():
    # binom(n, r+1) = 0 for r >= n >= 0: an n >= 0 series takes n steps, not
    # one per weight up to the class, and sums to the full series
    k = 40
    calls = []

    def step(v):
        calls.append(1)
        return _apply_d(v, 0, k)

    for n in (0, 1, 2, 3, 7):
        calls.clear()
        full, cur, r = {}, {(1, 0): 1}, 0
        while cur:
            r += 1
            _vadd(full, cur.items(), binom(n, r))
            cur = _apply_d(cur, 0, k)
        assert _hockey({(1, 0): 1}, n, step) == full, n
        assert len(calls) == n
    calls.clear()
    _hockey({(1, 0): 1}, -2, step)
    assert len(calls) == k - 1


def test_one_block_action_stops_at_its_last_nonzero_binomial(monkeypatch):
    # N_(c e_j) seq = sum_{r=1..c} binom(c, r) D_j^r seq for c >= 0: c
    # applications of D_j, not one per weight up to the class
    import metanil.core as core

    k, apply_d, calls = 40, core._apply_d, []

    def counted(v, j, kk):
        calls.append(1)
        return apply_d(v, j, kk)

    monkeypatch.setattr(core, "_apply_d", counted)
    for c, steps in ((1, 1), (2, 2), (3, 3), (7, 7), (-2, k - 1)):
        metanil.clear_caches()
        calls.clear()
        got = dict(core._act_basis((1, 0), (c, 0), k))
        assert len(calls) == steps, c
        assert got == chained_n({(1, 0): 1}, (c, 0), k), c


@pytest.mark.parametrize("d,k", [(2, 3), (3, 5), (4, 4), (2, 8)])
def test_powers_with_empty_derived_part_match_the_squaring_reference(d, k, monkeypatch):
    # a^n, (a^2)^n and (a b)^n against squaring; a generator power such as
    # a^n or (a^2)^n is read off and collects no product, cold or warm
    import metanil.core as core

    params = GroupParams(d, k)
    exps = [1, 2, k + 1, 10**18]
    exps = [0] + exps + [-n for n in exps]
    gens = [generator_name(i) for i in range(d)]
    metanil.clear_caches()
    for _ in ("cold", "warm"):
        for base in gens + ["a^2", "a b"]:
            x = text_state(base, params)
            assert not x[1]
            for n in exps:
                expect = _mk(params, *squaring_power(params, x, n))
                assert _mk(params, *_spow(params, x, n)) == expect, (base, n)
                assert collect_text(f"({base})^{n}", params) == expect, (base, n)

    def refuse(*args):
        raise AssertionError("a product was collected")

    metanil.clear_caches()
    monkeypatch.setattr(core, "_smul", refuse)
    monkeypatch.setattr(core, "_sinv", refuse)
    for g, n in product(gens + ["a^2"], exps):
        e = text_state(g, params)[0]
        assert text_state(f"({g})^{n}", params) == (tuple(n * c for c in e), {})


def test_small_powers_of_a_product_take_plain_products(monkeypatch):
    # |n| <= (k+1)/2 multiplies: (a b)^n builds no Hall polynomial, whose
    # k products and k^2 differences would dominate at a large class
    import metanil.core as core

    def refuse(*args):
        raise AssertionError("a Hall polynomial was built")

    monkeypatch.setattr(core, "_power_differences", refuse)
    for k in (5, 12):
        params = GroupParams(2, k)
        x = text_state("a b", params)
        for n in range(-((k + 1) // 2), (k + 1) // 2 + 1):
            assert _mk(params, *_spow(params, x, n)) == _mk(params, *squaring_power(params, x, n))
    assert text_state("(a b)^2", GroupParams(2, 20000)) == ((2, 2), {(1, 0): 1, (1, 0, 1): 1})
    assert text_state("b^-1", GroupParams(2, 20000)) == ((0, -1), {})


@pytest.mark.parametrize("d,k", [(3, 5), (4, 4), (5, 3)])
def test_products_past_zero_blocks_match_the_chained_blocks(d, k):
    # _rmul_block skips each heavier block of exponent 0: states with zero
    # blocks on both sides, against the chained reference, cold and warm
    params = GroupParams(d, k)
    rng = random.Random(31 * d + k)
    metanil.clear_caches()
    for _ in ("cold", "warm"):
        for t in range(8):
            x, y = (module_sample(rng, params) for _ in range(2))
            zx = [rng.random() < 0.5 for _ in range(d)]
            zy = [rng.random() < 0.5 for _ in range(d)]
            x = (tuple(0 if z else e for z, e in zip(zx, x[0])), x[1])
            y = (tuple(0 if z else e for z, e in zip(zy, y[0])), {} if t % 2 else y[1])
            assert _mk(params, *_smul(params, x, y)) == _mk(params, *chained_mul(params, x, y))


# Brackets at P35 (k = 5), whose entries' least weights add up to exactly k
# (evaluated) or to k + 1 (the identity, never evaluated).
BRACKETS_AT_K = ["[c,a,a,b,b]", "[[c,a], a, b, b]", "[[c,a] [c,b,b], b c, a, b^2]"]
BRACKETS_PAST_K = [
    "[a,b,c,a,b,c]",
    "[[c,a], a, b, b, c]",
    "[[c,a] [c,b,b], [b,c], a, b^2]",
    "[[c,a,b], a^2 [b,c], [c,b]]",
]


def test_brackets_at_and_past_the_class_agree_with_the_oracle():
    metanil.clear_caches()
    for _ in ("cold", "warm"):
        for text in BRACKETS_AT_K + BRACKETS_PAST_K:
            trivial = text_state(text, P35) == text_state("", P35)
            assert trivial == (text in BRACKETS_PAST_K), text
            assert trivial == oracle_equal(parse_word(text, P35), parse_word("", P35), P35)
            assert collect_text(text, P35) == collect(parse_word(text, P35), P35), text


def test_brackets_past_the_class_are_not_evaluated(monkeypatch):
    # k + 1 entries, none of them a bracket, so no left_normed call at all
    import metanil.core as core

    def refuse(xs):
        raise AssertionError("a bracket was evaluated")

    monkeypatch.setattr(core, "left_normed", refuse)
    for text in ("[a,b,c,a,b,c]", "[a b, c, a^2 b, c, a, b^-1]", "[(c a)^3, b, c, a, b, a]"):
        assert text_state(text, P35) == ((0, 0, 0), {})
    with pytest.raises(AssertionError):
        text_state(BRACKETS_AT_K[0], P35)


# --- the module action: differential check against the chained N_E ---------------
#
# The reference conjugates by a^E one generator block at a time, each block
# expanding (1 + D_j)^E_j over the whole vector, and collects products with
# the per-block conjugations that the cached one-pass action replaced.


def chained_conj(vec, e, k):
    """conj_(a^E) vec, as prod_j (1 + D_j)^E_j applied block after block."""
    for j, c in enumerate(e):
        if c:
            out = {}
            for seq, coef in vec.items():
                cur, r = {seq: coef}, 0
                while cur:
                    _vadd(out, cur.items(), binom(c, r))
                    cur, r = _apply_d(cur, j, k), r + 1
            vec = out
    return dict(vec)


def chained_n(vec, e, k):
    out = chained_conj(vec, e, k)
    _vadd(out, vec.items(), -1)
    return out


def chained_mul(params, x, y):
    d, k = params.rank, params.nilclass
    exp, vec = list(x[0]), dict(x[1])
    for j, c in enumerate(y[0]):
        if c:
            vec = chained_conj(vec, tuple(c if i == j else 0 for i in range(d)), k)
            for m in range(j + 1, d):
                suffix = (0,) * (m + 1) + tuple(exp[m + 1 :])
                g = chained_conj(dict(_gen_comm_cached(m, exp[m], j, c, k)), suffix, k)
                _vadd(vec, g.items())
            exp[j] += c
    _vadd(vec, y[1].items())
    return tuple(exp), vec


def chained_inverse(params, x):
    d = params.rank
    a_inv = ((0,) * d, {})
    for m in reversed(range(d)):
        block = tuple(-x[0][m] if i == m else 0 for i in range(d))
        a_inv = chained_mul(params, a_inv, (block, {}))
    return chained_mul(params, ((0,) * d, {s: -c for s, c in x[1].items()}), a_inv)


def chained_power(params, x, n):
    if n < 0:
        x, n = chained_inverse(params, x), -n
    out = ((0,) * params.rank, {})
    while n:
        if n & 1:
            out = chained_mul(params, out, x)
        n >>= 1
        if n:
            x = chained_mul(params, x, x)
    return out


def module_sample(rng, params, zero_exp=False):
    # a few brackets of every weight, the top weight k included, and an
    # exponent vector with zero and negative entries
    exp = tuple(0 if zero_exp else rng.randint(-3, 3) for _ in range(params.rank))
    vec = {}
    for w in range(2, params.nilclass + 1):
        basics = enumerate_basics(params, w)
        for seq in rng.sample(basics, min(2, len(basics))):
            vec[seq] = rng.choice([-3, -2, -1, 1, 2, 3])
    return exp, vec


MODULE_SHAPES = [(2, 7), (3, 5), (4, 4), (5, 4), (6, 3), (7, 3), (8, 3), (9, 3)]


@pytest.mark.parametrize("d,k", MODULE_SHAPES)
def test_module_action_matches_the_chained_blocks(d, k):
    params = GroupParams(d, k)
    rng = random.Random(7 * d + k)
    for t in range(6):
        e, vec = module_sample(rng, params, zero_exp=t == 0)
        f, _ = module_sample(rng, params)
        assert _conj_minus_one(vec, e, k) == chained_n(vec, e, k)
        assert _conj_minus_one(vec, f, k) == chained_n(vec, f, k)
        x, y = (_mk(params, *module_sample(rng, params, zero_exp=t == 1)) for _ in range(2))
        sx, sy = (x.exp, x.dmap()), (y.exp, y.dmap())
        assert mul(x, y) == _mk(params, *chained_mul(params, sx, sy))
        assert inverse(x) == _mk(params, *chained_inverse(params, sx))
        yx_inv = chained_inverse(params, chained_mul(params, sy, sx))
        comm = chained_mul(params, yx_inv, chained_mul(params, sx, sy))
        assert commutator(x, y) == _mk(params, *comm)
        for n in (0, 1, -1, k + 2, -(k + 3), 10**6 + 3):
            assert power(x, n) == _mk(params, *chained_power(params, sx, n)), n


def test_module_action_keeps_a_pair_that_cancels_on_the_way():
    # N_E of the weight-4 bracket lands -2 on (1,0,0,0,1), where the input
    # holds +2 of the fixed weight-5 bracket: the result must keep the -2
    vec = {(1, 0, 0, 0, 1): 2, (1, 0, 0, 0): -2}
    expect = {(1, 0, 0, 0, 0): -4, (1, 0, 0, 0, 1): -2}
    assert chained_n(vec, (2, 1), 5) == expect
    assert _conj_minus_one(vec, (2, 1), 5) == expect
    assert vec == {(1, 0, 0, 0, 1): 2, (1, 0, 0, 0): -2}


def test_cache_info_lists_every_cache():
    power(collect_text("a b c", P35), 51)
    info = metanil.cache_info()
    assert {"core._comm_exp_parts", "core._act_basis", "magnus._basis"} <= set(info)
    assert not {"core.mul", "core.inverse", "core._pair", "autos._image_of_basic"} & set(info)
    assert info["core._power_differences"].currsize >= 1
    assert info["core._power_differences"].maxsize == 256
    metanil.clear_caches()
    assert all(ci.currsize == 0 for ci in metanil.cache_info().values())


def test_eq_evaluates_without_building_words(monkeypatch, capsys):
    # the word path (parse_word, then collect) must not be taken: eq answers
    # with both of its entry points made to raise
    import metanil.core as core
    import metanil.words as words
    from metanil.cli import main

    def refuse(*args):
        raise AssertionError("a free-group Word was built")

    monkeypatch.setattr(words, "parse_word", refuse)
    monkeypatch.setattr(core, "collect", refuse)
    w1 = "(a b^-1 c)^53 [[a b, c],[b, a c]] (c^-1 a b)^-51"
    w2 = "(a b^-1 c)^53 (c^-1 a b)^-51"
    assert main(["eq", "--rank", "3", "--class", "5", "--json", w1, w2]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True
    assert main(["eq", "--rank", "3", "--class", "5", "--json", w1 + " [c,a]", w2]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is False


def _words_pair_texts(rng: random.Random, params: GroupParams, i: int) -> tuple[str, str]:
    """Two factors (x y z)^e, |e| in 50..55, and the same with a bracket inserted.

    The insert is a second-derived bracket or a weight-(k+1) bracket (both
    trivial), or a power of a basic commutator of weight <= k (never trivial).
    """
    names = "abcd"[: params.rank]

    def sub(n):
        return " ".join(g if rng.random() < 0.5 else f"{g}^-1" for g in rng.sample(names, n))

    factors = [f"({sub(3)})^{rng.choice([1, -1]) * rng.randint(50, 55)}" for _ in range(2)]
    if i % 3 == 0:
        insert = "[[{},{}],[{},{}]]".format(*(sub(2) for _ in range(4)))
    elif i % 3 == 1:
        insert = "[" + ",".join(sub(1) for _ in range(params.nilclass + 1)) + "]"
    else:
        seq = rng.choice(all_basics(params))
        insert = "[" + ",".join(names[g] for g in seq) + f"]^{rng.choice([-2, -1, 2])}"
    pos = rng.randrange(3)
    return " ".join(factors), " ".join(factors[:pos] + [insert] + factors[pos:])


def _power_texts(rng: random.Random, params: GroupParams, i: int) -> tuple[str, str]:
    """x^n against x^m x^(n-m), n up to 10^18, half with a bracket appended."""
    names = "abcd"[: params.rank]
    base = " ".join(
        f"{rng.choice(names)}^{rng.choice([-2, -1, 1, 2])}" for _ in range(rng.randint(1, 4))
    )
    n = rng.choice([rng.randint(-60, 60), 10**18, -(10**18)])
    m = rng.randint(-60, 60)
    t2 = f"({base})^{m} ({base})^{n - m}"
    if i % 2:
        t2 += " [" + ",".join(rng.choice(names) for _ in range(rng.randint(2, 4))) + "]"
    return f"({base})^{n}", t2


@pytest.mark.parametrize("texts", [_words_pair_texts, _power_texts])
def test_text_states_compare_like_elements(texts):
    # eq compares collector states, so equal states must mean equal Elements
    # and unequal states unequal ones: a state holds an exponent tuple and no
    # zero coefficient
    rng = random.Random(15)
    verdicts = []
    for params in (P33, P35, GroupParams(4, 4)):
        for i in range(24):
            t1, t2 = texts(rng, params, i)
            s1, s2 = text_state(t1, params), text_state(t2, params)
            for t, st in ((t1, s1), (t2, s2)):
                assert isinstance(st[0], tuple) and all(st[1].values())
                assert _mk(params, *st) == collect_text(t, params)
            same = s1 == s2
            assert same == (collect_text(t1, params) == collect_text(t2, params)), (t1, t2)
            verdicts.append(same)
    assert 0 < verdicts.count(True) < len(verdicts)


# --- concurrency ----------------------------------------------------------------


def test_concurrent_use_is_safe():
    # pure value semantics and write-once caches: concurrent workers doing
    # the same arithmetic must agree with a serial reference run
    import concurrent.futures

    params = GroupParams(3, 5)
    rng = random.Random(99)
    words = [random_word(rng, params, max_len=10) for _ in range(40)]
    serial = [collect(w, params) for w in words]
    serial_prod = [mul(x, y) for x, y in zip(serial, serial[1:])]

    def work(_):
        got = [collect(w, params) for w in words]
        prods = [mul(x, y) for x, y in zip(got, got[1:])]
        return got == serial and prods == serial_prod

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(work, range(8)))


# --- printing and JSON ------------------------------------------------------------


def test_canonical_print_format():
    assert str(collect_text("(a b)^2", P23)) == "a^2 b^2 [b,a] [b,a,b]"
    assert str(identity(P23)) == "1"
    assert str(collect_text("[a,b]", P23)) == "[b,a]^-1"


def test_print_collect_round_trip():
    rng = random.Random(12)
    for _ in range(80):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        x = random_element(rng, params)
        assert collect_text(str(x), params) == x


def test_element_json_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        x = random_element(rng, params)
        blob = element_to_json(x)
        assert blob["rank"] == params.rank and blob["class"] == params.nilclass
        assert element_from_json(blob) == x


def test_element_validation():
    with pytest.raises(DomainError):
        Element(P23, (0,))
    with pytest.raises(DomainError):
        Element(P23, (0, 0), (((0, 1), 1),))  # not a basic shape
    with pytest.raises(DomainError):
        Element(P23, (0, 0), (((1, 0), 0),))  # zero coefficient


@pytest.mark.parametrize("seq", [[1, -1], [0, -1], [1, -2, 0], [1, 0, -1]], ids=str)
def test_negative_bracket_index_is_not_a_basic_commutator(seq):
    # b1 > b2 <= b3 ... holds for (1, -1), but no generator has index -1
    blob = {"exp": [0, 0], "derived": [{"seq": seq, "coef": 1}]}
    with pytest.raises(DomainError, match="is not a basic commutator here"):
        element_from_json(blob, P23)
    with pytest.raises(DomainError, match="is not a basic commutator here"):
        Element(P23, (0, 0), ((tuple(seq), 1),))
