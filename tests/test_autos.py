import json
import math
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

import metanil.autos as autos
import metanil.normality as normality
from metanil import clear_caches
from metanil.autos import (
    AutoSpec,
    GenInnerData,
    PolyAutoData,
    apply_endo,
    apply_gen_inner,
    apply_poly_auto,
    aut_commutator,
    class2_conjugator,
    compose_endo,
    compose_gen_inner,
    epsilon_sum,
    flatten,
    gen_inner_from_json,
    gen_inner_to_json,
    gen_inner_to_spec,
    identity_spec,
    invert_gen_inner,
    invert_ia,
    is_ia,
    is_inner,
    spec_from_json,
    spec_to_json,
)
from metanil.core import (
    _mk,
    _vadd,
    collect_text,
    commutator,
    derived_element,
    element_to_json,
    enumerate_basics,
    gamma_layer,
    gen_element,
    identity,
    inverse,
    left_normed,
    mul,
    power,
    reduce_class,
    truncate_weight,
)
from metanil.intsolve import integer_solve
from metanil.normality import synthesize_gen_inner
from metanil.verify import (
    golden_ia_triple,
    random_derived_element,
    random_element,
    random_gen_inner,
    random_ia_spec,
)
from metanil.cli import main
from metanil.words import DomainError, EngineFault, GroupParams

P23 = GroupParams(2, 3)
P32 = GroupParams(3, 2)
P35 = GroupParams(3, 5)


def conjugation_spec(params, u):
    return AutoSpec(
        params,
        tuple(
            mul(gen_element(params, i), commutator(gen_element(params, i), u))
            for i in range(params.rank)
        ),
    )


# --- endomorphisms by images ---------------------------------------------------


def test_identity_spec_applies_trivially():
    rng = random.Random(0)
    x = random_element(rng, P35)
    assert apply_endo(identity_spec(P35), x) == x


def test_apply_endo_on_a_generator():
    _, f, _, _ = golden_ia_triple()
    p = f.params
    assert apply_endo(f, gen_element(p, 0)) == collect_text("a [a,b]", p)


def test_apply_endo_is_multiplicative():
    rng = random.Random(1)
    for _ in range(30):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        f = random_ia_spec(rng, params)
        x, y = random_element(rng, params), random_element(rng, params)
        assert apply_endo(f, mul(x, y)) == mul(apply_endo(f, x), apply_endo(f, y))


def apply_endo_reference(f, x):
    """f(x) with each basic's image a fresh left_normed of whole images."""
    out = identity(f.params)
    for i, e in enumerate(x.exp):
        out = mul(out, power(f.images[i], e))
    total = {}
    for seq, c in x.derived:
        _vadd(total, left_normed([f.images[b] for b in seq]).derived, c)
    return mul(out, derived_element(f.params, total))


def random_endo(rng, params):
    """An IA spec, or one whose images are random elements (rarely IA)."""
    if rng.random() < 0.5:
        return random_ia_spec(rng, params)
    return AutoSpec(params, tuple(random_element(rng, params) for _ in range(params.rank)))


def element_with_every_weight(rng, params):
    """a^E times a derived part with basics of every weight 2..k (a^E collects to itself)."""
    vec = {}
    for w in range(2, params.nilclass + 1):
        basics = enumerate_basics(params, w)
        for seq in rng.sample(basics, min(3, len(basics))):
            vec[seq] = rng.choice([-3, -1, 1, 2])
    x = identity(params)
    for i in range(params.rank):
        x = mul(x, gen_element(params, i, rng.randint(-2, 2)))
    return mul(x, derived_element(params, vec))


@pytest.mark.parametrize(
    "shape", [(2, 3), (2, 8), (3, 5), (4, 4), (5, 4), (6, 3), (7, 3), (8, 3), (9, 4)], ids=str
)
def test_apply_and_compose_endo_match_the_per_basic_brackets(shape):
    rng = random.Random(sum(shape))
    params = GroupParams(*shape)
    for _ in range(4):
        f, g = random_endo(rng, params), random_endo(rng, params)
        x = element_with_every_weight(rng, params)
        assert {len(seq) for seq, _ in x.derived} == set(range(2, params.nilclass + 1))
        assert apply_endo(f, x) == apply_endo_reference(f, x)
        assert compose_endo(g, f).images == tuple(
            apply_endo_reference(g, img) for img in f.images
        )


def test_compose_endo_unit_laws_and_associativity():
    rng = random.Random(2)
    for _ in range(15):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4]))
        f, g, h = (random_ia_spec(rng, params) for _ in range(3))
        e = identity_spec(params)
        assert compose_endo(e, f).images == f.images
        assert compose_endo(f, e).images == f.images
        assert (
            compose_endo(compose_endo(f, g), h).images
            == compose_endo(f, compose_endo(g, h)).images
        )


def test_is_ia():
    assert is_ia(identity_spec(P23))
    _, f, g, h = golden_ia_triple()
    assert is_ia(f) and is_ia(g) and is_ia(h)
    inverting = AutoSpec(P23, (inverse(gen_element(P23, 0)), gen_element(P23, 1)))
    assert not is_ia(inverting)


def test_invert_ia_class2_is_exact():
    p = GroupParams(3, 2)
    f = AutoSpec(
        p,
        (collect_text("a [a,b]", p), gen_element(p, 1), gen_element(p, 2)),
    )
    inv = invert_ia(f)
    assert inv.images[0] == collect_text("a [a,b]^-1", p)
    assert compose_endo(f, inv).is_identity


def test_invert_ia_round_trips():
    assert invert_ia(identity_spec(P23)).is_identity
    p, f, _, _ = golden_ia_triple()
    inv = invert_ia(f)
    assert reduce_class(inv.images[0], 2) == reduce_class(
        collect_text("a [a,b]^-1", p), 2
    )
    assert compose_endo(f, inv).is_identity
    rng = random.Random(3)
    for _ in range(20):
        params = GroupParams(rng.choice([2, 3, 4]), rng.choice([2, 3, 4, 5]))
        f = random_ia_spec(rng, params)
        inv = invert_ia(f)
        assert compose_endo(f, inv).is_identity
        assert compose_endo(inv, f).is_identity
    # seed-1 map 4 at (5,6): a spec with 1 141 derived terms over long basics
    rng, p56 = random.Random(1), GroupParams(5, 6)
    f = [gen_inner_to_spec(random_gen_inner(rng, p56)) for _ in range(5)][4]
    inv = invert_ia(f)
    assert compose_endo(f, inv).is_identity
    assert compose_endo(inv, f).is_identity
    with pytest.raises(DomainError):
        invert_ia(AutoSpec(P23, (inverse(gen_element(P23, 0)), gen_element(P23, 1))))


def test_golden_commutator_values():
    p, f, g, h = golden_ia_triple()
    a, b, c = (gen_element(p, i) for i in range(3))
    fg = aut_commutator(f, g)
    assert fg.images[0] == collect_text("a [c^-1,b,a]", p)
    assert fg.images[1] == b and fg.images[2] == c
    fh = aut_commutator(f, h)
    assert fh.images[2] == collect_text("c [a,b^-1,c]", p)
    assert fh.images[0] == a and fh.images[1] == b
    assert compose_endo(fh, fg).images[2] == collect_text("c [a,b^-1,c]", p)
    assert compose_endo(fg, fh).images[2] == collect_text(
        "c [a,b^-1,c] [c,b,a,b,c]", p
    )
    assert not aut_commutator(fg, fh).is_identity


def test_spec_json_round_trip():
    _, f, _, _ = golden_ia_triple()
    assert spec_from_json(spec_to_json(f)).images == f.images


def test_spec_from_json_refuses_an_empty_spec_without_parameters():
    with pytest.raises(DomainError, match="empty spec"):
        spec_from_json({"images": []})


def test_spec_from_json_refuses_a_first_word_image_without_parameters():
    with pytest.raises(DomainError, match="explicit group parameters"):
        spec_from_json({"images": ["a", "b"]})


def test_spec_from_json_later_images_inherit_the_first_parameters():
    a = element_to_json(gen_element(P23, 0))
    f = spec_from_json({"images": [a, "a b"]})
    assert f.params == P23
    assert f.images == (gen_element(P23, 0), collect_text("a b", P23))
    b_ba2 = {"exp": [0, 1], "derived": [{"seq": [1, 0], "coef": 2}]}
    g = spec_from_json({"images": [a, b_ba2]})
    assert g.images[1] == collect_text("b [b,a]^2", P23)


# --- generalized inner data -----------------------------------------------------


def test_apply_gen_inner_empty_and_conjugation():
    rng = random.Random(4)
    x = random_element(rng, P23)
    assert apply_gen_inner(GenInnerData(P23), x) == x
    u = random_element(rng, P23)
    data = GenInnerData(P23, ((u, 1),))
    assert apply_gen_inner(data, x) == mul(mul(inverse(u), x), u)


def test_apply_gen_inner_is_multiplicative():
    rng = random.Random(5)
    for _ in range(30):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        data = random_gen_inner(rng, params)
        x, y = random_element(rng, params), random_element(rng, params)
        assert apply_gen_inner(data, mul(x, y)) == mul(
            apply_gen_inner(data, x), apply_gen_inner(data, y)
        )


def apply_gen_inner_reference(data, x):
    """apply_gen_inner with one Element per bracket, multiplied back into x."""
    total = {}
    for u, lam in data.pairs:
        _vadd(total, commutator(x, u).derived, lam)
    return mul(x, derived_element(data.params, total))


def data_with_derived_pair(rng, params):
    """random_gen_inner data plus a derived pair, so it has both kinds."""
    data = random_gen_inner(rng, params, max_pairs=4)
    return GenInnerData(params, data.pairs + ((random_derived_element(rng, params), 1),))


APPLY_SHAPES = [(2, 3), (2, 8), (3, 5), (3, 6), (4, 5), (5, 4)]


@pytest.mark.parametrize("shape", APPLY_SHAPES, ids=str)
def test_apply_gen_inner_matches_the_element_brackets(shape):
    params = GroupParams(*shape)
    rng = random.Random(f"apply/{shape}")
    gens = [gen_element(params, i) for i in range(params.rank)]
    for _ in range(4):
        for data in (random_gen_inner(rng, params), data_with_derived_pair(rng, params)):
            xs = gens + [
                mul(random_element(rng, params), random_derived_element(rng, params))
                for _ in range(3)
            ]
            for x in xs:
                assert apply_gen_inner(data, x) == apply_gen_inner_reference(data, x)


def defect_reference(data, x):
    return mul(inverse(x), apply_gen_inner_reference(data, x)).dmap()


@pytest.mark.parametrize("shape", APPLY_SHAPES, ids=str)
def test_invert_and_synthesize_match_the_element_brackets(monkeypatch, shape):
    # the same data, pairs in order, with every application of pair data
    # (the series bound, both audits, gen_inner_to_spec) made bracket by bracket
    params = GroupParams(*shape)
    rng = random.Random(f"apply-callers/{shape}")
    for _ in range(3):
        for phi in (random_gen_inner(rng, params), data_with_derived_pair(rng, params)):
            spec = gen_inner_to_spec(phi)
            got = (invert_gen_inner(phi), synthesize_gen_inner(spec))
            with monkeypatch.context() as m:
                m.setattr(autos, "apply_gen_inner", apply_gen_inner_reference)
                m.setattr(autos, "_defect", defect_reference)
                # the decision audit reads _defect through normality's import
                m.setattr(normality, "_defect", defect_reference)
                assert got == (invert_gen_inner(phi), synthesize_gen_inner(spec))


def test_a_faulty_series_fails_the_inversion_audit(monkeypatch, capsys):
    # one derived coefficient of every nonempty expansion moved by one: the
    # audit, which shares no helper with the series, refuses the result
    flatten_term = autos._flatten_term

    def moved(params, exps):
        pairs, derived = flatten_term(params, exps)
        if derived:
            (b, c), *rest = derived
            derived = ((b, c + 1), *rest)
        return pairs, derived

    p = GroupParams(2, 3)
    monkeypatch.setattr(autos, "_flatten_term", moved)
    try:
        fault = "^inversion audit failed: phi o psi is not the identity$"
        with pytest.raises(EngineFault, match=fault):
            invert_gen_inner(GenInnerData(p, ((collect_text("a b", p), 1),)))
        payload = '{"pairs": [{"u": "a b", "lambda": 1}]}'
        assert main(["invert", "--rank", "2", "--class", "3", payload]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: inversion audit failed: phi o psi is not the identity\n"
    finally:
        # the recursion stored moved expansions in the cache
        flatten_term.cache_clear()


def perturbed(rng, data):
    """data with one exponent pair's lambda, or one coefficient of its pair
    in M', moved by one; data itself when it has no pairs."""
    if not data.pairs:
        return data
    pairs = list(data.pairs)
    i = rng.randrange(len(pairs))
    u, lam = pairs[i]
    step = rng.choice([-1, 1])
    if any(u.exp):
        pairs[i] = (u, lam + step)
    else:
        seq, c = rng.choice(u.derived)
        pairs[i] = (derived_element(data.params, {**u.dmap(), seq: c + step}), lam)
    return GenInnerData(data.params, tuple(pairs))


AUDIT_SHAPES = [(1, 1), (2, 1), (2, 2), (2, 3), (2, 5), (2, 10), (3, 2), (3, 4), (3, 6),
                (4, 3), (4, 5), (5, 4)]


@pytest.mark.parametrize("shape", AUDIT_SHAPES, ids=str)
def test_vector_audits_agree_with_the_element_audits(monkeypatch, shape):
    # the result handed to each audit is replaced by the correct one or a
    # perturbed one; the derived-vector audit raises exactly when the
    # Element audit (images compared as collected elements) rejects it
    params = GroupParams(*shape)
    rng = random.Random(f"audits/{shape}")
    gens = [gen_element(params, i) for i in range(params.rank)]

    def verdict(run, fault):
        try:
            run()
        except EngineFault as exc:
            assert str(exc) == fault
            return False
        return True

    rejected = 0
    for phi in pair_data_kinds(rng, params):
        f = gen_inner_to_spec(phi)
        psi = invert_gen_inner(phi)
        data = synthesize_gen_inner(f) if params.rank >= 2 else None
        for n in range(3):
            bad = psi if n == 0 else perturbed(rng, psi)
            images = gen_inner_to_spec(bad).images
            element = all(apply_gen_inner(phi, img) == a for a, img in zip(gens, images))
            with monkeypatch.context() as m:
                m.setattr(autos, "flatten", lambda *args: bad)
                vector = verdict(lambda: invert_gen_inner(phi),
                                 "inversion audit failed: phi o psi is not the identity")
            assert vector == element, (phi, bad)
            rejected += not element
            if data is None:
                continue
            bad = data if n == 0 else perturbed(rng, data)
            element = gen_inner_to_spec(bad).images == f.images
            with monkeypatch.context() as m:
                m.setattr(normality, "flatten", lambda *args: bad)
                vector = verdict(lambda: synthesize_gen_inner(f),
                                 "synthesized data fails to reproduce the automorphism")
            assert vector == element, (f, bad)
            rejected += not element
    # past class 1 the perturbations move the map, and both audits see it
    assert rejected > 0 or params.nilclass == 1


def test_gen_inner_to_spec_round_trip():
    assert gen_inner_to_spec(GenInnerData(P23)).is_identity
    rng = random.Random(6)
    for _ in range(20):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4]))
        data = random_gen_inner(rng, params)
        spec = gen_inner_to_spec(data)
        x = random_element(rng, params)
        assert apply_endo(spec, x) == apply_gen_inner(data, x)


def random_terms(rng, params):
    """One to two (tail, eta) terms, each tail of one to three random elements."""
    terms = []
    for _ in range(rng.randrange(1, 3)):
        tail = tuple(
            random_element(rng, params, max_len=4)
            for _ in range(rng.randrange(1, 4))
        )
        terms.append((tail, rng.choice([-2, -1, 1, 2])))
    return terms


def apply_terms(terms, x):
    """x * prod [x, v_1, ..., v_s]^eta, the nested map evaluated bracket by bracket."""
    out = x
    for tail, eta in terms:
        out = mul(out, power(left_normed([x, *tail]), eta))
    return out


def flatten_tails(params, terms):
    """flatten on Element-tail (tail, eta) terms, as (exps, s1, eta): past the
    head only the exponents of the tail count."""
    return flatten(params, [(tuple(v.exp for v in tail), tail[0].derived, eta)
                            for tail, eta in terms])


def test_flatten_examples():
    a = gen_element(P23, 0)
    single = flatten_tails(P23, [((a,), 5)])
    assert single == GenInnerData(P23, ((a, 5),))
    flat = flatten(P23, [((a.exp, a.exp), (), 1)])
    assert dict(flat.pairs) == {a: -2, collect_text("a^2", P23): 1}
    u, v = collect_text("a b", P23), collect_text("b^2", P23)
    two = flatten_tails(P23, [((u, v), 1)])
    assert dict(two.pairs) == {u: -1, v: -1, mul(u, v): 1}
    with pytest.raises(DomainError):
        flatten(P23, [((), (), 1)])


def test_the_constructor_is_flatten_over_1_tails():
    p = GroupParams(2, 3)
    a, b, ab = gen_element(p, 0), gen_element(p, 1), collect_text("a b", p)
    top = collect_text("a b [b,a,a]", p)
    t = derived_element(p, {(1, 0): 2, (1, 0, 0): 3})
    pairs = ((b, 1), (a, 0), (ab, 2), (t, 1), (top, -1), (b, 2))
    data = GenInnerData(p, pairs)
    assert data == flatten(p, [((u.exp,), u.derived, lam) for u, lam in pairs])
    # lambda 0 dropped, b and a b merged in first-occurrence order, and the
    # weight-3 sum [b,a,a]^2 dropped: [x, u] cannot see it
    assert data.pairs == ((b, 3), (ab, 1), (derived_element(p, {(1, 0): 2}), 1))
    # at class 1 every [x, u] is trivial, but exponent pairs stay stored
    p = GroupParams(2, 1)
    a, b = gen_element(p, 0), gen_element(p, 1)
    pairs = ((a, 2), (b, 0), (a, -1))
    data = GenInnerData(p, pairs)
    assert data == flatten(p, [((u.exp,), u.derived, lam) for u, lam in pairs])
    assert data.pairs == ((a, 1),)
    assert flatten(p, [((a.exp, b.exp), (), 1)]).is_empty


def test_flatten_is_extensional():
    rng = random.Random(7)
    for _ in range(40):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        terms = random_terms(rng, params)
        flat = flatten_tails(params, terms)
        for _ in range(3):
            x = random_element(rng, params)
            assert apply_terms(terms, x) == apply_gen_inner(flat, x)


def flatten_reference(params, terms):
    """flatten by the Element recursion [x, y, z, R] = [x, y, R]^-1 [x, z, R]^-1 [x, yz, R].

    The reference for flatten: the same expansion made on whole elements,
    with no split into exponent tuples.  Each tail is truncated to weight
    k - s, the three parts are merged in that order, and an element is
    dropped when its coefficient reaches 0.
    """
    k = params.nilclass

    @lru_cache(maxsize=None)
    def term(tail):
        s = len(tail)
        tail = tuple(truncate_weight(v, k - s) for v in tail)
        if 1 + sum(v.min_weight() for v in tail) > k:
            return ()
        if s == 1:
            return ((tail[0], 1),)
        v1, v2, *rest = tail
        out = {}
        for head, sign in ((v1, -1), (v2, -1), (mul(v1, v2), 1)):
            for u, c in term((head, *rest)):
                v = out.get(u, 0) + sign * c
                if v:
                    out[u] = v
                else:
                    out.pop(u, None)
        return tuple(out.items())

    pairs = [
        (u, c * eta)
        for tail, eta in terms
        if eta and 1 + sum(v.min_weight() for v in tail) <= k
        for u, c in term(tuple(tail))
    ]
    return GenInnerData(params, tuple(pairs))


def mixed_terms(rng, params):
    """One to three terms over a pool of three elements, so tails repeat
    elements; each pool element is a pure exponent, pure derived or both."""
    pool = []
    for _ in range(3):
        kind = rng.choice(["exp", "derived", "mixed"])
        if kind == "derived":
            pool.append(random_derived_element(rng, params))
            continue
        x = random_element(rng, params, max_len=4)
        pool.append(x if kind == "mixed" else truncate_weight(x, 1))
    longest = max(1, min(params.nilclass - 1, 4))
    return [
        (
            tuple(rng.choice(pool) for _ in range(rng.randint(1, longest))),
            rng.choice([-2, -1, 0, 1, 2]),
        )
        for _ in range(rng.randint(1, 3))
    ]


@pytest.mark.parametrize(
    "rank, classes",
    [(2, range(2, 12)), (3, range(2, 8)), (4, range(2, 7)), (5, range(2, 6))],
    ids=["rank2", "rank3", "rank4", "rank5"],
)
def test_flatten_matches_the_element_recursion(rank, classes):
    # Same exponents, lambdas and derived pair on arbitrary terms.  The
    # first-occurrence order of the exponents may differ where two distinct
    # Element products share an exponent vector (the reference keeps them
    # apart); on the terms compose, invert and synthesize build it has not,
    # which the caller test below checks pair for pair.  The outputs of
    # flatten, compose and invert (on the terms' elements as pair data) are
    # already stored form: the public constructor leaves them as they are,
    # and no stored bracket reaches weight k, which [x, u] cannot see.
    rng = random.Random(rank)
    for k in classes:
        params = GroupParams(rank, k)
        # N_(a^2) [b,a,...,a] of weight k - 2 reaches weight k, which only
        # the final truncation of the pair data removes
        pushed = derived_element(params, {(1,) + (0,) * (k - 3): 1})
        edge = [((pushed, gen_element(params, 0, 2)), 1)] if k >= 4 else []
        for n in range(8):
            terms = (edge if n == 0 else []) + mixed_terms(rng, params)
            got, want = flatten_tails(params, terms), flatten_reference(params, terms)
            assert dict(got.pairs) == dict(want.pairs), (params, terms)
            data = GenInnerData(params, tuple((v, eta) for tail, eta in terms for v in tail))
            for out in (got, compose_gen_inner(data, data), invert_gen_inner(data)):
                assert GenInnerData(params, out.pairs) == out, (params, terms)
                assert all(len(b) < k for u, _ in out.pairs for b, _ in u.derived)


def test_flatten_edge_cases_match_the_element_recursion_pair_for_pair():
    p = GroupParams(3, 5)
    a, b, c = (gen_element(p, i) for i in range(3))
    t = derived_element(p, {(1, 0): 1, (2, 0, 1): -2})
    t3 = derived_element(p, {(2, 1, 1): 1})
    cases = {
        "pure-derived first element": [((t, a), 2), ((t, b, c), -1), ((mul(a, t), b), 1)],
        "pure-derived later element": [((a, t), 1), ((b, a, t), 3), ((a, mul(b, t)), -1)],
        "E1 + E2 = 0": [((a, inverse(a)), 1), ((mul(a, b), inverse(mul(a, b)), c), -2)],
        "eta = 0": [((a, b), 0)],
        "dead past the class": [((a, b, c, a, b), 1), ((t3, t3), 1), ((a, t3, b), 2)],
        "tails of length k - 1": [((a, b, c, a), 1), ((b, a, b, c), -1)],
    }
    for name, terms in cases.items():
        assert flatten_tails(p, terms) == flatten_reference(p, terms), name
    assert flatten_tails(p, cases["eta = 0"]).is_empty
    assert flatten_tails(p, cases["dead past the class"]).is_empty
    p = GroupParams(2, 11)
    tail = tuple(gen_element(p, i % 2) for i in range(10))
    assert flatten_tails(p, [(tail, 3)]) == flatten_reference(p, [(tail, 3)])


def fresh(v):
    """A new Element object equal to v."""
    return type(v)(v.params, v.exp, v.derived)


def test_flatten_takes_a_generator_of_fresh_elements():
    # one pass over a generator, each term read off elements that are freed
    # before the next is built, as the constructor hands over its pairs
    for shape in [(2, 6), (3, 5), (4, 4)]:
        params = GroupParams(*shape)
        rng = random.Random(f"fresh/{shape}")
        terms = [t for _ in range(6) for t in mixed_terms(rng, params)]
        want = flatten_tails(params, terms)
        got = flatten(params, (
            (tuple(fresh(v).exp for v in tail), fresh(tail[0]).derived, eta)
            for tail, eta in terms
        ))
        assert got == want == flatten_reference(params, terms)


def test_flatten_checks_every_element_and_prunes_as_before():
    p = GroupParams(3, 5)
    a, b = gen_element(p, 0), gen_element(p, 1)
    t3 = derived_element(p, {(2, 1, 1): 1})
    foreign = gen_element(GroupParams(3, 6), 0)
    # the constructor checks every pair, a foreign one with lambda 0 after
    # pairs already seen included, before it hands them to flatten
    for pairs in (((a, 1), (b, 1), (foreign, 0)), ((a, 0), (foreign, 0))):
        with pytest.raises(DomainError):
            GenInnerData(p, pairs)
    # dead terms, past the class by weight, share elements with live ones
    terms = [((t3, a), 1), ((a, t3), 2), ((a, b), 1), ((t3, t3), 1), ((a, b, a, b), 1)]
    assert flatten_tails(p, terms) == flatten_reference(p, terms)
    assert flatten_tails(p, [((t3, a, b), 1), ((a, b, a, b, a), 1)]).is_empty


@pytest.mark.parametrize(
    "shape", [(2, 3), (2, 6), (2, 8), (3, 4), (3, 6), (4, 5), (5, 4)], ids=str
)
def test_callers_match_the_element_recursion_pair_for_pair(monkeypatch, shape):
    # invert, compose and synthesize give the same data, pairs in order, as
    # the reference expansion over the full term lists (for synthesize, its
    # unit-vector tails read as generators)
    params = GroupParams(*shape)
    rng = random.Random(f"flatten/{shape}")
    for _ in range(4):
        phi = random_gen_inner(rng, params, max_pairs=4)
        if rng.random() < 0.5:
            phi = GenInnerData(params, phi.pairs + ((random_derived_element(rng, params), 1),))
        psi = random_gen_inner(rng, params)
        spec = gen_inner_to_spec(phi)

        got = (invert_gen_inner(phi), compose_gen_inner(psi, phi), synthesize_gen_inner(spec))
        with monkeypatch.context() as m:
            # only normality's name: the constructor calls autos.flatten
            m.setattr(normality, "flatten", lambda p, terms: flatten_reference(
                p, [(tuple(_mk(p, e, {}) for e in exps), eta) for exps, _, eta in terms]
            ))
            want = (
                invert_by_term_list(phi, flatten_reference),
                compose_every_cross_term(psi, phi, flatten_reference),
                synthesize_gen_inner(spec),
            )
            assert got == want
        comp = compose_endo(gen_inner_to_spec(psi), spec)
        assert gen_inner_to_spec(got[1]).images == comp.images


def test_compose_gen_inner_examples():
    rng = random.Random(8)
    data = random_gen_inner(rng, P23)
    assert compose_gen_inner(data, GenInnerData(P23)) == data
    assert compose_gen_inner(GenInnerData(P23), data) == data
    # conjugations compose into conjugation by the product
    for _ in range(10):
        u, v = random_element(rng, P35), random_element(rng, P35)
        comp = compose_gen_inner(
            GenInnerData(P35, ((v, 1),)), GenInnerData(P35, ((u, 1),))
        )
        target = GenInnerData(P35, ((mul(u, v), 1),))
        for i in range(3):
            x = gen_element(P35, i)
            assert apply_gen_inner(comp, x) == apply_gen_inner(target, x)


def test_compose_gen_inner_matches_functional_composition():
    rng = random.Random(9)
    for _ in range(30):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        phi, psi = random_gen_inner(rng, params), random_gen_inner(rng, params)
        comp = compose_gen_inner(psi, phi)
        spec = compose_endo(gen_inner_to_spec(psi), gen_inner_to_spec(phi))
        assert gen_inner_to_spec(comp).images == spec.images


def test_invert_gen_inner_examples():
    assert invert_gen_inner(GenInnerData(P23)).is_empty
    # at class 2, [x, a^2] = [x, a]^2: this data is the identity map, and its
    # series stops before the first term
    p22 = GroupParams(2, 2)
    trivial = GenInnerData(p22, ((gen_element(p22, 0), 2), (collect_text("a^2", p22), -1)))
    assert invert_gen_inner(trivial).is_empty
    rng = random.Random(10)
    u = random_element(rng, P35)
    inv = invert_gen_inner(GenInnerData(P35, ((u, 1),)))
    target = GenInnerData(P35, ((inverse(u), 1),))
    for i in range(3):
        x = gen_element(P35, i)
        assert apply_gen_inner(inv, x) == apply_gen_inner(target, x)


def test_invert_gen_inner_exact_low_class_value():
    a = gen_element(P23, 0)
    a2 = collect_text("a^2", P23)
    phi = GenInnerData(P23, ((a, -2), (a2, 1)))
    assert invert_gen_inner(phi) == GenInnerData(P23, ((a, 2), (a2, -1)))


def heavy_pair_data(rng, params):
    """Two single-generator exponent parts and a derived part: slow to invert."""
    p, q = rng.sample(range(params.rank), 2)
    return GenInnerData(
        params,
        (
            (power(gen_element(params, p), rng.choice([-1, 1])), rng.choice([-1, 1])),
            (power(gen_element(params, q), rng.choice([-1, 1])), rng.choice([-1, 1])),
            (random_derived_element(rng, params), 1),
        ),
    )


def invert_by_term_list(phi, flat=flatten_tails):
    """The reference for invert_gen_inner: every r-tail of pairs as one term.

    The series sum_r (-A)^r is written out as (tail, coefficient) terms, one
    head pair and a multiset of the rest with its multinomial count, over
    all pairs, and flattened in one call.  Tails with the pair in M' past
    the head are 1 by construction; they stay in the list.
    """
    params = phi.params
    k = params.nilclass
    gens = [gen_element(params, i) for i in range(params.rank)]
    s = min(min(map(len, autos._defect(phi, a)), default=k + 1) for a in gens) - 1
    terms = []
    for r in range(1, (k - 1) // s + 1):
        rests = []
        for rest in combinations_with_replacement(range(len(phi.pairs)), r - 1):
            count = math.factorial(r - 1)
            for m in Counter(rest).values():
                count //= math.factorial(m)
            tail = tuple(phi.pairs[j][0] for j in rest)
            rests.append((tail, count * math.prod(phi.pairs[j][1] for j in rest)))
        terms.extend(
            ((u, *tail), (-1) ** r * lam * c) for u, lam in phi.pairs for tail, c in rests
        )
    return flat(params, terms)


def compose_every_cross_term(psi, phi, flat=flatten_tails):
    """The reference for compose_gen_inner: every cross term [x, u_i, v_j]
    is flattened, those with v_j in M' (which are 1) included, and merged
    after phi and psi by the public constructor."""
    cross = [((u, v), mu * eta) for u, mu in phi.pairs for v, eta in psi.pairs]
    return GenInnerData(psi.params, phi.pairs + psi.pairs + flat(psi.params, cross).pairs)


def pair_data_kinds(rng, params):
    """Light, derived-only, light-plus-derived and heavy pair data at params."""
    maps = [random_gen_inner(rng, params, max_pairs=4) for _ in range(2)]
    if params.rank >= 2 and params.nilclass >= 2:
        derived = random_derived_element(rng, params)
        maps.append(GenInnerData(params, ((derived, rng.choice([-2, 1, 3])),)))
        light = random_gen_inner(rng, params, max_pairs=3)
        maps.append(GenInnerData(params, light.pairs + ((derived, 1),)))
        if params.nilclass <= 6:  # a heavy map at (2,8) takes up to 0.5 s
            maps.append(heavy_pair_data(rng, params))
    return maps


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 4), (2, 1), (2, 2), (2, 3), (2, 5), (2, 8), (3, 2), (3, 4), (3, 6),
     (4, 3), (4, 5), (5, 4), (2, 10)],
    ids=str,
)
def test_invert_and_compose_match_the_full_term_lists_byte_for_byte(shape):
    # skipping the dead tails and cross terms leaves the JSON unchanged,
    # the first-occurrence order of the exponent pairs included
    params = GroupParams(*shape)
    rng = random.Random(f"term-list/{shape}")

    def text(data):
        return json.dumps(gen_inner_to_json(data))

    maps = pair_data_kinds(rng, params)
    for phi in maps:
        inv = invert_gen_inner(phi)
        assert text(inv) == text(invert_by_term_list(phi)), phi
        for psi in (inv, *maps):
            assert text(compose_gen_inner(psi, phi)) == text(compose_every_cross_term(psi, phi))


def test_invert_gen_inner_matches_spec_inversion():
    rng = random.Random(31)
    shapes = [(d, k) for d in (2, 3) for k in (3, 4, 5, 6)] + [(2, 8)]
    for d, k in shapes:
        params = GroupParams(d, k)
        maps = [random_gen_inner(rng, params, max_pairs=4) for _ in range(2)]
        for phi in maps + [heavy_pair_data(rng, params)]:
            expected = invert_ia(gen_inner_to_spec(phi)).images
            assert gen_inner_to_spec(invert_gen_inner(phi)).images == expected


@pytest.mark.parametrize("shape, count", [((4, 6), 5), ((2, 10), 4)], ids=["4-6", "2-10"])
def test_invert_gen_inner_seed_maps_at_scale(shape, count):
    # the seed-1 maps whose inversion times README and ROADMAP report
    params = GroupParams(*shape)
    rng = random.Random(1)
    for _ in range(count):
        phi = random_gen_inner(rng, params)
        inv = invert_gen_inner(phi)
        for i in range(params.rank):
            a = gen_element(params, i)
            assert apply_gen_inner(inv, apply_gen_inner(phi, a)) == a
            assert apply_gen_inner(phi, apply_gen_inner(inv, a)) == a


def test_invert_gen_inner_round_trips():
    rng = random.Random(11)
    for _ in range(25):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5, 6]))
        phi = random_gen_inner(rng, params)
        inv = invert_gen_inner(phi)
        for side in (compose_gen_inner(inv, phi), compose_gen_inner(phi, inv)):
            for i in range(params.rank):
                x = gen_element(params, i)
                assert apply_gen_inner(side, x) == x


def test_class2_conjugator():
    data = GenInnerData(P32, ((gen_element(P32, 0), 1), (gen_element(P32, 1), 2)))
    assert class2_conjugator(data) == collect_text("a b^2", P32)
    assert class2_conjugator(GenInnerData(P32)) == identity(P32)
    rng = random.Random(12)
    for _ in range(25):
        params = GroupParams(rng.choice([2, 3]), rng.choice([1, 2]))
        data = random_gen_inner(rng, params)
        u = class2_conjugator(data)
        conj = GenInnerData(params, ((u, 1),))
        for i in range(params.rank):
            x = gen_element(params, i)
            assert apply_gen_inner(data, x) == apply_gen_inner(conj, x)
    with pytest.raises(DomainError):
        class2_conjugator(GenInnerData(P23))


def test_json_integer_fields_refuse_floats_and_bools():
    # a float, a bool or a string is not silently converted to an int;
    # ValueError is a parse error (exit 2) on the CLI, unlike DomainError
    a = {"rank": 2, "class": 3, "exp": [1, 0], "derived": []}
    bad = [
        lambda: gen_inner_from_json({"pairs": [{"u": "a", "lambda": 1.5}]}, P23),
        lambda: gen_inner_from_json({"pairs": [{"u": "a", "lambda": True}]}, P23),
        lambda: gen_inner_from_json({"pairs": [{"u": "a", "lambda": " 3 "}]}, P23),
        lambda: spec_from_json({"images": [dict(a, exp=["1", 0]), "b"]}, P23),
        lambda: gen_inner_from_json({"rank": 2.0, "class": 3, "pairs": []}),
        lambda: spec_from_json({"rank": 2, "class": True, "images": [a, a]}),
        lambda: spec_from_json({"images": [dict(a, rank=2.0), a]}),
        lambda: spec_from_json({"images": [dict(a, exp=[1.0, 0]), "b"]}, P23),
        lambda: spec_from_json(
            {"images": [dict(a, derived=[{"seq": [1, 0], "coef": False}]), "b"]}, P23
        ),
        lambda: spec_from_json(
            {"images": [dict(a, derived=[{"seq": [1.0, 0], "coef": 1}]), "b"]}, P23
        ),
    ]
    for load in bad:
        with pytest.raises(ValueError, match="expected an integer") as info:
            load()
        assert not isinstance(info.value, DomainError)
    big = gen_inner_from_json({"pairs": [{"u": "a", "lambda": 10**40}]}, P23)
    assert big.pairs[0][1] == 10**40


def test_gen_inner_json_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4]))
        data = random_gen_inner(rng, params)
        assert gen_inner_from_json(gen_inner_to_json(data)) == data


# --- group structure of the data maps ----------------------------------------------


def test_data_maps_form_a_group():
    rng = random.Random(14)
    for _ in range(10):
        params = GroupParams(rng.choice([2, 3]), rng.choice([3, 4, 5]))
        phi, psi, chi = (random_gen_inner(rng, params) for _ in range(3))
        lhs = compose_gen_inner(compose_gen_inner(chi, psi), phi)
        rhs = compose_gen_inner(chi, compose_gen_inner(psi, phi))
        assert gen_inner_to_spec(lhs).images == gen_inner_to_spec(rhs).images


def test_double_commutator_of_data_maps_is_trivial():
    rng = random.Random(15)
    for _ in range(8):
        params = GroupParams(rng.choice([2, 3]), rng.choice([3, 4, 5]))
        specs = [gen_inner_to_spec(random_gen_inner(rng, params)) for _ in range(4)]
        dbl = aut_commutator(
            aut_commutator(specs[0], specs[1]), aut_commutator(specs[2], specs[3])
        )
        assert dbl.is_identity


# --- inner-ness -------------------------------------------------------------------


def test_is_inner_round_trips_modulo_center():
    rng = random.Random(16)
    for _ in range(20):
        params = GroupParams(rng.choice([2, 3]), rng.choice([2, 3, 4, 5]))
        u = random_element(rng, params)
        spec = conjugation_spec(params, u)
        u2 = is_inner(spec)
        assert u2 is not None
        assert conjugation_spec(params, u2).images == spec.images


def test_conjugation_images_are_the_pair_data_images():
    # [x, A s] = [x, A][x, s]: x -> x[x, u] is the map of the data ((u, 1),)
    rng = random.Random(19)
    for params in (P23, P35, GroupParams(4, 4)):
        for _ in range(5):
            u = mul(random_element(rng, params), random_derived_element(rng, params))
            images = gen_inner_to_spec(GenInnerData(params, ((u, 1),))).images
            assert images == conjugation_spec(params, u).images


def test_is_inner_refuses_the_iterated_bracket_map():
    a = gen_element(P23, 0)
    spec = gen_inner_to_spec(flatten(P23, [((a.exp, a.exp), (), 1)]))
    assert is_inner(spec) is None


def reference_is_inner(f):
    """The conjugator search on element-built step matrices, solved by integer_solve.

    Step w's column for the unknown v (a generator at w = 1, a weight-w
    basic above) holds, in block i, the weight-(w+1) coordinates of [a_i, v].
    """
    params = f.params
    d, k = params.rank, params.nilclass
    gens = [gen_element(params, i) for i in range(d)]
    u = identity(params)
    for w in range(1, k):
        current = conjugation_spec(params, u).images
        defects = [mul(inverse(x), y) for x, y in zip(current, f.images)]
        if all(x.is_identity for x in defects):
            break
        unknowns = gens if w == 1 else [
            derived_element(params, {seq: 1}) for seq in enumerate_basics(params, w)
        ]
        a = [
            list(row)
            for g in gens
            for row in zip(*(gamma_layer(commutator(g, v), w + 1) for v in unknowns))
        ]
        solution = integer_solve(a, [c for x in defects for c in gamma_layer(x, w + 1)])
        if solution is None:
            return None
        x, kernel = solution
        assert not kernel  # the coefficients are forced
        for v, c in zip(unknowns, x):
            if c:
                u = mul(u, power(v, c))
    assert conjugation_spec(params, u).images == f.images
    return u


@pytest.mark.parametrize(
    "d,k", [(2, 3), (2, 6), (2, 8), (3, 3), (3, 5), (4, 4), (4, 5), (5, 3), (6, 4)]
)
def test_is_inner_matches_the_element_built_search(d, k):
    # conjugations, conjugations moved by one basic (inner or not, depending
    # on the basic), and random pair-data maps (mostly not inner)
    rng = random.Random(100 * d + k)
    params = GroupParams(d, k)
    verdicts = []
    for n in range(12):
        u = mul(random_element(rng, params), random_derived_element(rng, params))
        spec = conjugation_spec(params, u)
        if n % 3 == 1:
            j, w = rng.randrange(d), rng.randrange(2, k + 1)
            move = derived_element(params, {rng.choice(enumerate_basics(params, w)): 1})
            images = list(spec.images)
            images[j] = mul(images[j], move)
            spec = AutoSpec(params, tuple(images))
        elif n % 3 == 2:
            spec = gen_inner_to_spec(random_gen_inner(rng, params))
        got = is_inner(spec)
        assert got == reference_is_inner(spec)
        verdicts.append(got is None)
    assert 0 < sum(verdicts) < len(verdicts)


def test_warm_is_inner_builds_no_matrix(monkeypatch):
    # the coefficients are read off the defects, so neither a cold nor a warm
    # search solves a linear system, and the two agree
    import metanil.intsolve as intsolve

    def solved(*args):
        raise AssertionError("the conjugator search solved a linear system")

    for name in ("smith_normal_form", "integer_solve_explain"):
        monkeypatch.setattr(intsolve, name, solved)
    rng = random.Random(18)
    specs = []
    for params in (P23, P35, GroupParams(4, 4)):
        for _ in range(3):
            specs.append(conjugation_spec(params, random_element(rng, params)))
        specs.append(gen_inner_to_spec(flatten(params, [((gen_element(params, 0).exp,) * 2, (), 1)])))
    clear_caches()
    cold = [is_inner(spec) for spec in specs]
    # three conjugations and one refusal per shape
    assert [u is None for u in cold] == [False, False, False, True] * 3
    assert [is_inner(spec) for spec in specs] == cold


def test_is_inner_reads_the_conjugator_in_one_pass(monkeypatch):
    # one read and one check: no element product and no basis enumeration
    import metanil.core as core

    def forbidden(*args):
        raise AssertionError("is_inner multiplied elements or enumerated a basis")

    rng = random.Random(21)
    cases = []
    for params in (P23, P35, GroupParams(4, 5), GroupParams(6, 4)):
        u = mul(random_element(rng, params), random_derived_element(rng, params))
        cases.append((conjugation_spec(params, u), random_ia_spec(rng, params)))
    monkeypatch.setattr(autos, "mul", forbidden)
    monkeypatch.setattr(core, "_basics_of_weight", forbidden)
    for inner, other in cases:
        u = is_inner(inner)
        assert u is not None and is_inner(other) is None
        images = [x.dmap() for x in inner.images]
        for i, dm in enumerate(images):
            _vadd(dm, commutator(gen_element(u.params, i), u).derived, -1)
        assert not any(images)


@pytest.mark.parametrize("wrong", ["exponent", "extra basic", "dropped basics"])
def test_a_wrong_read_off_is_an_engine_fault(monkeypatch, wrong):
    # whatever coordinate the read-off gets wrong, some coordinate it reads
    # from is left nonzero: an engine fault, never a "not inner"
    read_off = autos._read_off

    def patched(params, defects):
        u = read_off(params, defects)
        if wrong == "exponent":
            return mul(gen_element(params, 0), u)
        if wrong == "extra basic":
            return mul(u, derived_element(params, {(params.rank - 1, 0): 1}))
        return truncate_weight(u, 2)

    monkeypatch.setattr(autos, "_read_off", patched)
    rng = random.Random(22)
    params = GroupParams(3, 5)
    u = mul(random_element(rng, params), derived_element(params, {(2, 1, 1): 1}))
    with pytest.raises(EngineFault, match="conjugator search"):
        is_inner(conjugation_spec(params, u))


def test_is_inner_identity_and_domain():
    u = is_inner(identity_spec(P23))
    assert u is not None
    assert conjugation_spec(P23, u).is_identity
    with pytest.raises(DomainError):
        is_inner(AutoSpec(P23, (inverse(gen_element(P23, 0)), gen_element(P23, 1))))


# --- product maps -----------------------------------------------------------------


def test_apply_poly_auto_examples():
    rng = random.Random(17)
    x = random_element(rng, P35)
    assert apply_poly_auto(PolyAutoData(P35, ((identity(P35), 1),)), x) == x
    u = random_element(rng, P35)
    assert apply_poly_auto(PolyAutoData(P35, ((u, 1),)), x) == mul(
        mul(inverse(u), x), u
    )
    data = PolyAutoData(P35, ((u, 2), (x, -1)))
    assert epsilon_sum(data) == 1


def test_nonunit_exponent_sum_breaks_class2_multiplicativity():
    # on the class-2 quotient the map x -> x^eps [x, u] fails to be a
    # homomorphism on some generator pair whenever eps(eps - 1) != 0;
    # eps = 0 is multiplicative there but is never bijective
    rng = random.Random(18)
    for eps in (-1, 2, 3):
        params = GroupParams(2, 2)
        u = random_element(rng, params)
        data = PolyAutoData(params, ((u, eps),))
        found = False
        for i in range(2):
            for j in range(2):
                x, y = gen_element(params, i), gen_element(params, j)
                lhs = apply_poly_auto(data, mul(x, y))
                rhs = mul(apply_poly_auto(data, x), apply_poly_auto(data, y))
                if lhs != rhs:
                    found = True
        assert found, f"eps={eps} looked multiplicative on all generator pairs"
