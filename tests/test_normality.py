import random
from itertools import product

import pytest

from metanil import normality
from metanil.autos import (
    AutoSpec,
    GenInnerData,
    PolyAutoData,
    apply_endo,
    apply_gen_inner,
    apply_poly_auto,
    flatten,
    gen_inner_to_spec,
    is_inner,
)
from metanil.core import (
    collect_text,
    commutator,
    derived_element,
    enumerate_basics,
    gamma_layer,
    gen_element,
    identity,
    inverse,
    left_normed,
    mul,
    power,
)
from metanil.intsolve import integer_solve
from metanil.normality import (
    NotGeneralizedInner,
    _delta_tail,
    _layer_system,
    delta_basis_rewrite,
    delta_min,
    delta_rewrite_injective,
    enumerate_deltas,
    eval_delta_comm,
    poly_to_gen_inner,
    synthesize_gen_inner,
)
from metanil.verify import (
    CliConfig,
    closure_membership,
    golden_ia_triple,
    normal_closure_top_generators,
    poly_pairs_of_gen_inner,
    random_element,
    random_gen_inner,
    random_ia_spec,
    verify_paper,
)
from metanil.words import DomainError, EngineFault, GroupParams

P23 = GroupParams(2, 3)
P33 = GroupParams(3, 3)


# --- the bracket-symbol calculus ----------------------------------------------


def test_delta_helpers():
    assert delta_min((0, 2, 1)) == 1
    with pytest.raises(DomainError):
        delta_min((0, 0))


def test_enumerate_deltas():
    out = enumerate_deltas(2, 2)
    assert out == [(0, 2), (1, 1), (2, 0)]
    assert all(sum(d) == 3 for d in enumerate_deltas(3, 3))
    assert len(enumerate_deltas(3, 3)) == 10


@pytest.mark.parametrize(
    "nslots,degree,expect",
    [(0, 0, [()]), (0, 2, []), (1, -1, []), (2, -1, []), (3, -2, [])]
    + [
        # ascending lex order on the count vectors, as the layer systems order columns
        (n, k, sorted(v for v in product(range(k + 1), repeat=n) if sum(v) == k))
        for n in range(1, 7)
        for k in range(7)
    ],
)
def test_enumerate_deltas_table(nslots, degree, expect):
    assert enumerate_deltas(nslots, degree) == expect


def test_eval_delta_comm_base_cases():
    c, b = gen_element(P33, 2), gen_element(P33, 1)
    assert eval_delta_comm(c, b, (0, 0, 0)) == commutator(c, b)
    assert eval_delta_comm(c, b, (1, 0, 0)) == collect_text("[c,b,a]", P33)


def test_eval_delta_comm_tail_order_invariance():
    # appending generators to a derived element commutes, so any
    # interleaving of the multiplicities gives the same value
    rng = random.Random(1)
    p = GroupParams(3, 5)
    for _ in range(20):
        x, y = random_element(rng, p, 4), random_element(rng, p, 4)
        delta = rng.choice(enumerate_deltas(3, 3))
        expect = eval_delta_comm(x, y, delta)
        letters = [g for g, reps in enumerate(delta) for _ in range(reps)]
        rng.shuffle(letters)
        acc = commutator(x, y)
        for g in letters:
            acc = commutator(acc, gen_element(p, g))
        assert acc == expect
    with pytest.raises(DomainError):
        eval_delta_comm(gen_element(P23, 0), gen_element(P23, 1), (0, 0, 1))


# --- normal closure generators ----------------------------------------------------


def test_closure_generators_count_and_order():
    gens = normal_closure_top_generators(0, 1, 1, P23)
    assert len(gens) == 4
    base = collect_text("a b", P23)
    expect = [
        left_normed([base, gen_element(P23, c1), gen_element(P23, c2)])
        for c1, c2 in product(range(2), repeat=2)
    ]
    assert gens == expect


def test_closure_generators_t_zero_specialization():
    gens = normal_closure_top_generators(0, 1, 0, P33)
    b = gen_element(P33, 1)
    expect = [
        left_normed([b, gen_element(P33, c1), gen_element(P33, c2)])
        for c1, c2 in product(range(3), repeat=2)
    ]
    assert gens == expect


def test_closure_generator_power_splitting():
    # substituting a^t b for one tail slot splits into a t-th power times
    # the plain-b substitution, exactly, at the top layer
    rng = random.Random(2)
    for d, k in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]:
        p = GroupParams(d, k)
        for t in range(-2, 4):
            base = mul(power(gen_element(p, 0), t), gen_element(p, 1))
            for _ in range(4):
                cs = [rng.randrange(d) for _ in range(k - 2)]
                pos = rng.randrange(k - 1)
                tail = [gen_element(p, c) for c in cs]
                tail_mixed = tail[:pos] + [base] + tail[pos:]
                tail_a = tail[:pos] + [gen_element(p, 0)] + tail[pos:]
                tail_b = tail[:pos] + [gen_element(p, 1)] + tail[pos:]
                lhs = left_normed([base] + tail_mixed)
                rhs = mul(
                    power(left_normed([base] + tail_a), t),
                    left_normed([base] + tail_b),
                )
                assert lhs == rhs


def test_closure_generator_domain_checks():
    with pytest.raises(DomainError):
        normal_closure_top_generators(0, 0, 1, P23)
    with pytest.raises(DomainError):
        normal_closure_top_generators(0, 1, 1, GroupParams(2, 1))


def test_closure_membership():
    gens0 = normal_closure_top_generators(0, 1, 0, P23)
    combo = closure_membership(collect_text("[b,a,a]", P23), gens0)
    assert combo is not None
    # re-verify the certificate by building the combination
    acc = identity(P23)
    for coef, g in zip(combo, gens0):
        acc = mul(acc, power(g, coef))
    assert gamma_layer(acc, 3) == gamma_layer(collect_text("[b,a,a]", P23), 3)

    gens_b = normal_closure_top_generators(0, 1, 0, P33)
    assert closure_membership(collect_text("[c,a,a]", P33), gens_b) is None
    assert closure_membership(identity(P33), gens_b) == [0] * len(gens_b)


# --- rewriting products of bracket symbols ------------------------------------------


def test_rewrite_single_symbol_example():
    vec = delta_basis_rewrite({(1, (1, 0, 0)): 1}, 2, P33)
    basics = list(enumerate_basics(P33, 3))
    nz = {basics[r]: v for r, v in enumerate(vec) if v}
    assert nz == {(2, 0, 1): 1, (1, 0, 2): -1}


def test_rewrite_zero_assignment():
    deltas = enumerate_deltas(3, 1)
    eps = {(i, delta): 0 for i in range(3) for delta in deltas}
    assert delta_basis_rewrite(eps, 0, P33) == [0] * len(enumerate_basics(P33, 3))


def test_rewrite_ignores_head_equal_entries():
    vec = delta_basis_rewrite({(2, (1, 0, 0)): 3}, 2, P33)
    assert vec == [0] * len(enumerate_basics(P33, 3))


def test_rewrite_agrees_with_direct_collection():
    rng = random.Random(3)
    for d, k in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]:
        p = GroupParams(d, k)
        deltas = enumerate_deltas(d, k - 2)
        for _ in range(8):
            s = rng.randrange(d)
            eps = {}
            for i in range(d):
                for delta in deltas:
                    if rng.random() < 0.4:
                        eps[(i, delta)] = rng.randrange(-3, 4)
            vec = delta_basis_rewrite(eps, s, p)
            w = identity(p)
            for (i, delta), coef in eps.items():
                w = mul(
                    w,
                    power(
                        eval_delta_comm(gen_element(p, s), gen_element(p, i), delta),
                        coef,
                    ),
                )
            assert gamma_layer(w, k) == vec


def test_rewrite_degree_validation():
    with pytest.raises(DomainError):
        delta_basis_rewrite({(0, (1, 1)): 1}, 1, P23)  # degree 2, class 3 needs 1
    with pytest.raises(DomainError, match="rank >= 2"):
        delta_basis_rewrite({}, 0, GroupParams(1, 3))
    # below class 2 there is no rewrite, so no full-rank certificate either
    with pytest.raises(DomainError, match="ambient class must be at least 2"):
        delta_rewrite_injective(0, GroupParams(2, 1))


@pytest.mark.parametrize(
    "eps,s,match",
    [
        ({(1, (1, 0, 0)): 1}, 3, "head index"),
        ({(1, (1, 0, 0)): 1}, -1, "head index"),
        ({(1, (1, 1, 0)): 1}, 0, "degree"),
        ({(1, ()): 1}, 0, "degree"),
        ({(3, (1, 0, 0)): 1}, 0, "bracket symbol"),
        ({(1, (2, -1, 0)): 1}, 0, "bracket symbol"),
    ],
)
def test_public_rewrite_checks_what_the_layer_systems_skip(eps, s, match):
    # the rewrite reads only the columns (i, D) of the top-layer system; a bad
    # head, a bad symbol, a wrong degree or a negative multiplicity is refused
    with pytest.raises(DomainError, match=match):
        delta_basis_rewrite(eps, s, P33)


def test_rewrite_pads_a_short_delta_and_refuses_a_long_one():
    assert delta_basis_rewrite({(1, (1,)): 1}, 0, P33) == delta_basis_rewrite(
        {(1, (1, 0, 0)): 1}, 0, P33
    )
    with pytest.raises(DomainError, match=r"\(1, \(1, 0, 0, 0\)\) is not a .* degree 1"):
        delta_basis_rewrite({(1, (1, 0, 0, 0)): 1}, 0, P33)


def test_lemma32_suite_reads_the_decisions_layer_systems(monkeypatch):
    # one wrong entry in the systems that synthesize solves must fail the
    # suite that checks the rewrite against collection
    real = normality._layer_system

    def skewed(d, w):
        (rows, pivots, free), cols = real(d, w)
        row0 = dict(rows[0])
        row0[0] = row0.get(0, 0) + 1
        return ((row0,) + rows[1:], pivots, free), cols

    assert verify_paper("lemma32", CliConfig(0, 25)).ok
    monkeypatch.setattr(normality, "_layer_system", skewed)
    assert not verify_paper("lemma32", CliConfig(0, 25)).ok


@pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)])
def test_rewrite_injectivity_grid(d, k):
    p = GroupParams(d, k)
    verdicts = []
    for s in range(d):
        ok, cert = delta_rewrite_injective(s, p)
        verdicts.append(ok)
        assert cert["rank"] == cert["columns"]
        assert all(v != 0 for v in cert["elementary_divisors"])
    assert all(verdicts)


def literal_rule(s, i, delta, d):
    """[a_s, a_i, D] by R1-R3 of the normality docstring, as {basic: coefficient}."""
    t = tuple(g for g, reps in enumerate(delta) for _ in range(reps))
    m = t[0] if t else d

    def t_with(x):  # T with one m replaced by x
        return tuple(sorted(t[1:] + (x,)))

    if i == s:
        return {}
    if i <= m:  # R1
        return {(max(i, s), min(i, s)) + t: 1 if i < s else -1}
    if s <= m:  # R2
        return {(i, s) + t: -1}
    return {(i, m) + t_with(s): -1, (s, m) + t_with(i): 1}  # R3


@pytest.mark.parametrize(
    "d,w", [(d, w) for d in range(2, 6) for w in range(2, 7)] + [(3, 7), (2, 8)]
)
def test_layer_systems_follow_the_stated_rewrite_rules(d, w):
    # the pivot proof of the normality docstring rests on R1-R3; the columns
    # come from core's generic bracket rewrite, so every column of every
    # block must be exactly what the three rules state
    (rows, _, _), cols = _layer_system(d, w)
    keys = list(product(range(d), enumerate_basics(GroupParams(d, w), w)))
    assert len(keys) == len(rows)
    got = {}
    for (j, seq), row in zip(keys, rows):
        for c, x in row.items():
            got.setdefault((c, j), {})[seq] = x
    for c, (i, delta) in enumerate(cols):
        for j in range(d):
            assert got.get((c, j), {}) == literal_rule(j, i, delta, d), (i, delta, j)


# --- the decision procedure ----------------------------------------------------------


def test_synthesize_identity():
    res = synthesize_gen_inner(identity_spec_for(P33))
    assert isinstance(res, GenInnerData) and res.is_empty


def identity_spec_for(params):
    from metanil.autos import identity_spec

    return identity_spec(params)


def test_synthesize_round_trips():
    rng = random.Random(4)
    for d, k in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)]:
        p = GroupParams(d, k)
        for _ in range(4):
            data = random_gen_inner(rng, p)
            spec = gen_inner_to_spec(data)
            res = synthesize_gen_inner(spec)
            assert isinstance(res, GenInnerData)
            assert gen_inner_to_spec(res).images == spec.images


def test_synthesize_refuses_the_pinned_map():
    _, f, _, _ = golden_ia_triple()
    res = synthesize_gen_inner(f)
    assert isinstance(res, NotGeneralizedInner)
    assert res.layer >= 2
    cert = res.certificate
    assert "row" in cert and "modulus" in cert and "value" in cert


def test_refusal_certificate_verifies_against_the_layer_system():
    # rebuild the class-2 system for the pinned map and check the certificate
    # row kills every column while hitting the defect
    p5, f, _, _ = golden_ia_triple()
    res = synthesize_gen_inner(f)
    assert isinstance(res, NotGeneralizedInner)
    p2 = GroupParams(3, 2)
    f2 = AutoSpec(p5, f.images)
    from metanil.core import reduce_class

    reduced = AutoSpec(p2, tuple(reduce_class(img, 2) for img in f.images))
    basics = enumerate_basics(p2, 2)
    index = {seq: r for r, seq in enumerate(basics)}
    nb = len(basics)
    a = [[0] * 3 for _ in range(3 * nb)]
    b = [0] * (3 * nb)
    gens = [gen_element(p2, i) for i in range(3)]
    for i in range(3):
        defect = mul(inverse(gens[i]), reduced.images[i])
        for seq, c in defect.derived:
            b[i * nb + index[seq]] = c
        for j in range(3):
            for seq, c in commutator(gens[i], gens[j]).derived:
                a[i * nb + index[seq]][j] = c
    assert integer_solve(a, b) is None
    row = res.certificate["row"]
    mod = res.certificate["modulus"]
    ua = [sum(row[r] * a[r][j] for r in range(len(a))) for j in range(3)]
    ub = sum(row[r] * b[r] for r in range(len(b)))
    if mod == 0:
        assert all(v == 0 for v in ua) and ub != 0
    else:
        assert all(v % mod == 0 for v in ua) and ub % mod != 0


def test_synthesize_rejects_non_ia_immediately():
    bad = AutoSpec(P23, (inverse(gen_element(P23, 0)), gen_element(P23, 1)))
    res = synthesize_gen_inner(bad)
    assert isinstance(res, NotGeneralizedInner)
    assert res.layer == 1 and res.certificate["kind"] == "not-ia"


def test_synthesize_domain_errors():
    with pytest.raises(DomainError):
        synthesize_gen_inner(identity_spec_for(GroupParams(1, 3)))
    with pytest.raises(DomainError):
        synthesize_gen_inner(
            AutoSpec(P23, (collect_text("a^2", P23), gen_element(P23, 1)))
        )


def test_class_separation_example():
    a = gen_element(P23, 0)
    spec = gen_inner_to_spec(flatten(P23, [((a.exp, a.exp), (), 1)]))
    res = synthesize_gen_inner(spec)
    assert isinstance(res, GenInnerData)
    assert is_inner(spec) is None


def test_poly_single_conjugation():
    rng = random.Random(5)
    p = GroupParams(3, 4)
    u = random_element(rng, p)
    res = poly_to_gen_inner(PolyAutoData(p, ((u, 1),)))
    assert isinstance(res, GenInnerData)
    x = random_element(rng, p)
    assert apply_endo(gen_inner_to_spec(res), x) == mul(mul(inverse(u), x), u)


def test_poly_presentations_of_data_maps_are_accepted():
    rng = random.Random(6)
    for d, k in [(2, 3), (2, 4), (3, 3), (3, 4)]:
        p = GroupParams(d, k)
        for _ in range(4):
            data = random_gen_inner(rng, p)
            poly = poly_pairs_of_gen_inner(data)
            x = random_element(rng, p)
            assert apply_poly_auto(poly, x) == apply_gen_inner(data, x)
            res = poly_to_gen_inner(poly)
            assert isinstance(res, GenInnerData)
            assert gen_inner_to_spec(res).images == gen_inner_to_spec(data).images


def test_poly_rejects_nonunit_exponent_sum():
    rng = random.Random(7)
    p = GroupParams(3, 4)
    u, v = random_element(rng, p), random_element(rng, p)
    with pytest.raises(DomainError):
        poly_to_gen_inner(PolyAutoData(p, ((u, 1), (v, -1))))  # sum 0
    with pytest.raises(DomainError):
        poly_to_gen_inner(PolyAutoData(p, ((u, 1), (v, 1))))  # sum 2


def test_poly_rejects_non_endomorphism_with_unit_sum():
    # x -> x^2 v^-1 x^-1 v has exponent sum 1 but is not an endomorphism
    p = GroupParams(3, 4)
    v = gen_element(p, 2)
    with pytest.raises(DomainError, match="endomorphism"):
        poly_to_gen_inner(PolyAutoData(p, ((identity(p), 2), (v, -1))))


def test_top_layer_refusal_with_independently_verified_certificate():
    # a -> a[a,b,c] (b, c fixed) is trivial below the top layer, so the
    # decision is exactly the coupled symbol system at weight 3.  The defect
    # does lie in the top layer of the normal closure of a, so per-generator
    # membership is satisfied; the refusal comes from the coupling across
    # generators, and the certificate must kill the whole stacked system.
    p = GroupParams(3, 3)
    a, b, c = (gen_element(p, i) for i in range(3))
    defect = collect_text("[a,b,c]", p)
    f = AutoSpec(p, (mul(a, defect), b, c))
    res = synthesize_gen_inner(f)
    assert isinstance(res, NotGeneralizedInner) and res.layer == 3

    closure_a = normal_closure_top_generators(1, 0, 0, p)
    assert closure_membership(defect, closure_a) is not None

    # verify the certificate against the system rebuilt by element arithmetic
    rows = _collected_top_system(p)
    rhs = gamma_layer(defect, 3) + [0] * (2 * len(enumerate_basics(p, 3)))
    assert integer_solve(rows, rhs) is None
    u = res.certificate["row"]
    mod = res.certificate["modulus"]
    ua = [sum(u[r] * rows[r][t] for r in range(len(rows))) for t in range(len(rows[0]))]
    ub = sum(u[r] * rhs[r] for r in range(len(rhs)))
    if mod == 0:
        assert all(v == 0 for v in ua) and ub != 0
    else:
        assert all(v % mod == 0 for v in ua) and ub % mod != 0


def _collected_top_system(p):
    """The top-layer matching matrix, rebuilt through eval_delta_comm and
    gamma_layer: an independent route from the symbolic path inside
    synthesize.  Block j, column (i, D) holds [a_j, a_i, D]."""
    d, k = p.rank, p.nilclass
    gens = [gen_element(p, g) for g in range(d)]
    cols = [(i, delta) for i in range(d) for delta in enumerate_deltas(d, k - 2)]
    blocks = [
        [gamma_layer(eval_delta_comm(gens[j], gens[i], delta), k) for i, delta in cols]
        for j in range(d)
    ]
    return [list(row) for block in blocks for row in zip(*block)]


@pytest.mark.parametrize("d,k", [(3, 3), (3, 4), (3, 5), (4, 4)])
def test_dense_map_moved_at_the_top_is_refused_with_a_checkable_certificate(d, k):
    # an accepted map that moves every layer, with one image then moved by a
    # top-layer basic that avoids the image's own index: every symbol in
    # block j involves a_j, so the move leaves the span and the decision must
    # refuse at layer k.  The certificate is checked the way a third party
    # would, against the independently rebuilt system and the spec alone.
    rng = random.Random(100 * d + k)
    p = GroupParams(d, k)
    rows = _collected_top_system(p)
    basics = enumerate_basics(p, k)
    for _ in range(6):
        data = GenInnerData(
            p,
            tuple(
                (random_element(rng, p, max_len=5), rng.choice((-2, -1, 1, 2)))
                for _ in range(3)
            ),
        )
        images = list(gen_inner_to_spec(data).images)
        j = rng.randrange(d)
        seq = rng.choice([s for s in basics if j not in s])
        coef = rng.choice((-2, -1, 1, 2))
        images[j] = mul(images[j], derived_element(p, {seq: coef}))
        res = synthesize_gen_inner(AutoSpec(p, tuple(images)))
        assert isinstance(res, NotGeneralizedInner) and res.layer == k
        u, mod, value = (res.certificate[key] for key in ("row", "modulus", "value"))
        assert mod == 0 and len(u) == len(rows)
        ua = [sum(ur * row[c] for ur, row in zip(u, rows)) for c in range(len(rows[0]))]
        assert not any(ua)
        rhs = [
            dict(mul(inverse(gen_element(p, g)), img).derived).get(s, 0)
            for g, img in enumerate(images)
            for s in basics
        ]
        t = j * len(basics) + basics.index(seq)
        assert value == sum(ur * b for ur, b in zip(u, rhs)) == u[t] * coef != 0


def test_refusal_propagates_from_a_middle_layer():
    # the same map inside a class-5 group is no longer a top-layer problem;
    # the pass up the layers must refuse at layer 3 and report that layer
    p = GroupParams(3, 5)
    a, b, c = (gen_element(p, i) for i in range(3))
    f = AutoSpec(p, (mul(a, collect_text("[a,b,c]", p)), b, c))
    res = synthesize_gen_inner(f)
    assert isinstance(res, NotGeneralizedInner)
    assert res.layer == 3


def test_rank_two_ia_is_always_accepted():
    # at rank 2 the symbols [x, b, D] move only a and [x, a, D] move only
    # b, and their spans fill each top layer, so the induction never gets
    # stuck: every rank-2 IA automorphism carries witness data
    rng = random.Random(77)
    for k in (2, 3, 4, 5):
        p = GroupParams(2, k)
        for _ in range(6):
            f = random_ia_spec(rng, p)
            res = synthesize_gen_inner(f)
            assert isinstance(res, GenInnerData)
            assert gen_inner_to_spec(res).images == f.images


def test_rank_three_generic_ia_is_refused():
    # with three generators the coupled system is genuinely restrictive;
    # a generic IA spec has no reason to satisfy it
    rng = random.Random(78)
    refused = 0
    for k in (3, 4, 5):
        p = GroupParams(3, k)
        for _ in range(6):
            if isinstance(
                synthesize_gen_inner(random_ia_spec(rng, p)), NotGeneralizedInner
            ):
                refused += 1
    assert refused >= 12  # all 18 in practice; leave slack for sampler drift


def test_refusal_is_stable_under_accepted_composition():
    # the accepted maps form a group, so composing a refused map with an
    # accepted one on either side must stay refused
    rng = random.Random(79)
    p = GroupParams(3, 3)
    a, b, c = (gen_element(p, i) for i in range(3))
    bad = AutoSpec(p, (mul(a, collect_text("[a,b,c]", p)), b, c))
    from metanil.autos import compose_endo

    for _ in range(6):
        g = gen_inner_to_spec(random_gen_inner(rng, p))
        assert isinstance(
            synthesize_gen_inner(compose_endo(g, bad)), NotGeneralizedInner
        )
        assert isinstance(
            synthesize_gen_inner(compose_endo(bad, g)), NotGeneralizedInner
        )


def test_rank_two_defects_decouple():
    # with two generators the symbols [x, b, D] move only a and [x, a, D]
    # move only b, so independently chosen top-layer defects are always
    # realizable; no refusal can originate at the top layer for rank 2
    rng = random.Random(31)
    for k in (3, 4, 5):
        p = GroupParams(2, k)
        deltas = enumerate_deltas(2, k - 2)
        for _ in range(4):
            da, db = identity(p), identity(p)
            for delta in deltas:
                da = mul(
                    da,
                    power(
                        eval_delta_comm(gen_element(p, 0), gen_element(p, 1), delta),
                        rng.randrange(-2, 3),
                    ),
                )
                db = mul(
                    db,
                    power(
                        eval_delta_comm(gen_element(p, 1), gen_element(p, 0), delta),
                        rng.randrange(-2, 3),
                    ),
                )
            spec = AutoSpec(
                p, (mul(gen_element(p, 0), da), mul(gen_element(p, 1), db))
            )
            res = synthesize_gen_inner(spec)
            assert isinstance(res, GenInnerData)


def test_internal_inconsistency_raises_instead_of_refusing(monkeypatch, capsys):
    # a layer solve or a read-off that is off by one leaves a defect the
    # engine's own checks see; that is an engine fault, so it must raise
    # rather than come back as a certificate-less refusal or a plain "not
    # inner".  The conjugator search reads off through autos._read_off, the
    # decision solves through normality.
    import metanil.autos as autos
    import metanil.normality as normality
    from metanil.cli import main

    solve_peeled = normality.solve_peeled
    read_off = autos._read_off

    def off_by_one(solution):
        x, cert = solution
        if x is not None:
            x = [x[0] + 1] + list(x[1:])
        return x, cert

    def read_a0_off_by_one(params, defects):
        return mul(gen_element(params, 0), read_off(params, defects))

    monkeypatch.setattr(autos, "_read_off", read_a0_off_by_one)
    monkeypatch.setattr(
        normality, "solve_peeled", lambda f, b: off_by_one(solve_peeled(f, b))
    )
    p = GroupParams(2, 2)
    f = gen_inner_to_spec(GenInnerData(p, ((collect_text("a b", p), 1),)))
    with pytest.raises(EngineFault):
        synthesize_gen_inner(f)
    with pytest.raises(EngineFault, match="conjugator search"):
        is_inner(f)
    # at class 3 the wrong exponent leaves the weight-2 coordinate it was
    # read from nonzero; that is the same fault, not a "not inner"
    p = GroupParams(2, 3)
    f = gen_inner_to_spec(GenInnerData(p, ((collect_text("a b", p), 1),)))
    with pytest.raises(EngineFault, match="conjugator search"):
        is_inner(f)
    # only the layer-2 solve of the decision is off: the layers are solved
    # independently, so the final audit catches it, and the CLI reports
    # exit 5, not a refusal or bad input (exit 3)
    layer2 = _layer_system(2, 2)[0]

    def off_by_one_at_layer2(f, b):
        solution = solve_peeled(f, b)
        return off_by_one(solution) if f is layer2 else solution

    monkeypatch.setattr(normality, "solve_peeled", off_by_one_at_layer2)
    p = GroupParams(2, 4)
    f = gen_inner_to_spec(GenInnerData(p, ((collect_text("a b", p), 1),)))
    with pytest.raises(EngineFault, match="fails to reproduce the automorphism"):
        synthesize_gen_inner(f)
    spec = '{"pairs": [{"u": "a b", "lambda": 1}]}'
    assert main(["synthesize", "--rank", "2", "--class", "4", spec]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "internal error: synthesized data fails to reproduce the automorphism"
    )


# --- the per-layer systems -----------------------------------------------------


@pytest.mark.parametrize("d,w", [(d, w) for d in (2, 3, 4) for w in range(2, 7)])
def test_layer_system_matches_collection(d, w):
    # column (i, D), block j is [a_j, a_i, D] on the weight-w layer, collected
    # directly rather than rewritten by Lemma 3.2
    (rows, _, _), cols = _layer_system(d, w)
    p = GroupParams(d, w)
    gens = [gen_element(p, g) for g in range(d)]
    nb = len(enumerate_basics(p, w))
    assert cols == tuple((i, D) for i in range(d) for D in enumerate_deltas(d, w - 2))
    assert len(rows) == d * nb and all(0 <= c < len(cols) for row in rows for c in row)
    for c, (i, delta) in enumerate(cols):
        for j in range(d):
            block = [rows[j * nb + r].get(c, 0) for r in range(nb)]
            assert block == gamma_layer(eval_delta_comm(gens[j], gens[i], delta), w)


def test_each_layer_system_is_built_once():
    from metanil import clear_caches

    p = GroupParams(4, 5)
    specs = [
        gen_inner_to_spec(GenInnerData(p, ((collect_text(u, p), lam),)))
        for u, lam in (("b d^-1", 2), ("[a,c] b", -1))
    ]
    clear_caches()
    for f in specs:
        assert isinstance(synthesize_gen_inner(f), GenInnerData)
    info = _layer_system.cache_info()
    assert (info.misses, info.hits) == (4, 4)


def test_warm_decision_looks_up_no_matrix(monkeypatch):
    # each layer system is kept with its pivots, so a warm decision rewrites
    # no symbol again, and decides as before
    import metanil.normality as normality

    p = GroupParams(3, 5)
    accepted = gen_inner_to_spec(GenInnerData(p, ((collect_text("b c^-1", p), 2),)))
    refused = AutoSpec(p, tuple(collect_text(t, p) for t in ("a [a,b]", "b", "c")))
    cold = [synthesize_gen_inner(f) for f in (accepted, refused)]
    assert isinstance(cold[0], GenInnerData) and isinstance(cold[1], NotGeneralizedInner)

    def refuse(*args):
        raise AssertionError("a layer system was rebuilt")

    monkeypatch.setattr(normality, "_bracket_rule", refuse)
    assert [synthesize_gen_inner(f) for f in (accepted, refused)] == cold


@pytest.mark.parametrize("d", [2, 3, 4])
def test_symbol_maps_are_homogeneous(d):
    # the layers of the decision are independent because each symbol map
    # x -> x [x, a_i, D], flattened at the full class, moves every a_j by
    # exactly [a_j, a_i, D], an element of the single weight w = |D| + 2
    for k in range(2, 7):
        p = GroupParams(d, k)
        gens = [gen_element(p, g) for g in range(d)]
        for w in range(2, k + 1):
            for i, delta in _layer_system(d, w)[1]:
                tail = tuple(gens[g].exp for g in (i, *_delta_tail(delta)))
                data = flatten(p, [(tail, (), 1)])
                for a in gens:
                    move = eval_delta_comm(a, gens[i], delta)
                    assert apply_gen_inner(data, a) == mul(a, move)
                    assert not any(move.exp)
                    assert all(len(seq) == w for seq, _ in move.derived)
