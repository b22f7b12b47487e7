import random
from itertools import product

import pytest

from metanil.autos import (
    AutoSpec,
    GenInnerData,
    NestedGenInnerData,
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
    closure_membership,
    delta_basis_rewrite,
    delta_degree,
    delta_min,
    delta_rewrite_injective,
    delta_shift,
    enumerate_deltas,
    eval_delta_comm,
    normal_closure_top_generators,
    poly_to_gen_inner,
    synthesize_gen_inner,
)
from metanil.verify import (
    golden_ia_triple,
    poly_pairs_of_gen_inner,
    random_element,
    random_gen_inner,
    random_ia_spec,
)
from metanil.words import DomainError, GroupParams

P23 = GroupParams(2, 3)
P33 = GroupParams(3, 3)


# --- the bracket-symbol calculus ----------------------------------------------


def test_delta_helpers():
    assert delta_min((0, 2, 1)) == 1
    assert delta_shift((0, 2, 1), 1, 0) == (1, 1, 1)
    assert delta_degree(delta_shift((0, 2, 1), 1, 0)) == 3
    with pytest.raises(DomainError):
        delta_min((0, 0))
    with pytest.raises(DomainError):
        delta_shift((0, 2), 0, 1)
    with pytest.raises(DomainError):
        delta_shift((0, 2), 1, 1)


def test_enumerate_deltas():
    out = enumerate_deltas(2, 2)
    assert out == [(0, 2), (1, 1), (2, 0)]
    assert all(sum(d) == 3 for d in enumerate_deltas(3, 3))
    assert len(enumerate_deltas(3, 3)) == 10


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
    with pytest.raises(DomainError):
        normal_closure_top_generators(0, 1, 1, P33, subset={0, 2})


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
    nested = NestedGenInnerData(P23, (((a, a), 1),))
    spec = gen_inner_to_spec(flatten(nested))
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

    # rebuild the system through element arithmetic (eval_delta_comm +
    # gamma_layer), an independent route from the symbolic path inside
    # synthesize, and verify the certificate against it
    basics = enumerate_basics(p, 3)
    deltas = enumerate_deltas(3, 1)
    cols = [(i, delta) for i in range(3) for delta in deltas]
    rows = []
    rhs = []
    gens = [a, b, c]
    defects = [defect, identity(p), identity(p)]
    for j in range(3):
        layer = gamma_layer(defects[j], 3)
        for r in range(len(basics)):
            rhs.append(layer[r])
            row = []
            for (i, delta) in cols:
                if i == j:
                    row.append(0)
                else:
                    vec = gamma_layer(eval_delta_comm(gens[j], gens[i], delta), 3)
                    row.append(vec[r])
            rows.append(row)
    assert integer_solve(rows, rhs) is None
    u = res.certificate["row"]
    mod = res.certificate["modulus"]
    ua = [sum(u[r] * rows[r][t] for r in range(len(rows))) for t in range(len(cols))]
    ub = sum(u[r] * rhs[r] for r in range(len(rhs)))
    if mod == 0:
        assert all(v == 0 for v in ua) and ub != 0
    else:
        assert all(v % mod == 0 for v in ua) and ub % mod != 0


def test_refusal_propagates_from_a_middle_layer():
    # the same map inside a class-5 group is no longer a top-layer problem;
    # the recursion must refuse at the class-3 stage and report that layer
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


def test_internal_inconsistency_raises_instead_of_refusing(monkeypatch):
    # a layer solve that is off by one leaves a defect the final check sees;
    # that is an engine fault, so it must raise rather than come back as a
    # certificate-less refusal or a plain "not inner"
    import metanil.autos as autos

    solve = autos.integer_solve_explain

    def off_by_one(a, b):
        x, kernel, cert = solve(a, b)
        if x is not None:
            x = [x[0] + 1] + list(x[1:])
        return x, kernel, cert

    monkeypatch.setattr(autos, "integer_solve_explain", off_by_one)
    p = GroupParams(2, 2)
    f = gen_inner_to_spec(GenInnerData(p, ((collect_text("a b", p), 1),)))
    with pytest.raises(RuntimeError):
        synthesize_gen_inner(f)
    with pytest.raises(RuntimeError):
        is_inner(f)
