"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from itertools import product

from metanil.autos import (
    GenInnerData,
    apply_gen_inner,
    aut_commutator,
    class2_conjugator,
    compose_endo,
    compose_gen_inner,
    flatten,
    gen_inner_to_spec,
    invert_gen_inner,
    is_inner,
)
from metanil.core import (
    collect,
    collect_text,
    enumerate_basics,
    gamma_layer,
    gen_element,
    identity,
    left_normed,
    mul,
    power,
)
from metanil.magnus import kernel_selfcheck, oracle_equal
from metanil.normality import (
    NotGeneralizedInner,
    delta_basis_rewrite,
    delta_rewrite_injective,
    enumerate_deltas,
    eval_delta_comm,
    synthesize_gen_inner,
)
from metanil.verify import (
    golden_ia_triple,
    random_element,
    random_gen_inner,
    random_ia_spec,
    random_word,
)
from metanil.words import GroupParams


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


def report(criterion, ok, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {verdict} in {elapsed:.2f}s{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_golden_commutators():
    t0 = time.monotonic()
    p, f, g, h = golden_ia_triple()
    a, b, c = (gen_element(p, i) for i in range(3))
    fg = aut_commutator(f, g)
    fh = aut_commutator(f, h)
    ok = (
        fg.images[0] == collect_text("a [c^-1,b,a]", p)
        and fg.images[1] == b
        and fg.images[2] == c
        and fh.images[2] == collect_text("c [a,b^-1,c]", p)
        and fh.images[0] == a
        and fh.images[1] == b
        and compose_endo(fh, fg).images[2] == collect_text("c [a,b^-1,c]", p)
        and compose_endo(fg, fh).images[2]
        == collect_text("c [a,b^-1,c] [c,b,a,b,c]", p)
        and not aut_commutator(fg, fh).is_identity
    )
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 5.0, elapsed, "exact rank-3 class-5 values")


def test_criterion_2_oracle_agreement():
    t0 = time.monotonic()
    rng = random.Random(2024)
    pairs = 0
    mismatches = 0
    for d in (2, 3):
        for k in (2, 3, 4, 5):
            params = GroupParams(d, k)
            assert kernel_selfcheck(params).ok
            for _ in range(1000):
                w1 = random_word(rng, params, max_len=20)
                w2 = random_word(rng, params, max_len=20)
                pairs += 1
                if (collect(w1, params) == collect(w2, params)) != oracle_equal(
                    w1, w2, params
                ):
                    mismatches += 1
    elapsed = time.monotonic() - t0
    report(
        2,
        mismatches == 0 and elapsed < 30.0,
        elapsed,
        f"{pairs} pairs, {mismatches} disagreements, kernel audits pass",
    )


def test_criterion_3_composition_closed_form():
    t0 = time.monotonic()
    rng = random.Random(3)
    grid = [(d, k) for d in (2, 3) for k in (2, 3, 4, 5)]
    bad = 0
    for t in range(200):
        params = GroupParams(*grid[t % len(grid)])
        phi, psi = random_gen_inner(rng, params), random_gen_inner(rng, params)
        comp = compose_gen_inner(psi, phi)
        direct = compose_endo(gen_inner_to_spec(psi), gen_inner_to_spec(phi))
        if gen_inner_to_spec(comp).images != direct.images:
            bad += 1
    report(3, bad == 0, time.monotonic() - t0, f"200 pairs, {bad} mismatches")


def test_criterion_4_inversion():
    t0 = time.monotonic()
    rng = random.Random(4)
    grid = [(d, k) for d in (2, 3) for k in (1, 2, 3, 4, 5, 6)]
    bad = 0
    for t in range(100):
        params = GroupParams(*grid[t % len(grid)])
        phi = random_gen_inner(rng, params)
        inv = invert_gen_inner(phi)
        for side in (compose_gen_inner(inv, phi), compose_gen_inner(phi, inv)):
            for i in range(params.rank):
                x = gen_element(params, i)
                if apply_gen_inner(side, x) != x:
                    bad += 1
    report(4, bad == 0, time.monotonic() - t0, f"100 data, {bad} failures")


def test_criterion_5_flattening():
    t0 = time.monotonic()
    rng = random.Random(5)
    grid = [(d, k) for d in (2, 3) for k in (2, 3, 4, 5)]
    bad = 0
    for t in range(200):
        params = GroupParams(*grid[t % len(grid)])
        terms = random_terms(rng, params)
        flat = flatten(params, [(tuple(v.exp for v in tail), tail[0].derived, eta)
                                for tail, eta in terms])
        xs = [gen_element(params, i) for i in range(params.rank)]
        xs.append(random_element(rng, params))
        if any(apply_terms(terms, x) != apply_gen_inner(flat, x) for x in xs):
            bad += 1
    report(5, bad == 0, time.monotonic() - t0, f"200 nested maps, {bad} failures")


def test_criterion_6_synthesizer():
    t0 = time.monotonic()
    rng = random.Random(6)
    grid = [(d, k) for d in (2, 3) for k in (2, 3, 4, 5)]
    bad = 0
    for t in range(100):
        params = GroupParams(*grid[t % len(grid)])
        data = random_gen_inner(rng, params)
        spec = gen_inner_to_spec(data)
        res = synthesize_gen_inner(spec)
        if not isinstance(res, GenInnerData):
            bad += 1
        elif gen_inner_to_spec(res).images != spec.images:
            bad += 1
    _, f, _, _ = golden_ia_triple()
    refusal = synthesize_gen_inner(f)
    refused = isinstance(refusal, NotGeneralizedInner) and "row" in refusal.certificate
    elapsed = time.monotonic() - t0
    report(
        6,
        bad == 0 and refused and elapsed < 60.0,
        elapsed,
        f"100 round-trips, {bad} failures; pinned map refused with certificate",
    )


def test_criterion_7_double_commutator():
    t0 = time.monotonic()
    rng = random.Random(7)
    grid = [(d, k) for d in (2, 3) for k in (2, 3, 4, 5)]
    bad = 0
    for t in range(50):
        params = GroupParams(*grid[t % len(grid)])
        specs = [gen_inner_to_spec(random_gen_inner(rng, params)) for _ in range(4)]
        dbl = aut_commutator(
            aut_commutator(specs[0], specs[1]), aut_commutator(specs[2], specs[3])
        )
        if not dbl.is_identity:
            bad += 1
    report(7, bad == 0, time.monotonic() - t0, f"50 quadruples, {bad} failures")


def test_criterion_8_ia_nilpotency_bound():
    t0 = time.monotonic()
    rng = random.Random(8)
    bad = 0
    for k in (3, 4):
        params = GroupParams(2, k)
        pool = [random_ia_spec(rng, params) for _ in range(20)]
        for _ in range(20):
            chain = [rng.choice(pool) for _ in range(k + 1)]
            acc = chain[0]
            for s in chain[1:]:
                acc = aut_commutator(acc, s)
            if not acc.is_identity:
                bad += 1
        # sharper: the IA group has class k-1, so weight-k chains die too
        for _ in range(10):
            chain = [rng.choice(pool) for _ in range(k)]
            acc = chain[0]
            for s in chain[1:]:
                acc = aut_commutator(acc, s)
            if not acc.is_identity:
                bad += 1
    # the rank-3 class-5 witness: IA is not metabelian there
    _, f, g, h = golden_ia_triple()
    witness = not aut_commutator(aut_commutator(f, g), aut_commutator(f, h)).is_identity
    report(
        8,
        bad == 0 and witness,
        time.monotonic() - t0,
        f"{bad} nontrivial chains; non-metabelian witness holds",
    )


def test_criterion_9_rewrite_and_independence():
    t0 = time.monotonic()
    rng = random.Random(9)
    bad = 0
    for d in (2, 3):
        for k in (3, 4, 5):
            params = GroupParams(d, k)
            deltas = enumerate_deltas(d, k - 2)
            cache = {}
            for _ in range(100):
                s = rng.randrange(d)
                eps = {}
                for i in range(d):
                    for delta in deltas:
                        if rng.random() < 0.4:
                            eps[(i, delta)] = rng.randrange(-3, 4)
                vec = delta_basis_rewrite(eps, s, params)
                w = identity(params)
                for (i, delta), coef in eps.items():
                    key = (s, i, delta)
                    if key not in cache:
                        cache[key] = eval_delta_comm(
                            gen_element(params, s), gen_element(params, i), delta
                        )
                    w = mul(w, power(cache[key], coef))
                if gamma_layer(w, k) != vec:
                    bad += 1
            for s in range(d):
                ok, cert = delta_rewrite_injective(s, params)
                if not ok or cert["rank"] != cert["columns"]:
                    bad += 1
    report(
        9,
        bad == 0,
        time.monotonic() - t0,
        f"600 assignments + full-rank certificates, {bad} failures",
    )


def test_criterion_10_class_separation():
    t0 = time.monotonic()
    rng = random.Random(10)
    bad = 0
    for t in range(100):
        params = GroupParams(2 + t % 2, 2)
        data = random_gen_inner(rng, params)
        u = class2_conjugator(data)
        conj = GenInnerData(params, ((u, 1),))
        for i in range(params.rank):
            x = gen_element(params, i)
            if apply_gen_inner(data, x) != apply_gen_inner(conj, x):
                bad += 1
                break
    p23 = GroupParams(2, 3)
    a = gen_element(p23, 0)
    flat = flatten(p23, [((a.exp, a.exp), (), 1)])
    spec = gen_inner_to_spec(flat)
    separation = (not flat.is_empty) and is_inner(spec) is None
    report(
        10,
        bad == 0 and separation,
        time.monotonic() - t0,
        f"100 class-2 collapses, {bad} failures; class-3 map flattens but is not inner",
    )


def test_criterion_11_basic_counts():
    t0 = time.monotonic()
    bad = 0
    for d in (1, 2, 3):
        params = GroupParams(d, 6)
        for w in range(2, 7):
            brute = [
                seq
                for seq in product(range(d), repeat=w)
                if seq[0] > seq[1]
                and all(seq[i] <= seq[i + 1] for i in range(1, w - 1))
            ]
            got = enumerate_basics(params, w)
            if sorted(got) != sorted(brute):
                bad += 1
            if len(got) != (w - 1) * math.comb(d + w - 2, w):
                bad += 1
    report(11, bad == 0, time.monotonic() - t0, "counts match enumeration and formula")
