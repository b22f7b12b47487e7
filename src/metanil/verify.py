"""Pinned verification suites, the random samplers they share with the tests,
and the Lemma 3.1 normal-closure helpers that only the lemma31 suite uses.

Every suite is deterministic given (seed, samples): reports are built from
fixed iteration orders, so identical configurations produce byte-identical
text output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import product

from .autos import (
    AutoSpec,
    GenInnerData,
    PolyAutoData,
    apply_gen_inner,
    aut_commutator,
    class2_conjugator,
    compose_endo,
    compose_gen_inner,
    gen_inner_to_spec,
    invert_gen_inner,
)
from .core import (
    Element,
    collect,
    collect_text,
    derived_element,
    enumerate_basics,
    gamma_layer,
    gen_element,
    identity,
    left_normed,
    mul,
    power,
)
from .intsolve import integer_solve
from .magnus import kernel_selfcheck, oracle_equal
from .normality import (
    NotGeneralizedInner,
    delta_basis_rewrite,
    delta_rewrite_injective,
    enumerate_deltas,
    eval_delta_comm,
    synthesize_gen_inner,
)
from .words import DomainError, GroupParams, Word, commutator_word


# --- samplers ------------------------------------------------------------------


def random_word(rng: random.Random, params: GroupParams, max_len=12, max_exp=2) -> Word:
    n = rng.randrange(0, max_len + 1)
    choices = [e for e in range(-max_exp, max_exp + 1) if e]
    return Word(tuple((rng.randrange(params.rank), rng.choice(choices)) for _ in range(n)))


def related_words(rng: random.Random, params: GroupParams, max_exp=2) -> tuple[Word, Word]:
    """Words u x v and u y v that share their ends, as the Magnus oracle strips them.

    u, x, v have up to 8 syllables.  y is x with a generator bracket of weight
    2..k+1 or a second-derived bracket inserted, or a fresh word.  Half the
    time u ends, and half the time v starts, on the middle's end generator.
    """
    def word(n, gen=None):
        exps = (rng.choice((1, -1)) * rng.randint(1, max_exp) for _ in range(n))
        return Word(tuple((rng.randrange(params.rank) if gen is None else gen, e) for e in exps))

    u, x, v, y = (word(rng.randrange(9)) for _ in range(4))
    kind, weight = rng.randrange(3), rng.randint(2, params.nilclass + 1)
    if kind < 2:
        t = (reduce(commutator_word, [word(1) for _ in range(weight)]) if kind == 0
             else commutator_word(*(commutator_word(word(3), word(3)) for _ in range(2))))
        cut = rng.randrange(len(x.letters) + 1)
        y = Word(x.letters[:cut]) * t * Word(x.letters[cut:])
    if x.letters:
        u = u * word(rng.randrange(2), x.letters[0][0])
        v = word(rng.randrange(2), x.letters[-1][0]) * v
    return u * x * v, u * y * v


def random_element(rng: random.Random, params: GroupParams, max_len=8) -> Element:
    return collect(random_word(rng, params, max_len), params)


def random_derived_element(rng: random.Random, params: GroupParams) -> Element:
    pool = [seq for w in range(2, params.nilclass + 1) for seq in enumerate_basics(params, w)]
    vec = {}
    for _ in range(rng.randrange(1, 4)):
        vec[rng.choice(pool)] = rng.choice([-2, -1, 1, 2])
    return derived_element(params, vec)


def random_ia_spec(rng: random.Random, params: GroupParams) -> AutoSpec:
    images = []
    for i in range(params.rank):
        img = gen_element(params, i)
        if params.nilclass >= 2 and rng.random() < 0.9:
            img = mul(img, random_derived_element(rng, params))
        images.append(img)
    return AutoSpec(params, tuple(images))


def random_gen_inner(
    rng: random.Random, params: GroupParams, max_pairs=3
) -> GenInnerData:
    pairs = tuple(
        (random_element(rng, params, max_len=5), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(0, max_pairs + 1))
    )
    return GenInnerData(params, pairs)


def poly_pairs_of_gen_inner(data: GenInnerData) -> PolyAutoData:
    """A product-map presentation of x -> x prod [x,u]^lam, exponent sum 1.

    [x, u] = x^-1 (u^-1 x u), so each bracket power expands into an
    alternating pattern of conjugated and plain x-factors.
    """
    one = identity(data.params)
    pairs: list[tuple[Element, int]] = [(one, 1)]
    for u, lam in data.pairs:
        if lam > 0:
            pairs.extend([(one, -1), (u, 1)] * lam)
        else:
            pairs.extend([(u, -1), (one, 1)] * (-lam))
    return PolyAutoData(data.params, tuple(pairs))


# --- report plumbing -------------------------------------------------------------


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(ok), detail))

    def expect_equal(self, label: str, computed, expected) -> None:
        ok = computed == expected
        detail = "" if ok else f"expected {expected}, computed {computed}"
        self.checks.append(Check(label, ok, detail))

    def lines(self) -> list[str]:
        out = [f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            line = f"  [{mark}] {c.label}"
            if c.detail:
                line += f" -- {c.detail}"
            out.append(line)
        return out

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [
                {"label": c.label, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class CliConfig:
    seed: int = 0
    samples: int | None = None

    def n(self, default: int) -> int:
        return self.samples if self.samples is not None else default


# --- pinned golden block -----------------------------------------------------------


def golden_ia_triple():
    """The three pinned IA maps on rank 3, class 5: each moves one generator
    by the bracket with the next one around the cycle a -> b -> c -> a."""
    p = GroupParams(3, 5)
    a, b, c = (gen_element(p, i) for i in range(3))
    f = AutoSpec(p, (collect_text("a [a,b]", p), b, c))
    g = AutoSpec(p, (a, collect_text("b [b,c]", p), c))
    h = AutoSpec(p, (a, b, collect_text("c [c,a]", p)))
    return p, f, g, h


def suite_section2_ia(cfg: CliConfig) -> SuiteReport:
    rep = SuiteReport("section2-ia")
    p, f, g, h = golden_ia_triple()
    a, b, c = (gen_element(p, i) for i in range(3))
    fg = aut_commutator(f, g)
    fh = aut_commutator(f, h)
    rep.expect_equal("[f,g](a) = a[c^-1,b,a]", fg.images[0], collect_text("a [c^-1,b,a]", p))
    rep.expect_equal("[f,g] fixes b and c", (fg.images[1], fg.images[2]), (b, c))
    rep.expect_equal("[f,h](c) = c[a,b^-1,c]", fh.images[2], collect_text("c [a,b^-1,c]", p))
    rep.expect_equal("[f,h] fixes a and b", (fh.images[0], fh.images[1]), (a, b))
    rep.expect_equal(
        "([f,h] o [f,g])(c) = c[a,b^-1,c]",
        compose_endo(fh, fg).images[2],
        collect_text("c [a,b^-1,c]", p),
    )
    rep.expect_equal(
        "([f,g] o [f,h])(c) = c[a,b^-1,c][c,b,a,b,c]",
        compose_endo(fg, fh).images[2],
        collect_text("c [a,b^-1,c] [c,b,a,b,c]", p),
    )
    rep.add("[[f,g],[f,h]] is not the identity", not aut_commutator(fg, fh).is_identity)
    return rep


def suite_prop14(cfg: CliConfig) -> SuiteReport:
    rep = SuiteReport("prop14")
    rng = random.Random(cfg.seed)
    n = cfg.n(50)
    grid = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]
    bad = 0
    for t in range(n):
        p = GroupParams(*grid[t % len(grid)])
        phi, psi = random_gen_inner(rng, p), random_gen_inner(rng, p)
        comp = compose_gen_inner(psi, phi)
        direct = compose_endo(gen_inner_to_spec(psi), gen_inner_to_spec(phi))
        if gen_inner_to_spec(comp).images != direct.images:
            bad += 1
    rep.add(f"closed-form composition on {n} pairs", bad == 0, f"{bad} mismatches")
    bad = 0
    inv_grid = [(2, 2), (2, 4), (2, 6), (3, 3), (3, 5), (3, 6)]
    m = cfg.n(30)
    for t in range(m):
        p = GroupParams(*inv_grid[t % len(inv_grid)])
        phi = random_gen_inner(rng, p)
        inv = invert_gen_inner(phi)
        gens = [gen_element(p, i) for i in range(p.rank)]
        left = compose_gen_inner(inv, phi)
        right = compose_gen_inner(phi, inv)
        if not all(
            apply_gen_inner(left, x) == x and apply_gen_inner(right, x) == x
            for x in gens
        ):
            bad += 1
    rep.add(f"two-sided inversion on {m} data", bad == 0, f"{bad} failures")
    return rep


def suite_thm21(cfg: CliConfig) -> SuiteReport:
    rep = SuiteReport("thm21")
    rng = random.Random(cfg.seed)
    n = cfg.n(40)
    grid = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5)]
    bad = 0
    for t in range(n):
        p = GroupParams(*grid[t % len(grid)])
        data = random_gen_inner(rng, p)
        spec = gen_inner_to_spec(data)
        res = synthesize_gen_inner(spec)
        if not isinstance(res, GenInnerData):
            bad += 1
        elif gen_inner_to_spec(res).images != spec.images:
            bad += 1
    rep.add(f"synthesis round-trip on {n} maps", bad == 0, f"{bad} failures")
    p, f, _, _ = golden_ia_triple()
    res = synthesize_gen_inner(f)
    rep.add(
        "the one-bracket map on rank 3 class 5 is refused with a certificate",
        isinstance(res, NotGeneralizedInner) and bool(res.certificate),
        "" if isinstance(res, NotGeneralizedInner) else "unexpectedly synthesized",
    )
    return rep


def suite_cor23(cfg: CliConfig) -> SuiteReport:
    rep = SuiteReport("cor23")
    rng = random.Random(cfg.seed)
    n = cfg.n(20)
    grid = [(2, 3), (2, 5), (3, 4), (3, 5)]
    bad = 0
    for t in range(n):
        p = GroupParams(*grid[t % len(grid)])
        specs = [gen_inner_to_spec(random_gen_inner(rng, p)) for _ in range(4)]
        dbl = aut_commutator(
            aut_commutator(specs[0], specs[1]), aut_commutator(specs[2], specs[3])
        )
        if not dbl.is_identity:
            bad += 1
    rep.add(
        f"double commutator of {n} generalized-inner quadruples is trivial",
        bad == 0,
        f"{bad} failures",
    )
    return rep


# --- Lemma 3.1: top-layer generators of a normal closure ---------------------------


def normal_closure_top_generators(
    a_idx: int,
    b_idx: int,
    t: int,
    params: GroupParams,
) -> list[Element]:
    """The brackets [a^t b, c_1, ..., c_{k-1}], c_i over the generators.

    These generate the intersection of the normal closure of a^t b with the
    top layer.
    """
    if a_idx == b_idx:
        raise DomainError("need two distinct generators")
    if params.nilclass <= 1:
        raise DomainError("top-layer generators need class > 1")
    base = mul(power(gen_element(params, a_idx), t), gen_element(params, b_idx))
    out = []
    for cs in product(range(params.rank), repeat=params.nilclass - 1):
        out.append(left_normed([base] + [gen_element(params, c) for c in cs]))
    return out


def closure_membership(
    w: Element, gens: list[Element]
) -> list[int] | None:
    """Coefficients expressing w over gens in top-layer coordinates, or None."""
    k = w.params.nilclass
    b = gamma_layer(w, k)
    cols = [gamma_layer(g, k) for g in gens]
    a = [[col[r] for col in cols] for r in range(len(b))]
    res = integer_solve(a, b)
    return None if res is None else res[0]


def suite_lemma31(cfg: CliConfig) -> SuiteReport:
    rep = SuiteReport("lemma31")
    rng = random.Random(cfg.seed)
    bad = 0
    cases = 0
    for d in (2, 3):
        for k in (2, 3, 4):
            p = GroupParams(d, k)
            for t in range(-2, 4):
                base = mul(power(gen_element(p, 0), t), gen_element(p, 1))
                for _ in range(4):
                    cs = [rng.randrange(d) for _ in range(k - 1)]
                    pos = rng.randrange(len(cs)) if cs else 0
                    with_base = list(cs)
                    with_base[pos] = None
                    seq = [base] + [
                        base if c is None else gen_element(p, c) for c in with_base
                    ]
                    lhs = left_normed(seq)
                    seq_a = [base] + [
                        gen_element(p, 0 if c is None else c) for c in with_base
                    ]
                    seq_b = [base] + [
                        gen_element(p, 1 if c is None else c) for c in with_base
                    ]
                    rhs = mul(power(left_normed(seq_a), t), left_normed(seq_b))
                    cases += 1
                    if lhs != rhs:
                        bad += 1
    rep.add(
        f"power-splitting identity for the closure generators ({cases} cases)",
        bad == 0,
        f"{bad} failures",
    )
    p = GroupParams(2, 3)
    gens0 = normal_closure_top_generators(0, 1, 0, p)
    rep.add(
        "[b,a,a] lies in the closure span of b",
        closure_membership(collect_text("[b,a,a]", p), gens0) is not None,
    )
    p3 = GroupParams(3, 3)
    gens_b = normal_closure_top_generators(0, 1, 0, p3)
    rep.add(
        "[c,a,a] does not lie in the closure span of b",
        closure_membership(collect_text("[c,a,a]", p3), gens_b) is None,
    )
    for d in (2, 3):
        p = GroupParams(d, 3)
        t0 = normal_closure_top_generators(0, 1, 0, p)
        plain = [
            left_normed([gen_element(p, 1)] + [gen_element(p, c) for c in cs])
            for cs in product(range(d), repeat=2)
        ]
        rep.add(
            f"t=0 specializes to the plain-generator brackets (rank {d})",
            t0 == plain,
        )
    return rep


def suite_lemma32(cfg: CliConfig) -> SuiteReport:
    rep = SuiteReport("lemma32")
    rng = random.Random(cfg.seed)
    n = cfg.n(25)
    bad = 0
    cases = 0
    for d in (2, 3):
        for k in (3, 4, 5):
            p = GroupParams(d, k)
            deltas = enumerate_deltas(d, k - 2)
            for _ in range(n):
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
                            eval_delta_comm(
                                gen_element(p, s), gen_element(p, i), delta
                            ),
                            coef,
                        ),
                    )
                cases += 1
                if gamma_layer(w, k) != vec:
                    bad += 1
    rep.add(
        f"symbolic rewrite agrees with direct collection ({cases} assignments)",
        bad == 0,
        f"{bad} mismatches",
    )
    for d in (2, 3):
        for k in (3, 4, 5):
            p = GroupParams(d, k)
            verdicts = [delta_rewrite_injective(s, p)[0] for s in range(d)]
            rep.add(
                f"rewrite matrix has full column rank (rank {d}, class {k})",
                all(verdicts),
            )
    return rep


def suite_class2(cfg: CliConfig) -> SuiteReport:
    rep = SuiteReport("class2")
    rng = random.Random(cfg.seed)
    n = cfg.n(50)
    bad = 0
    for t in range(n):
        p = GroupParams(2 + t % 2, 2)
        data = random_gen_inner(rng, p)
        u = class2_conjugator(data)
        conj = GenInnerData(p, ((u, 1),))
        for i in range(p.rank):
            x = gen_element(p, i)
            if apply_gen_inner(data, x) != apply_gen_inner(conj, x):
                bad += 1
                break
    rep.add(
        f"every sampled class-2 map is conjugation by the computed element ({n} maps)",
        bad == 0,
        f"{bad} failures",
    )
    return rep


SUITES = {
    "section2-ia": suite_section2_ia,
    "prop14": suite_prop14,
    "thm21": suite_thm21,
    "cor23": suite_cor23,
    "lemma31": suite_lemma31,
    "lemma32": suite_lemma32,
    "class2": suite_class2,
}


def verify_paper(suite: str, cfg: CliConfig) -> SuiteReport:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return SUITES[suite](cfg)


def oracle_selftest(cfg: CliConfig) -> SuiteReport:
    """Kernel audit plus randomized collector/oracle agreement."""
    rep = SuiteReport("oracle-selftest")
    rng = random.Random(cfg.seed)
    n = cfg.n(120)
    for d in (2, 3):
        for k in (2, 3, 4, 5):
            p = GroupParams(d, k)
            srep = kernel_selfcheck(p)
            rep.add(
                f"kernel self-check (rank {d}, class {k}, {srep.checks} checks)",
                srep.ok,
                "; ".join(srep.failures),
            )
            for what, draw in (
                ("pairs", lambda: (random_word(rng, p, 20), random_word(rng, p, 20))),
                ("related pairs u x v, u y v", lambda: related_words(rng, p)),
            ):
                bad = sum(
                    (collect(w1, p) == collect(w2, p)) != oracle_equal(w1, w2, p)
                    for w1, w2 in (draw() for _ in range(n))
                )
                rep.add(f"collector/oracle agreement on {n} {what} (rank {d}, class {k})",
                        bad == 0, f"{bad} disagreements")
    return rep
