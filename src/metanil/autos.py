"""The automorphism calculus: endomorphisms by generator images, maps of the
shape x -> x * prod [x, u_i]^lambda(i), their closed-form composition and
inversion, inner-ness decisions, and the x -> prod u_i^-1 x^e_i u_i
product maps.  Specs act on basics by prefix: f([p, a_t]) = N_(exp f(a_t)) f(p).

A map x -> x * prod [x, u_i]^lambda(i) is an endomorphism of any metabelian
group and an automorphism of any metabelian nilpotent one.  Write it as
1 + A with A = sum_i lambda_i e(u_i).  Composition multiplies bracket tails,
(1 + B)(1 + A) = 1 + A + B + AB, where AB holds the cross terms
[x, u_i, v_j]; flatten folds such nested terms back to flat pairs.  M' is
abelian and a module over the abelianization, so with v = a^E s (s in M')
[x, a^E s] = [x, a^E][x, s] and [m, a^E s] = [m, a^E] for m in M': a term
[x, v_1, ..., v_s] is [x, a^E_1, ..., a^E_s] times [x, N_E_s ... N_E_2 s_1],
N_E = conj_(a^E) - 1.  The pure-exponent bracket is expanded by
[x, y, z] = [x, y]^-1 [x, z]^-1 [x, yz] on exponent tuples alone, and cached
on them.  flatten builds all pair data from such (E_1..E_s, s_1, eta) terms:
the constructor's pairs as 1-tails, the cross terms of compose_gen_inner,
the finite series sum_r (-A)^r of invert_gen_inner and the solved bracket
symbols of the decision.  Maps are applied and audited on derived vectors:
each [x, u] is one by core's closed form (core._add_comm), for instance
[a_i m, u] = [a_i, u] + N_E m (m in M', u = a^E t), and _defect sums them
into x^-1 f(x) with no Element built per bracket.  Data equality is not
canonical for these maps, so the official equivalence everywhere is
extensional (equal gen_inner_to_spec images); the stored pair list is only
brought to a normal form that the bracket cannot distinguish from the input.
is_inner reads a conjugator a^E v (v in M') off the defects in one pass, for
bracketing a basic with the last generator only appends it (_read_off).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Basic,
    DVec,
    Element,
    _add_comm,
    _add_conj,
    _conj_minus_one,
    _mk,
    _smul,
    _vadd,
    commutator,
    derived_element,
    element_from_json,
    element_to_json,
    gen_element,
    identity,
    inverse,
    json_int,
    json_list,
    mul,
    payload_params,
    payload_reader,
    power,
    require_enumerable,
)
from .words import DomainError, EngineFault, GroupParams


# --- endomorphisms by generator images ---------------------------------------


@dataclass(frozen=True)
class AutoSpec:
    """Endomorphism given by its d generator images (free extension)."""

    params: GroupParams
    images: tuple[Element, ...]

    def __post_init__(self):
        if len(self.images) != self.params.rank:
            raise DomainError("need exactly one image per generator")
        for img in self.images:
            if img.params != self.params:
                raise DomainError("image parameters do not match the spec")

    @property
    def is_identity(self) -> bool:
        return all(
            img == gen_element(self.params, i) for i, img in enumerate(self.images)
        )

    def __str__(self) -> str:
        from .words import generator_name

        return ", ".join(
            f"{generator_name(i)} -> {img}" for i, img in enumerate(self.images)
        )


def identity_spec(params: GroupParams) -> AutoSpec:
    return AutoSpec(params, tuple(gen_element(params, i) for i in range(params.rank)))


def apply_endo(f: AutoSpec, x: Element) -> Element:
    """Homomorphic extension of the generator images, applied to x.  A basic
    goes to N_E of its prefix's image, E = exp f(a_tw): [m, a^E t] = N_E m in M'."""
    if f.params != x.params:
        raise DomainError("parameter mismatch between spec and element")
    out = identity(f.params)
    for i, e in enumerate(x.exp):
        if e:
            out = mul(out, power(f.images[i], e))
    if x.derived:
        k, img = f.params.nilclass, f.images
        prefixes = {seq[:w] for seq, _ in x.derived for w in range(2, len(seq) + 1)}
        images: dict[Basic, DVec] = {}  # prefix images, kept for this call only
        for seq in sorted(prefixes, key=len):
            images[seq] = (commutator(img[seq[0]], img[seq[1]]).dmap() if len(seq) == 2
                           else _conj_minus_one(images[seq[:-1]], img[seq[-1]].exp, k))
        total: DVec = {}
        for seq, c in x.derived:
            _vadd(total, images[seq].items(), c)
        out = mul(out, derived_element(f.params, total))
    return out


def compose_endo(g: AutoSpec, f: AutoSpec) -> AutoSpec:
    """Spec of g o f (f applied first)."""
    if g.params != f.params:
        raise DomainError("parameter mismatch between specs")
    return AutoSpec(g.params, tuple(apply_endo(g, img) for img in f.images))


def is_ia(f: AutoSpec) -> bool:
    """True iff f induces the identity on the abelianization."""
    for i, img in enumerate(f.images):
        if any(e != (1 if j == i else 0) for j, e in enumerate(img.exp)):
            return False
    return True


def invert_ia(f: AutoSpec) -> AutoSpec:
    """Inverse of an IA spec by unipotent defect correction.

    Composing with the map a_i -> a_i * defect_i^-1 pushes the defect one
    level down the lower central series, so at most k rounds are needed.
    """
    if not is_ia(f):
        raise DomainError("only IA specs can be inverted this way")
    params = f.params
    g = identity_spec(params)
    for _ in range(params.nilclass + 1):
        c = compose_endo(g, f)
        if c.is_identity:
            return g
        # c(a_i) = a_i s_i collected, so the correction is a_i -> a_i s_i^-1
        images = tuple(
            _mk(params, img.exp, {b: -v for b, v in img.derived}) for img in c.images
        )
        g = compose_endo(AutoSpec(params, images), g)
    raise EngineFault("defect correction failed to terminate")


def aut_commutator(f: AutoSpec, g: AutoSpec) -> AutoSpec:
    """f^-1 o g^-1 o f o g, for IA specs f and g."""
    if not (is_ia(f) and is_ia(g)):
        raise DomainError("aut commutator is defined here for IA specs only")
    return compose_endo(
        compose_endo(compose_endo(invert_ia(f), invert_ia(g)), f), g
    )


def spec_to_json(f: AutoSpec) -> dict:
    return {
        "rank": f.params.rank,
        "class": f.params.nilclass,
        "images": [element_to_json(img) for img in f.images],
    }


@payload_reader
def spec_from_json(obj: dict, params: GroupParams | None = None) -> AutoSpec:
    params, items = payload_params(obj, params), json_list(obj["images"], "images")
    if params is None:
        if not items:
            raise DomainError("cannot infer group parameters from an empty spec")
        params = element_from_json(items[0]).params
    return AutoSpec(params, tuple(element_from_json(img, params) for img in items))


# --- generalized inner data ---------------------------------------------------


@dataclass(frozen=True)
class GenInnerData:
    """Pairs (u, lambda) encoding x -> x * prod [x, u_i]^lambda(i).

    Storage is a normal form the bracket cannot see past (equal u's merged,
    zero exponents dropped, top-layer content of each u discarded, derived
    content combined); the map-level equivalence is extensional.
    """

    params: GroupParams
    pairs: tuple[tuple[Element, int], ...] = ()

    def __post_init__(self):
        # [x, A s] = [x, A][x, s] and [x, s]^lam = [x, lam*s]: each pair
        # u = A s (s in M') is the 1-tail ((A,), s, lam) of flatten
        if any(u.params != self.params for u, _ in self.pairs):
            raise DomainError("pair parameters do not match")
        terms = (((u.exp,), u.derived, lam) for u, lam in self.pairs)
        object.__setattr__(self, "pairs", flatten(self.params, terms).pairs)

    @property
    def is_empty(self) -> bool:
        return not self.pairs


def _defect(data: GenInnerData, x: Element) -> DVec:
    """x^-1 f(x) = prod [x, u_i]^lambda(i), as one derived vector.

    Each [x, u] is core's closed form, a derived vector, and M' is abelian,
    so core._add_comm adds the brackets with their lambdas and no Element
    is built per bracket.
    """
    total: DVec = {}
    for u, lam in data.pairs:
        _add_comm(total, x, u, lam)
    return total


def apply_gen_inner(data: GenInnerData, x: Element) -> Element:
    """x * prod [x, u_i]^lambda(i): x = A s goes to A (s + _defect(data, x)).

    All brackets lie in M', so the product is the sum of derived vectors
    _defect returns, added to the derived part of x with no collection step.
    """
    if data.params != x.params:
        raise DomainError("parameter mismatch between data and element")
    out = x.dmap()
    _vadd(out, _defect(data, x).items())
    return _mk(data.params, x.exp, out)


def gen_inner_to_spec(data: GenInnerData) -> AutoSpec:
    params = data.params
    return AutoSpec(
        params,
        tuple(apply_gen_inner(data, gen_element(params, i)) for i in range(params.rank)),
    )


def flatten(params: GroupParams, terms) -> GenInnerData:
    """Pair data of x -> x * prod [x, v_1, ..., v_s]^eta over (exps, s1, eta) terms.

    The one builder of pair data.  exps holds the exponents E_1..E_s of a
    tail v_i = a^E_i s_i (s_i in M'), s1 the head's s_1 as (bracket,
    coefficient) pairs, and the term splits as (module docstring)

        [x, v_1, ..., v_s] = [x, a^E_1, ..., a^E_s] * [x, N_E_s ... N_E_2 s_1]:

    _flatten_term of exps, then one derived pair, s_1 taken modulo weight
    k - s.  Stored are the summed exponents with nonzero lambda, in first-
    occurrence order (the class-2 conjugator depends on it), then the summed
    derived vector below weight k, all that [x, u] sees, as one pair.
    """
    k = params.nilclass
    exp_pairs: dict[tuple[int, ...], int] = {}
    total: DVec = {}
    for exps, s1, eta in terms:
        if not exps:
            raise DomainError("a term needs a nonempty tail")
        if not eta:
            continue
        pairs, derived = _flatten_term(params, exps)
        for z, lam in pairs:
            exp_pairs[z] = exp_pairs.get(z, 0) + lam * eta
        _vadd(total, derived, eta)
        if s1:
            head = {b: c for b, c in s1 if len(b) <= k - len(exps)}
            for e in exps[1:]:
                head = _conj_minus_one(head, e, k)
            _vadd(total, head.items(), eta)
    out = [(_mk(params, z, {}), lam) for z, lam in exp_pairs.items() if lam]
    low = {b: c for b, c in total.items() if len(b) < k}
    if low:
        out.append((derived_element(params, low), 1))
    data = object.__new__(GenInnerData)
    object.__setattr__(data, "params", params)
    object.__setattr__(data, "pairs", tuple(out))
    return data


@lru_cache(maxsize=1 << 15)
def _flatten_term(
    params: GroupParams, exps: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[tuple[Basic, int], ...]]:
    """[x, a^E_1, ..., a^E_s] as ordered (exponent, lambda) pairs and one derived vector.

    With a^E_1 a^E_2 = a^(E_1+E_2) c (c in M'), [x, y, z] = [x, y]^-1 [x, z]^-1
    [x, yz] and the split of flatten give

        F(E_1, E_2, R) = -F(E_1, R) - F(E_2, R) + F(E_1+E_2, R) + [x, N_R c],

    merged in that order; an exponent whose lambda reaches 0 is dropped.  A
    zero exponent, or more than k - 1 of them, makes the bracket trivial; a
    nonzero 1-tail is kept, at class 1 too, as the stored form of its pair.
    """
    k, s = params.nilclass, len(exps)
    if s == 1:
        return (((exps[0], 1),) if any(exps[0]) else ()), ()
    if 1 + s > k or not all(any(e) for e in exps):
        return (), ()
    e1, e2, *rest = exps
    rest = tuple(rest)
    e12, c = _smul(params, (e1, {}), (e2, {}))
    derived = {b: v for b, v in c.items() if len(b) <= k - s + 1}
    for e in rest:
        derived = _conj_minus_one(derived, e, k)
    out: dict[tuple[int, ...], int] = {}
    for sub, sign in ((e1, -1), (e2, -1), (tuple(e12), 1)):
        pairs, dv = _flatten_term(params, (sub,) + rest)
        for z, lam in pairs:
            v = out.get(z, 0) + sign * lam
            if v:
                out[z] = v
            else:
                out.pop(z, None)
        _vadd(derived, dv, sign)
    return tuple(out.items()), tuple((b, v) for b, v in derived.items() if len(b) < k)


def compose_gen_inner(psi: GenInnerData, phi: GenInnerData) -> GenInnerData:
    """Data of psi o phi (phi applied first), by the closed product formula.

    With phi = prod [x, u_i]^mu(i) and psi = prod [x, v_j]^eta(j),

    psi o phi (x) = x * prod [x,u_i]^mu(i) * prod [x,v_j]^eta(j)
                      * prod prod [x,u_i,v_j]^(mu(i)eta(j)).

    The cross terms keep their visible weight, and those past the class are
    skipped, as are those whose v_j lies in M': [x, u_i] is in M' too, and
    M' is abelian.  One flatten call takes the 1-tails of phi, of psi, then
    the cross 2-tails, and that order fixes the order of the output pairs.
    """
    if psi.params != phi.params:
        raise DomainError("parameter mismatch between data")
    terms = [((u.exp,), u.derived, lam) for u, lam in phi.pairs + psi.pairs]
    terms += [
        ((u.exp, v.exp), u.derived, mu * eta)
        for u, mu in phi.pairs for v, eta in psi.pairs if any(v.exp)
    ]
    return flatten(psi.params, terms)


def invert_gen_inner(phi: GenInnerData) -> GenInnerData:
    """Inverse data by the closed-form series (1 + A)^-1 = 1 + sum_r (-A)^r.

    Write phi = 1 + A with A = sum_i lambda_i e(u_i).  Composition multiplies
    tails (compose_gen_inner: (1 + B)(1 + A) = 1 + A + B + AB), so A^r is
    the sum of the r-tails [x, u_i1, ..., u_ir] with coefficient
    lambda_i1 ... lambda_ir.  Tail positions after the first commute
    ([m, v, w] = [m, w, v] for m in M'), so each term is one first pair and
    a multiset of the rest, weighted by its multinomial count.

    The stored pair in M' only heads a tail: past the head the bracket lies
    in the abelian M', so [x, v_1, ..., D, ...] = 1.  An exponent head a^E
    with rest multiset R is the flatten term (E,) + R.  The derived head
    D = (t, lambda) adds sum_r (-1)^r lambda L^(r-1) t with
    L = sum_j lambda_j N_(E_j) over the exponent pairs: the N_E commute on
    M', so the multinomial weights of the multisets are the powers of L.
    Each L^(r-1) t is a 1-tail with a zero exponent, after every head term.

    If phi moves every generator by an element of weight >= s + 1, then A
    maps gamma_j into gamma_(j+s), so psi o phi = 1 - (-A)^(r_max + 1) is
    the identity once r_max = (k - 1) // s; the series stops there.  The
    audit reuses the defects d_i = a_i^-1 phi(a_i) read for s: with
    psi(a_i) = a_i m_i, [a_i m, u] = [a_i, u] + N_E m gives phi(psi(a_i)) =
    a_i (m_i + d_i + sum lambda N_E m_i), one derived vector per generator.
    """
    params = phi.params
    k = params.nilclass
    gens = [gen_element(params, i) for i in range(params.rank)]
    defects = [_defect(phi, a) for a in gens]
    s = min(min(map(len, dv), default=k + 1) for dv in defects) - 1
    r_max = (k - 1) // s
    exps = [(u.exp, lam) for u, lam in phi.pairs if any(u.exp)]
    terms = []
    # rests: multisets of r - 1 pairs, lexicographic in their sorted indices
    # (loop order r, head, rest fixes first occurrences), with multinomial
    # count times lambdas, and last index j of multiplicity m
    rests = [((), 1, 0, 0)]
    for r in range(1, r_max + 1):
        terms += [((e,) + tail, (), (-1) ** r * lam * c) for e, lam in exps for tail, c, _, _ in rests]
        grown = []  # append indices >= j: the count gains r / (new multiplicity)
        for tail, c, j, m in rests:
            for i in range(j, len(exps)):
                n = m + 1 if i == j else 1
                grown.append((tail + (exps[i][0],), c * r * exps[i][1] // n, i, n))
        rests = grown
    zero = ((0,) * params.rank,)
    for u, lam in phi.pairs:
        power_t = () if any(u.exp) else u.derived  # L^(r-1) t, cut below weight k
        for r in range(1, r_max + 1):
            if not power_t:
                break
            terms.append((zero, power_t, (-1) ** r * lam))
            step: DVec = {}
            for e, mu in exps:
                _add_conj(step, power_t, e, k, mu)
            power_t = tuple((b, c) for b, c in step.items() if len(b) < k)
    psi = flatten(params, terms)
    for a, dv in zip(gens, defects):
        m = _defect(psi, a)
        _vadd(dv, m.items())
        for u, lam in phi.pairs:
            _add_conj(dv, m.items(), u.exp, k, lam)
        if dv:
            raise EngineFault("inversion audit failed: phi o psi is not the identity")
    return psi


def class2_conjugator(data: GenInnerData) -> Element:
    """The single u with x -> x[x,u] equal to the map, valid in class <= 2."""
    if data.params.nilclass > 2:
        raise DomainError("conjugator collapse only holds in class <= 2")
    u = identity(data.params)
    for ui, lam in data.pairs:
        u = mul(u, power(ui, lam))
    return u


def gen_inner_to_json(data: GenInnerData) -> dict:
    return {
        "rank": data.params.rank,
        "class": data.params.nilclass,
        "pairs": [
            {"u": element_to_json(u), "lambda": lam} for u, lam in data.pairs
        ],
    }


@payload_reader
def gen_inner_from_json(obj: dict, params: GroupParams | None = None) -> GenInnerData:
    params = payload_params(obj, params)
    pairs = []
    for item in json_list(obj.get("pairs", []), "pairs", objects=True):
        u = element_from_json(item["u"], params)
        if params is None:
            params = u.params
        pairs.append((u, json_int(item["lambda"])))
    if params is None:
        raise DomainError("cannot infer group parameters from empty data")
    return GenInnerData(params, tuple(pairs))


# --- inner-ness ----------------------------------------------------------------


def _read_off(params: GroupParams, defects: list[DVec]) -> Element:
    """The conjugator u = a^E v (v in M') with [a_i, u] = s_i, read off the s_i.

    [a_i, a^E v] = [a_i, a^E] - D_i v, D_i v = [v, a_i].  E sits at weight 2:
    [a_(d-1), a_j] = (d-1, j) for j < d-1, [a_0, a_(d-1)] = -(d-1, 0).  D_(d-1)
    appends d-1 to a basic, so v is [a_(d-1), a^E] - s_(d-1) on the keys of
    weight >= 3 ending in d-1, with that index dropped.  Each coefficient is
    forced by one read coordinate: (d-1, 0) of s_0, and each of s_(d-1) that
    starts (weight 2) or ends (weight >= 3) in d-1.
    """
    last = params.rank - 1
    exp = [defects[last].get((last, j), 0) for j in range(last)]
    exp.append(-defects[0].get((last, 0), 0))
    dv: DVec = {}
    _add_comm(dv, gen_element(params, last), _mk(params, exp, {}))
    _vadd(dv, defects[last].items(), -1)
    v = {seq[:-1]: c for seq, c in dv.items() if len(seq) > 2 and seq[-1] == last}
    return _mk(params, exp, v)


def is_inner(f: AutoSpec) -> Element | None:
    """A conjugating element realizing f, or None.

    f(a_i) = a_i s_i collected, and conjugation by u sends a_i to a_i [a_i, u],
    so f is conjugation by u exactly when every s_i - [a_i, u] vanishes.  The
    u of _read_off is forced, so it is unique modulo the center, and a residual
    means f is not inner; a read coordinate left nonzero is an engine fault.
    """
    if not is_ia(f):
        raise DomainError("only IA specs can be inner here")
    params = f.params
    require_enumerable(params, "is-inner")
    defects = [img.dmap() for img in f.images]
    u = _read_off(params, defects)
    for i, dm in enumerate(defects):
        _add_comm(dm, gen_element(params, i), u, -1)
    last = params.rank - 1  # the read coordinates, as _read_off names them
    if defects[0].get((last, 0)) or any(
        seq[-1 if len(seq) > 2 else 0] == last for seq in defects[last]
    ):
        raise EngineFault("conjugator search leaves a read coordinate nonzero")
    return None if any(defects) else u


# --- product maps x -> prod u_i^-1 x^e_i u_i ----------------------------------


@dataclass(frozen=True)
class PolyAutoData:
    """Pairs (u, epsilon) encoding x -> (u_1^-1 x^e1 u_1) ... (u_m^-1 x^em u_m)."""

    params: GroupParams
    pairs: tuple[tuple[Element, int], ...] = ()

    def __post_init__(self):
        for u, _ in self.pairs:
            if u.params != self.params:
                raise DomainError("pair parameters do not match")


def apply_poly_auto(data: PolyAutoData, x: Element) -> Element:
    out = identity(data.params)
    for u, eps in data.pairs:
        out = mul(out, mul(mul(inverse(u), power(x, eps)), u))
    return out


def epsilon_sum(data: PolyAutoData) -> int:
    return sum(eps for _, eps in data.pairs)
