"""The automorphism calculus: endomorphisms by generator images, maps of the
shape x -> x * prod [x, u_i]^lambda(i), their closed-form composition and
iterative inversion, inner-ness decisions, and the x -> prod u_i^-1 x^e_i u_i
product maps.

A map x -> x * prod [x, u_i]^lambda(i) is an endomorphism of any metabelian
group and an automorphism of any metabelian nilpotent one; composing two such
maps stays in the family, with the cross terms [x, u_i, v_j] folded back to
flat pairs via [x, y, z] = [x, y]^-1 [x, z]^-1 [x, yz].  One routine,
compose_gen_inner, composes both flat pair data and nested data
x -> x * prod [x, v_1, ..., v_s]^eta, in either argument; inversion and the
class induction of the decision both go through it.  Data equality is not
canonical for these maps, so the official equivalence everywhere is
extensional (apply-based); the stored pair list is only brought to a normal
form that the bracket cannot distinguish from the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    Basic,
    DVec,
    Element,
    _mk,
    _vadd,
    commutator,
    derived_element,
    element_from_json,
    element_to_json,
    enumerate_basics,
    gamma_layer,
    gen_element,
    identity,
    inverse,
    left_normed,
    mul,
    power,
    truncate_weight,
)
from .intsolve import InfeasibilityCertificate, integer_solve_explain
from .words import DomainError, GroupParams


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


@lru_cache(maxsize=1 << 14)
def _image_of_basic(spec: AutoSpec, seq: Basic) -> Element:
    return left_normed([spec.images[b] for b in seq])


def apply_endo(f: AutoSpec, x: Element) -> Element:
    """Homomorphic extension of the generator images, applied to x."""
    if f.params != x.params:
        raise DomainError("parameter mismatch between spec and element")
    out = identity(f.params)
    for i, e in enumerate(x.exp):
        if e:
            out = mul(out, power(f.images[i], e))
    if x.derived:
        total: DVec = {}
        for seq, c in x.derived:
            _vadd(total, _image_of_basic(f, seq).dmap(), c)
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
        images = []
        for i in range(params.rank):
            defect = mul(inverse(gen_element(params, i)), c.images[i])
            images.append(mul(gen_element(params, i), inverse(defect)))
        g = compose_endo(AutoSpec(params, tuple(images)), g)
    raise RuntimeError("defect correction failed to terminate")


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


def spec_from_json(obj: dict, params: GroupParams | None = None) -> AutoSpec:
    if "rank" in obj and "class" in obj:
        params = GroupParams(int(obj["rank"]), int(obj["class"]))
    if params is None:
        first = obj["images"][0]
        params = GroupParams(int(first["rank"]), int(first["class"]))
    images = tuple(element_from_json(img, params) for img in obj["images"])
    return AutoSpec(params, images)


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
        # Canonical storage.  [x, u] only sees u modulo the top layer, so u is
        # stripped of its weight-k components; [x, A s] = [x, A][x, s] splits
        # every u into its exponent part A and derived part s exactly, and
        # [x, s]^lam = [x, lam*s] is linear, so all derived content collapses
        # into a single trailing pair.  Exponent parts merge in
        # first-occurrence order (the product order matters for the class-2
        # conjugator).
        k = self.params.nilclass
        zero = (0,) * self.params.rank
        exp_pairs: dict[tuple[int, ...], int] = {}
        t_total: DVec = {}
        for u, lam in self.pairs:
            if u.params != self.params:
                raise DomainError("pair parameters do not match")
            if not lam:
                continue
            u = truncate_weight(u, k - 1)
            for s, c in u.derived:
                v = t_total.get(s, 0) + lam * c
                if v:
                    t_total[s] = v
                else:
                    t_total.pop(s, None)
            if u.exp != zero:
                exp_pairs[u.exp] = exp_pairs.get(u.exp, 0) + lam
        cleaned = [
            (_mk(self.params, z, {}), lam) for z, lam in exp_pairs.items() if lam
        ]
        if t_total:
            cleaned.append((_mk(self.params, zero, t_total), 1))
        object.__setattr__(self, "pairs", tuple(cleaned))

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    def negated(self) -> "GenInnerData":
        return GenInnerData(self.params, tuple((u, -lam) for u, lam in self.pairs))


@dataclass(frozen=True)
class NestedGenInnerData:
    """Terms (v_1..v_s, eta) encoding x -> x * prod [x, v_1, ..., v_s]^eta."""

    params: GroupParams
    terms: tuple[tuple[tuple[Element, ...], int], ...] = ()

    def __post_init__(self):
        for tail, _ in self.terms:
            if not tail:
                raise DomainError("nested term needs a nonempty tail")
            for v in tail:
                if v.params != self.params:
                    raise DomainError("term parameters do not match")


def apply_gen_inner(data: GenInnerData, x: Element) -> Element:
    """x * prod [x, u_i]^lambda(i); all factors commute (they live in M')."""
    if data.params != x.params:
        raise DomainError("parameter mismatch between data and element")
    total: DVec = {}
    for u, lam in data.pairs:
        _vadd(total, commutator(x, u).dmap(), lam)
    return mul(x, derived_element(data.params, total))


def gen_inner_to_spec(data: GenInnerData) -> AutoSpec:
    params = data.params
    return AutoSpec(
        params,
        tuple(apply_gen_inner(data, gen_element(params, i)) for i in range(params.rank)),
    )


def apply_nested(nested: NestedGenInnerData, x: Element) -> Element:
    total: DVec = {}
    for tail, eta in nested.terms:
        _vadd(total, left_normed([x, *tail]).dmap(), eta)
    return mul(x, derived_element(nested.params, total))


def flatten(nested: NestedGenInnerData) -> GenInnerData:
    """Flat form of a nested map, by [x,y,z] = [x,y]^-1 [x,z]^-1 [x,yz].

    A term [x, v_1, ..., v_s] has weight at least 1 + sum of the tail
    weights, so terms whose bound exceeds the class are dead and skipped;
    for the same reason each tail element only matters modulo weight k - s
    and is truncated before composites are built, which keeps the element
    pool small.  Tails recur heavily across compositions, so the per-term
    expansion is cached.
    """
    k = nested.params.nilclass
    pairs: list[tuple[Element, int]] = []
    for tail, eta in nested.terms:
        if eta:
            for u, c in _flatten_term(tuple(tail), k):
                pairs.append((u, c * eta))
    return GenInnerData(nested.params, tuple(pairs))


@lru_cache(maxsize=1 << 15)
def _flatten_term(tail: tuple[Element, ...], k: int) -> tuple[tuple[Element, int], ...]:
    s = len(tail)
    tail = tuple(truncate_weight(v, k - s) for v in tail)
    if 1 + sum(v.min_weight() for v in tail) > k:
        return ()
    if s == 1:
        return ((tail[0], 1),)
    v1, v2, *rest = tail
    rest = tuple(rest)
    out: dict[Element, int] = {}
    for sub, sign in (
        ((v1,) + rest, -1),
        ((v2,) + rest, -1),
        ((mul(v1, v2),) + rest, 1),
    ):
        for u, c in _flatten_term(sub, k):
            v = out.get(u, 0) + sign * c
            if v:
                out[u] = v
            else:
                out.pop(u, None)
    return tuple(out.items())


def _tails_and_pairs(data: GenInnerData | NestedGenInnerData):
    """Nested tails and flat pairs of either form; a pair (u, lam) is the tail (u,)."""
    if isinstance(data, NestedGenInnerData):
        return data.terms, flatten(data).pairs
    return tuple(((u,), lam) for u, lam in data.pairs), data.pairs


def compose_gen_inner(
    psi: GenInnerData | NestedGenInnerData, phi: GenInnerData | NestedGenInnerData
) -> GenInnerData:
    """Data of psi o phi (phi applied first), by the closed product formula.

    With phi = prod [x, S_i]^mu(i) and psi = prod [x, T_j]^eta(j) over tails
    S_i, T_j (a flat pair (u, lam) is the one-element tail (u,)),

    psi o phi (x) = x * prod [x,S_i]^mu(i) * prod [x,T_j]^eta(j)
                      * prod prod [x,S_i,T_j]^(mu(i)eta(j)),

    so either argument may be nested; the cross terms keep their visible
    weight, and those past the class are skipped.  phi, psi and the cross
    block are each flattened and normalised on their own, then concatenated
    in that order, which fixes the order of the output pairs.
    """
    if psi.params != phi.params:
        raise DomainError("parameter mismatch between data")
    k = psi.params.nilclass
    phi_tails, phi_pairs = _tails_and_pairs(phi)
    psi_tails, psi_pairs = _tails_and_pairs(psi)
    cross = NestedGenInnerData(
        psi.params,
        tuple(
            (s + t, mu * eta)
            for s, mu in phi_tails
            for t, eta in psi_tails
            if 1 + sum(v.min_weight() for v in s + t) <= k
        ),
    )
    return GenInnerData(psi.params, phi_pairs + psi_pairs + flatten(cross).pairs)


def _is_extensionally_identity(data: GenInnerData) -> bool:
    params = data.params
    return all(
        apply_gen_inner(data, gen_element(params, i)) == gen_element(params, i)
        for i in range(params.rank)
    )


def invert_gen_inner(phi: GenInnerData) -> GenInnerData:
    """Inverse data by repeated sign-negated composition.

    The residual psi_t o phi is kept in nested form, where the tail length
    witnesses the weight; composing with its own negation cancels the flat
    part and leaves the self-cross terms

        x -> x * prod_i prod_j [x, tail_i, tail_j]^(-eta_i eta_j),

    so the residual weight at least doubles per round and the loop clears
    the nilpotency class after about log2(k) rounds.
    """
    params = phi.params
    k = params.nilclass
    psi = GenInnerData(params)
    residual = tuple(((u,), lam) for u, lam in phi.pairs)
    for _ in range(k + 2):
        residual = tuple(
            (tail, eta)
            for tail, eta in (
                (tuple(truncate_weight(v, k - len(t)) for v in t), e)
                for t, e in residual
            )
            if eta and 1 + sum(v.min_weight() for v in tail) <= k
        )
        nested = NestedGenInnerData(params, residual)
        if not residual or _is_extensionally_identity(flatten(nested)):
            if not _is_extensionally_identity(compose_gen_inner(psi, phi)):
                raise RuntimeError("inversion audit failed")
            return psi
        negated = NestedGenInnerData(
            params, tuple((tail, -eta) for tail, eta in residual)
        )
        psi = compose_gen_inner(negated, psi)
        residual = tuple(
            (ti + tj, -ei * ej) for ti, ei in residual for tj, ej in residual
        )
    raise RuntimeError("inversion failed to terminate")


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


def gen_inner_from_json(obj: dict, params: GroupParams | None = None) -> GenInnerData:
    if "rank" in obj and "class" in obj:
        params = GroupParams(int(obj["rank"]), int(obj["class"]))
    pairs = []
    for item in obj.get("pairs", ()):
        u = element_from_json(item["u"], params)
        if params is None:
            params = u.params
        pairs.append((u, int(item["lambda"])))
    if params is None:
        raise DomainError("cannot infer group parameters from empty data")
    return GenInnerData(params, tuple(pairs))


# --- inner-ness ----------------------------------------------------------------


def _conjugation_images(params: GroupParams, u: Element) -> list[Element]:
    return [
        mul(gen_element(params, i), commutator(gen_element(params, i), u))
        for i in range(params.rank)
    ]


def _inner_conjugator_explain(
    f: AutoSpec,
) -> tuple[Element | None, tuple[int, int, InfeasibilityCertificate] | None]:
    """Layer-by-layer search for u with f = conjugation by u.

    On failure returns (None, (generator, layer, certificate)); the layer is
    the lower-central weight at which the integer system became infeasible.
    Step w solves for the weight-w part v of u: [a_i, v] must cancel the
    weight-(w+1) layer of the defect of a_i, for every generator a_i at once.
    """
    if not is_ia(f):
        raise DomainError("only IA specs can be inner here")
    params = f.params
    d, k = params.rank, params.nilclass
    gens = [gen_element(params, i) for i in range(d)]
    u = identity(params)
    for w in range(1, k):
        current = _conjugation_images(params, u)
        defects = [mul(inverse(current[i]), f.images[i]) for i in range(d)]
        if all(x.is_identity for x in defects):
            break
        layer = w + 1
        # generators at layer 1, the weight-w basics above it
        unknowns = gens if w == 1 else [
            derived_element(params, {seq: 1}) for seq in enumerate_basics(params, w)
        ]
        a: list[list[int]] = []
        b: list[int] = []
        for i in range(d):
            cols = [gamma_layer(commutator(gens[i], v), layer) for v in unknowns]
            a.extend(list(row) for row in zip(*cols))
            b.extend(gamma_layer(defects[i], layer))
        x, _, cert = integer_solve_explain(a, b)
        if x is None:
            gen_idx = next(
                (i for i in range(d) if not defects[i].is_identity), 0
            )
            return None, (gen_idx, layer, cert)
        for v, c in zip(unknowns, x):
            if c:
                u = mul(u, power(v, c))
    final = _conjugation_images(params, u)
    if any(final[i] != f.images[i] for i in range(d)):
        raise RuntimeError("conjugator search fails to reproduce the automorphism")
    return u, None


def is_inner(f: AutoSpec) -> Element | None:
    """A conjugating element realizing f, or None.

    The answer is unique only up to the center, so the returned element is
    just the first solution in canonical coordinate order.
    """
    u, _ = _inner_conjugator_explain(f)
    return u


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


def poly_to_json(data: PolyAutoData) -> dict:
    return {
        "rank": data.params.rank,
        "class": data.params.nilclass,
        "pairs": [
            {"u": element_to_json(u), "epsilon": e} for u, e in data.pairs
        ],
    }


def poly_from_json(obj: dict, params: GroupParams | None = None) -> PolyAutoData:
    if "rank" in obj and "class" in obj:
        params = GroupParams(int(obj["rank"]), int(obj["class"]))
    pairs = []
    for item in obj.get("pairs", ()):
        u = element_from_json(item["u"], params)
        if params is None:
            params = u.params
        pairs.append((u, int(item["epsilon"])))
    if params is None:
        raise DomainError("cannot infer group parameters from empty data")
    return PolyAutoData(params, tuple(pairs))
