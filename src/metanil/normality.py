"""Deciding whether an automorphism is a generalized inner one.

The decision runs by induction on the nilpotency class.  At class <= 2 the
generalized inner maps are exactly the inner ones, so a layer-by-layer
conjugator search settles it.  Above that, the automorphism is reduced one
class, decided there, lifted back, and the residual (which acts trivially
below the top layer) is matched against the span of the bracket symbols

    [x, a_i, D] = [x, a_i, D(0)*a_0, D(1)*a_1, ..., D(d-1)*a_(d-1)],

where D runs over the degree-(k-2) multiplicity functions on the generators.
Matching is one coupled integer linear system over all generators at once;
infeasibility comes back as a Smith-form certificate, and by the top-layer
independence of the rewritten symbols (checked by delta_rewrite_injective)
feasibility is equivalent to the residual being generalized inner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .autos import (
    AutoSpec,
    GenInnerData,
    NestedGenInnerData,
    PolyAutoData,
    _inner_conjugator_explain,
    apply_poly_auto,
    compose_gen_inner,
    epsilon_sum,
    gen_inner_to_spec,
    is_ia,
)
from .core import (
    Element,
    _mk,
    commutator,
    enumerate_basics,
    gamma_layer,
    gen_element,
    inverse,
    left_normed,
    left_normed_rep,
    mul,
    normalize_left_normed,
    power,
    reduce_class,
)
from .intsolve import integer_solve, integer_solve_explain
from .words import DomainError, GroupParams

Delta = tuple[int, ...]


# --- the bracket-symbol calculus ---------------------------------------------


def delta_degree(delta: Delta) -> int:
    return sum(delta)


def delta_min(delta: Delta) -> int:
    """Least index where delta is nonzero."""
    for j, v in enumerate(delta):
        if v:
            return j
    raise DomainError("the zero function has no least support index")


def delta_shift(delta: Delta, j: int, jp: int) -> Delta:
    """Move one unit of multiplicity from slot j to slot jp."""
    if j == jp:
        raise DomainError("shift needs two distinct indices")
    if not delta[j]:
        raise DomainError(f"delta({j}) is zero, nothing to shift")
    out = list(delta)
    out[j] -= 1
    out[jp] += 1
    return tuple(out)


def enumerate_deltas(nslots: int, degree: int) -> list[Delta]:
    """All multiplicity functions on nslots slots of the given degree, lex order."""
    if nslots == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in enumerate_deltas(nslots - 1, degree - first):
            out.append((first,) + rest)
    return out


def _delta_tail(delta: Delta) -> tuple[int, ...]:
    return tuple(g for g, reps in enumerate(delta) for _ in range(reps))


def eval_delta_comm(x: Element, y: Element, delta: Delta) -> Element:
    """[x, y, D]: the bracket of x, y with each generator appended D(g) times."""
    if x.params != y.params:
        raise DomainError("parameter mismatch")
    if len(delta) > x.params.rank:
        raise DomainError("delta has more slots than there are generators")
    acc = commutator(x, y)
    for g, reps in enumerate(delta):
        acc = left_normed_rep(acc, reps, gen_element(x.params, g))
    return acc


# --- top-layer generators of a normal closure ---------------------------------


def normal_closure_top_generators(
    a_idx: int,
    b_idx: int,
    t: int,
    params: GroupParams,
    subset: set[int] | None = None,
) -> list[Element]:
    """The brackets [a^t b, c_1, ..., c_{k-1}], c_i over the generator subset.

    These generate the intersection of the normal closure of a^t b with the
    top layer (restricted to the subgroup the subset generates).
    """
    if a_idx == b_idx:
        raise DomainError("need two distinct generators")
    if params.nilclass <= 1:
        raise DomainError("top-layer generators need class > 1")
    gens = sorted(subset) if subset is not None else list(range(params.rank))
    if subset is not None and not {a_idx, b_idx} <= subset:
        raise DomainError("subset must contain both chosen generators")
    base = mul(power(gen_element(params, a_idx), t), gen_element(params, b_idx))
    out = []
    for cs in product(gens, repeat=params.nilclass - 1):
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


# --- rewriting products of bracket symbols into the basis ---------------------


def _check_assignment(eps: dict, s: int, params: GroupParams) -> int:
    d, k = params.rank, params.nilclass
    if not 0 <= s < d:
        raise DomainError(f"head index {s} out of range")
    degree = k - 2
    if degree < 0:
        raise DomainError("ambient class must be at least 2")
    for (i, delta) in eps:
        if not 0 <= i < d:
            raise DomainError(f"symbol index {i} out of range")
        if len(delta) > d:
            raise DomainError("delta has more slots than generators")
        if delta_degree(delta) != degree:
            raise DomainError(
                f"delta {delta} has degree {delta_degree(delta)}, ambient class "
                f"{k} needs degree {degree}"
            )
    return degree


def delta_basis_rewrite(
    eps: dict[tuple[int, Delta], int], s: int, params: GroupParams
) -> list[int]:
    """Top-layer coordinates of prod [a_s, a_i, D]^eps(i, D), symbolically.

    Case split on the head pair and the least support index m of D: heads
    already in basic position are kept or inverted, and a head below m is
    repaired through [x, y, z] = [y, z, x]^-1 [x, z, y], which shifts one
    multiplicity of m onto the displaced index.  Entries with i = s vanish.
    """
    degree = _check_assignment(eps, s, params)
    k = params.nilclass
    basics = enumerate_basics(params, k)
    index = {seq: r for r, seq in enumerate(basics)}
    out = [0] * len(basics)

    def emit(seq: tuple[int, ...], coef: int) -> None:
        out[index[seq]] += coef

    for (i, delta), coef in eps.items():
        if not coef or i == s:
            continue
        delta = tuple(delta) + (0,) * (params.rank - len(delta))
        if degree == 0:
            emit((s, i) if i < s else (i, s), coef if i < s else -coef)
            continue
        m = delta_min(delta)
        if i <= m:
            if i < s:
                emit((s, i) + _delta_tail(delta), coef)
            else:
                emit((i, s) + _delta_tail(delta), -coef)
        elif s <= m:
            emit((i, s) + _delta_tail(delta), -coef)
        else:
            emit((i, m) + _delta_tail(delta_shift(delta, m, s)), -coef)
            emit((s, m) + _delta_tail(delta_shift(delta, m, i)), coef)
    return out


def delta_rewrite_injective(s: int, params: GroupParams) -> tuple[bool, dict]:
    """Certify that (i, D) -> top-layer vector is injective for i != s.

    Returns the verdict plus a certificate with the elementary divisors of
    the rewrite matrix; injectivity over Z is full column rank.
    """
    d, k = params.rank, params.nilclass
    if d < 2:
        raise DomainError("independence needs rank >= 2")
    deltas = enumerate_deltas(d, k - 2)
    columns = [
        delta_basis_rewrite({(i, delta): 1}, s, params)
        for i in range(d)
        if i != s
        for delta in deltas
    ]
    nrows = len(enumerate_basics(params, k))
    a = [[col[r] for col in columns] for r in range(nrows)]
    from .intsolve import smith_normal_form

    _, diag, _ = smith_normal_form(a)
    divisors = [
        diag[t][t] for t in range(min(nrows, len(columns))) if diag[t][t]
    ]
    cert = {
        "columns": len(columns),
        "rank": len(divisors),
        "elementary_divisors": divisors,
    }
    return len(divisors) == len(columns), cert


# --- the decision procedure ----------------------------------------------------


@dataclass(frozen=True)
class NotGeneralizedInner:
    """Refusal: the generator and layer whose integer system is infeasible."""

    witness_generator: int
    layer: int
    certificate: dict

    def to_json(self) -> dict:
        return {
            "witness_generator": self.witness_generator,
            "layer": self.layer,
            "certificate": self.certificate,
        }


def _abelianization_unimodular(f: AutoSpec) -> bool:
    d = f.params.rank
    mat = [[f.images[j].exp[i] for j in range(d)] for i in range(d)]
    # integer determinant by fraction-free expansion; d is small
    def det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            if m[0][j]:
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * m[0][j] * det(minor)
        return total

    return det(mat) in (1, -1)


def synthesize_gen_inner(f: AutoSpec) -> GenInnerData | NotGeneralizedInner:
    """Decide whether f is x -> x * prod [x, u_i]^lambda(i), with witness data.

    Induction on the class: decide the class-(k-1) reduction, lift the data,
    peel it off, and match the top-layer residual against the bracket-symbol
    span by one coupled integer system over all generators.  Success returns
    data extensionally equal to f; failure returns the infeasibility witness,
    which certifies that f is not a normal automorphism.
    """
    params = f.params
    d, k = params.rank, params.nilclass
    if d < 2:
        raise DomainError("the decision needs a nonabelian group: rank >= 2")
    if not _abelianization_unimodular(f):
        raise DomainError("generator images do not define an automorphism")
    if not is_ia(f):
        witness = next(
            i
            for i, img in enumerate(f.images)
            if any(e != (1 if j == i else 0) for j, e in enumerate(img.exp))
        )
        return NotGeneralizedInner(
            witness, 1, {"kind": "not-ia", "exp": list(f.images[witness].exp)}
        )
    if k == 1:
        return GenInnerData(params)
    if k == 2:
        u, info = _inner_conjugator_explain(f)
        if u is not None:
            return GenInnerData(params, ((u, 1),))
        gen_idx, layer, cert = info
        return NotGeneralizedInner(gen_idx, layer, cert.to_json())

    reduced = AutoSpec(
        GroupParams(d, k - 1), tuple(reduce_class(img, k - 1) for img in f.images)
    )
    below = synthesize_gen_inner(reduced)
    if isinstance(below, NotGeneralizedInner):
        return below
    lifted = GenInnerData(
        params, tuple((_mk(params, u.exp, dict(u.derived)), lam) for u, lam in below.pairs)
    )
    # f and the lift agree below the central top layer, which IA maps fix, so
    # the residual defect of a_j is L(a_j)^-1 f(a_j), read off directly.
    lifted_images = gen_inner_to_spec(lifted).images
    b = [
        c
        for j in range(d)
        for c in gamma_layer(mul(inverse(lifted_images[j]), f.images[j]), k)
    ]
    basics = enumerate_basics(params, k)
    index = {seq: r for r, seq in enumerate(basics)}
    nb = len(basics)
    deltas = enumerate_deltas(d, k - 2)
    cols: list[tuple[int, Delta]] = [
        (i, delta) for i in range(d) for delta in deltas
    ]
    a = [[0] * len(cols) for _ in range(d * nb)]
    for cidx, (i, delta) in enumerate(cols):
        for j in range(d):
            if j == i:
                continue
            seq = (j, i) + _delta_tail(delta)
            for s2, c2 in normalize_left_normed(seq, params).items():
                a[j * nb + index[s2]][cidx] = c2
    x, _, cert = integer_solve_explain(a, b)
    if x is None:
        witness = next((j for j in range(d) if any(b[j * nb : (j + 1) * nb])), 0)
        return NotGeneralizedInner(witness, k, cert.to_json())
    correction = NestedGenInnerData(
        params,
        tuple(
            (
                (gen_element(params, i),)
                + tuple(gen_element(params, g) for g in _delta_tail(delta)),
                coef,
            )
            for (i, delta), coef in zip(cols, x)
            if coef
        ),
    )
    result = compose_gen_inner(lifted, correction)
    check = gen_inner_to_spec(result)
    if check.images != f.images:
        raise RuntimeError("synthesized data fails to reproduce the automorphism")
    return result


def poly_to_gen_inner(data: PolyAutoData) -> GenInnerData | NotGeneralizedInner:
    """Decide a product map x -> prod u_i^-1 x^e_i u_i.

    The map is only an endomorphism for special exponent patterns, and
    testing that on the given generators is not conclusive, so the
    multiplicativity check runs on two fresh generators in a rank-(d+2)
    group: the identity there retracts onto every pair of elements here.
    """
    params = data.params
    d, k = params.rank, params.nilclass
    eps = epsilon_sum(data)
    ext = GroupParams(d + 2, k)
    ext_zero = (0,) * (d + 2)
    ext_data = PolyAutoData(
        ext,
        tuple(
            (_mk(ext, tuple(u.exp) + (0, 0), dict(u.derived)), e)
            for u, e in data.pairs
        ),
    )
    xh = gen_element(ext, d)
    yh = gen_element(ext, d + 1)
    if apply_poly_auto(ext_data, mul(xh, yh)) != mul(
        apply_poly_auto(ext_data, xh), apply_poly_auto(ext_data, yh)
    ):
        raise DomainError(
            "the product map is not an endomorphism (fresh-generator "
            "multiplicativity fails)"
        )
    if eps not in (1, -1):
        raise DomainError(f"exponent sum {eps} cannot give a bijection")
    spec = AutoSpec(
        params,
        tuple(apply_poly_auto(data, gen_element(params, i)) for i in range(d)),
    )
    return synthesize_gen_inner(spec)
