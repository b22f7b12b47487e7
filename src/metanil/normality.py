"""Deciding whether an automorphism is a generalized inner one.

The decision reads f one lower-central layer at a time.  For w = 2..k the
weight-w coordinates of the defects a_j^-1 f(a_j) are matched against the
span of the bracket symbols

    [x, a_i, D] = [x, a_i, D(0)*a_0, D(1)*a_1, ..., D(d-1)*a_(d-1)],

where D runs over the degree-(w-2) multiplicity functions on the generators;
at w = 2 these are the brackets [x, a_i] of an inner map.  The layers do
not interact: the symbol map x -> x [x, a_i, D] moves each generator a_j by
the one weight-w element [a_j, a_i, D], and every generalized-inner map is
an integer sum of symbol maps ([x, A s] = [x, s][x, A] for s in M', the
binomial expansion of [x, a^e], and the metabelian Jacobi identity, whose
coefficients for [a_j, c] with c in M' do not depend on j).  So each layer
is solved from f's own coordinates.  Matching is one coupled integer
linear system over all generators at once, built once per (rank, layer):
column (i, D) holds, in block s, the rewrite of [a_s, a_i, D] (Lemma 3.2),
and row (s, b) is the coordinate of the basic b in block s.

Named pivots.  Let m be the least support index of D (m = d at w = 2), T
the indices of D in ascending order, and T_x the same with one m replaced
by x.  [a_s, a_i, D] is the generator bracket (s, i) + T, rewritten by
core._bracket_rule with c1 = s, c2 = i and m = T[0].  It orders the head
as ±(max(i, s), min(i, s)) (+ when i < s) and keeps the bracket if
min(i, s) <= m; else [x, y, z] = [y, z, x]^-1 [x, z, y] with z = a_m gives
two basics headed (min, m) and (max, m).  So for s != i:

    R1  i <= m:          ±(max(i, s), min(i, s)) T   (+ when i < s)
    R2  i > m, s <= m:   -(i, s) T
    R3  i > m, s > m:    -(i, m) T_s + (s, m) T_i

(only R1 at w = 2).  Column (i, D) is pivoted on the row

    case 1, i <= m:  (j, (max(i, j), min(i, j)) T), j = d-1, or d-2 if i = d-1;
    case 2, i > m:   (m, (i, m) T),

whose entry is ±1 by R1 and by R2 with s = m.

 - A case-2 row, (m, (i, m) T), is reached by no other column.  In block
   m, R1 gives (m, i') T', headed by m < i, or for i' > m, (i', m) T' with
   m' >= i' > m, so T' != T; R2 gives (i', m) T', the row only for
   (i', D') = (i, D); R3 gives (i', m') T'' with m' < m, or (m, m') T''.
 - A case-1 row in block d-1, (d-1, i) T, is reached by R1 only from
   (i, D) itself, never by R2 (it needs d-1 <= m' < i'), and by R3 only
   through (d-1, m') T'_i', from columns with i' > m', all of case 2.
 - The case-1 row of i = d-1 is (d-2, (d-1, d-2) T) with T all d-1.  In
   block d-2, R1 reaches it only from (d-1, D) itself; R2 needs m' = d-2,
   so T' starts with d-2; R3 gives (i', m') T'' with m' < d-2, or
   (d-2, m') T''.
 - The rows are distinct.  A case-2 row lies in a block m <= d-2 and its
   tail starts with m; a case-1 row lies in block d-1, or in block d-2 with
   a tail of d-1's.  Within a case the row gives back (i, D).

So with the case-2 columns first and the case-1 columns after them, each
pivot row's other entries lie in earlier pivot columns: the pivot block is
unit lower triangular.  The columns span a direct summand, A x = b is
solvable over Z exactly when it is over Q, solve_peeled solves it by
substitution, and an infeasible layer comes back as an exact certificate
(modulus 0).  _layer_system checks all of this on every system it builds
and raises EngineFault if it fails.  Full column rank is the independence
of the rewritten symbols, so feasibility is equivalent to the defect being
generalized inner.  Lemma 3.2 reads these same systems: delta_basis_rewrite
sums block s of the top-layer columns (checked against collection by the
lemma32 suite), and delta_rewrite_injective certifies their rank again on
the Smith form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .autos import (
    AutoSpec,
    GenInnerData,
    PolyAutoData,
    _defect,
    apply_poly_auto,
    epsilon_sum,
    flatten,
    is_ia,
)
from .core import (
    Element,
    _bracket_rule,
    _mk,
    commutator,
    enumerate_basics,
    gen_element,
    left_normed_rep,
    mul,
    require_enumerable,
)
from .intsolve import smith_normal_form
from .words import DomainError, EngineFault, GroupParams

Delta = tuple[int, ...]


# --- the bracket-symbol calculus ---------------------------------------------


def delta_min(delta: Delta) -> int:
    """Least index where delta is nonzero."""
    for j, v in enumerate(delta):
        if v:
            return j
    raise DomainError("the zero function has no least support index")


def enumerate_deltas(nslots: int, degree: int) -> list[Delta]:
    """All multiplicity functions on nslots slots of the given degree, lex order."""
    if degree < 0:
        return []
    return [
        tuple(ms.count(g) for g in range(nslots))
        for ms in reversed(list(combinations_with_replacement(range(nslots), degree)))
    ]


def _delta_tail(delta: Delta) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for g, reps in enumerate(delta):
        if reps:
            out += (g,) * reps
    return out


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


# --- Lemma 3.2, read off the decision's own layer systems ----------------------


def _symbol_block(s: int, params: GroupParams) -> tuple[tuple[dict[int, int], ...], dict]:
    """Block s of the top-layer system (column c holds [a_s, a_i, D]) and c of each (i, D)."""
    d, k = params.rank, params.nilclass
    if not 0 <= s < d:
        raise DomainError(f"head index {s} out of range")
    if k < 2:
        raise DomainError("ambient class must be at least 2")
    if d < 2:
        raise DomainError("bracket symbols need rank >= 2")
    (rows, _, _), cols = _layer_system(d, k)
    nb = len(rows) // d
    return rows[s * nb : (s + 1) * nb], {col: c for c, col in enumerate(cols)}


def delta_basis_rewrite(
    eps: dict[tuple[int, Delta], int], s: int, params: GroupParams
) -> list[int]:
    """Top-layer coordinates of prod [a_s, a_i, D]^eps(i, D), symbolically.

    Each symbol is read off block s of column (i, D) of the top-layer system
    that synthesize solves (R1-R3 of the module docstring); a D shorter than
    the rank is padded with zeros.  Entries with i = s vanish.
    """
    d, k = params.rank, params.nilclass
    block, index = _symbol_block(s, params)
    x: dict[int, int] = {}
    for (i, delta), coef in eps.items():
        c = index.get((i, tuple(delta) + (0,) * (d - len(delta))))
        if c is None:
            raise DomainError(f"{(i, delta)} is not a bracket symbol (i, D), D of degree {k - 2}")
        x[c] = x.get(c, 0) + coef
    return [sum(v * x.get(c, 0) for c, v in row.items()) for row in block]


def delta_rewrite_injective(s: int, params: GroupParams) -> tuple[bool, dict]:
    """Certify that (i, D) -> top-layer vector is injective for i != s.

    Returns the verdict plus a certificate with the elementary divisors of
    block s of the top-layer system, on its columns with i != s; injectivity
    over Z is full column rank.
    """
    if params.rank < 2:
        raise DomainError("independence needs rank >= 2")
    block, index = _symbol_block(s, params)
    columns = [c for (i, _), c in index.items() if i != s]
    diag = smith_normal_form([[row.get(c, 0) for c in columns] for row in block])[1]
    divisors = [diag[i][i] for i in range(min(len(diag), len(columns))) if diag[i][i]]
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


def _pivot(i: int, delta: Delta, d: int) -> tuple[bool, int, tuple[int, ...]]:
    """Column (i, D)'s case (True for case 2) and named pivot row (generator, basic)."""
    m = delta_min(delta) if any(delta) else d
    if i > m:
        return True, m, (i, m) + _delta_tail(delta)
    j = d - 2 if i == d - 1 else d - 1
    return False, j, (max(i, j), min(i, j)) + _delta_tail(delta)


# A's rows as {column: value} dicts, the (row, column) ±1 pivots in a triangular order
# (each pivot row's other entries lie in earlier pivot columns), the other rows
PeeledSystem = tuple[tuple[dict[int, int], ...], tuple[tuple[int, int], ...], tuple[int, ...]]


@lru_cache(maxsize=64)
def _layer_system(d: int, w: int) -> tuple[PeeledSystem, tuple[tuple[int, Delta], ...]]:
    """The weight-w matching system at rank d, on its named pivots, and its (i, D) columns.

    Block j (one row per weight-w basic) of column (i, D) holds the
    coordinates of [a_j, a_i, D], the generator bracket (j, i) + T that
    core._bracket_rule rewrites (R1-R3 of the module docstring).  Each
    column is pivoted on the row the module docstring names, case-2 columns
    first.  A pivot that is not ±1 or an entry off the triangle is an engine
    fault; so is a pivot row named twice, as the earlier of its two columns
    then sees the later one.  It depends only on (d, w), so each layer is
    built once.
    """
    params = GroupParams(d, w)
    row_of = {key: r for r, key in enumerate(product(range(d), enumerate_basics(params, w)))}
    cols = tuple((i, delta) for i in range(d) for delta in enumerate_deltas(d, w - 2))
    rows: list[dict[int, int]] = [{} for _ in row_of]
    for c, (i, delta) in enumerate(cols):
        tail = _delta_tail(delta)
        for j in range(d):
            for seq, x in _bracket_rule((j, i) + tail):
                rows[row_of[j, seq]][c] = x
    named = [_pivot(i, delta, d) for i, delta in cols]
    order = sorted(range(len(cols)), key=lambda c: not named[c][0])  # case 2 first
    pivots = tuple((row_of[named[c][1:]], c) for c in order)
    fixed: set[int] = set()
    for r, c in pivots:
        if rows[r].get(c) not in (1, -1) or set(rows[r]) - fixed != {c}:
            raise EngineFault(f"layer system ({d}, {w}): column {cols[c]} has no unit pivot")
        fixed.add(c)
    free = tuple(sorted(set(range(len(rows))) - {r for r, _ in pivots}))
    return (tuple(rows), pivots, free), cols


def solve_peeled(system: PeeledSystem, b: list[int]) -> tuple[list[int] | None, dict | None]:
    """The unique solution of A x = b for a triangular PeeledSystem, or an exact certificate.

    Back-substitution along the pivot rows costs the nonzeros of A.  The
    first other row r left with a residual gives u = e_r - sum_p y_p e_(r_p),
    u A = 0: y clears u A latest pivot first, integrally as pivots are ±1,
    until it is zero.
    """
    rows, pivots, free = system
    x = [0] * len(pivots)
    for r, c in pivots:  # x[c] is still 0, so the sum runs over earlier pivots
        x[c] = (b[r] - sum(v * x[j] for j, v in rows[r].items())) * rows[r][c]
    for r in free:
        if residual := b[r] - sum(v * x[j] for j, v in rows[r].items()):
            u = [int(i == r) for i in range(len(rows))]
            live = dict(rows[r])  # the nonzero entries of u A
            for rp, c in reversed(pivots):
                if not live:
                    break
                if y := live.get(c, 0) * rows[rp][c]:
                    u[rp] = -y
                    for j, v in rows[rp].items():
                        live[j] = live.get(j, 0) - y * v
                    live = {j: v for j, v in live.items() if v}
            return None, {"row": u, "modulus": 0, "value": residual}
    return x, None


def synthesize_gen_inner(f: AutoSpec) -> GenInnerData | NotGeneralizedInner:
    """Decide whether f is x -> x * prod [x, u_i]^lambda(i), with witness data.

    Two facts let each layer be solved on its own, from f alone: the symbol
    map x -> x [x, a_i, D] moves every generator a_j by the single weight-w
    element [a_j, a_i, D], and every generalized-inner map is an integer sum
    of symbol maps.  So for w = 2..k the weight-w coordinates of the defects
    a_j^-1 f(a_j) are matched against the bracket-symbol span by one coupled
    integer system over all generators.  If every layer is solvable, all
    solved symbols are flattened at once into data; a final audit compares
    _defect(data, a_j), by [a_j m, u] = [a_j, u] + N_E m at m = 1, with f's
    defect of a_j (both maps are IA).  Else the first infeasible layer comes
    back with its certificate and, as witness, the first generator whose
    defect has a nonzero weight-w coordinate: f is not a normal automorphism.
    """
    params = f.params
    d, k = params.rank, params.nilclass
    if d < 2:
        raise DomainError("the decision needs a nonabelian group: rank >= 2")
    gens = [gen_element(params, g) for g in range(d)]
    if not is_ia(f):
        # the abelianization has determinant ±1 when every elementary divisor is 1
        diag = smith_normal_form([[img.exp[i] for img in f.images] for i in range(d)])[1]
        if any(diag[i][i] != 1 for i in range(d)):
            raise DomainError("generator images do not define an automorphism")
        witness = next(j for j in range(d) if f.images[j].exp != gens[j].exp)
        return NotGeneralizedInner(
            witness, 1, {"kind": "not-ia", "exp": list(f.images[witness].exp)}
        )
    require_enumerable(params, "synthesize")
    # the collected form of an IA image is a_j followed by its defect
    defects = [img.dmap() for img in f.images]
    terms = []
    for w in range(2, k + 1):
        basics = enumerate_basics(params, w)
        b = [dm.get(s, 0) for dm in defects for s in basics]
        system, cols = _layer_system(d, w)
        x, cert = solve_peeled(system, b)
        if x is None:
            nb = len(basics)
            witness = next((j for j in range(d) if any(b[j * nb : (j + 1) * nb])), 0)
            return NotGeneralizedInner(witness, w, cert)
        terms += [
            (tuple(gens[g].exp for g in (i, *_delta_tail(delta))), (), coef)
            for (i, delta), coef in zip(cols, x)
            if coef
        ]
    data = flatten(params, terms)
    if any(_defect(data, a) != dv for a, dv in zip(gens, defects)):
        raise EngineFault("synthesized data fails to reproduce the automorphism")
    return data


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
