"""Canonical forms and exact group arithmetic in free metabelian nilpotent groups.

Fix the rank-d free group on a0 < a1 < ... < a(d-1) and kill both the second
derived subgroup and all commutators of weight > k.  In the quotient every
element has a unique collected form

    a0^e0 a1^e1 ... a(d-1)^e(d-1) * c1^m1 c2^m2 ...

where the ci run over the *basic commutators*: left-normed brackets
[b1, b2, ..., bw] of generators with b1 > b2 <= b3 <= ... <= bw and
2 <= w <= k.  The derived subgroup is free abelian on these, so we store it
as a sparse integer vector.  Conjugation by a generator a_j acts on that
vector as the unipotent map 1 + D_j, where D_j appends j to a bracket and
re-expresses the result in the basis; D_j raises weight, hence is nilpotent,
and all the product formulas below reduce to finite binomial series in the
D_j.  Conjugation by a^E = a0^E0 ... a(d-1)^E(d-1) is prod_j (1 + D_j)^E_j,
and every product, power and commutator applies N_E = conj_(a^E) - 1
through one cache of per-bracket images (_act_basis).  Everything is exact
integer arithmetic; the only "truncation" is the defining relation
weight > k = trivial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations_with_replacement

from .words import DomainError, GroupParams, PayloadError, Word, WordOps, evaluate, generator_name

Basic = tuple[int, ...]
DVec = dict[Basic, int]


def binom(n: int, r: int) -> int:
    """Binomial coefficient, extended to negative upper argument."""
    if r < 0:
        return 0
    if n >= 0:
        return math.comb(n, r)
    return (-1) ** r * math.comb(-n + r - 1, r)


# --- the basic-commutator vocabulary ----------------------------------------


def is_basic(seq: Basic) -> bool:
    """Shape test: b1 > b2 <= b3 <= ... <= bw with w >= 2."""
    if len(seq) < 2 or seq[0] <= seq[1]:
        return False
    return all(seq[i] <= seq[i + 1] for i in range(1, len(seq) - 1))


@lru_cache(maxsize=None)
def _basics_of_weight(d: int, w: int) -> tuple[Basic, ...]:
    out = []
    for b1 in range(d):
        for b2 in range(b1):
            for tail in combinations_with_replacement(range(b2, d), w - 2):
                out.append((b1, b2) + tail)
    return tuple(out)


def enumerate_basics(params: GroupParams, w: int) -> tuple[Basic, ...]:
    """All basic commutators of weight w, in canonical (lexicographic) order."""
    if not 2 <= w <= params.nilclass:
        raise DomainError(f"weight {w} out of range 2..{params.nilclass}")
    return _basics_of_weight(params.rank, w)


@lru_cache(maxsize=None)
def _all_basics(d: int, k: int) -> tuple[Basic, ...]:
    out = []
    for w in range(2, k + 1):
        out.extend(_basics_of_weight(d, w))
    return tuple(out)


def all_basics(params: GroupParams) -> tuple[Basic, ...]:
    """Every basic commutator of weight 2..k, weight ascending then lexicographic."""
    return _all_basics(params.rank, params.nilclass)


# The largest basis (weights 2..k) that synthesize enumerates and is-inner
# accepts: about 1.5x the 13 014 basics of (9,6), cold synthesize under 1 s.
MAX_BASICS = 20_000


def basis_size(params: GroupParams) -> int:
    """len(all_basics(params)) in closed form, enumerating nothing.

    A weight-w basic is b1 > b2 followed by a multiset of w - 2 indices
    >= b2, so for each b2 there are d-1-b2 choices of b1 and
    C(d-b2+w-3, w-2) tails.
    """
    d = params.rank
    return sum(
        (d - 1 - b2) * math.comb(d - b2 + w - 3, w - 2)
        for w in range(2, params.nilclass + 1)
        for b2 in range(d)
    )


def require_enumerable(params: GroupParams, verb: str) -> None:
    """Refuse, before any work, a shape whose basis exceeds MAX_BASICS."""
    n = basis_size(params)
    if n > MAX_BASICS:
        raise DomainError(
            f"{verb} at rank {params.rank}, class {params.nilclass}: the basis has "
            f"{n} basic commutators, over the limit of {MAX_BASICS}"
        )


# --- rewriting a left-normed generator bracket into the basis ---------------
#
# Entries of a left-normed bracket at positions >= 3 commute with each other
# (the prefix lies in the derived subgroup, where [t, x, y] = [t, y, x]), so
# the tail may be sorted freely.  If the smallest tail entry still beats the
# second entry the bracket is already basic; otherwise one application of
#   [x, y, z] = [y, z, x]^-1 [x, z, y]      (z the smallest entry)
# lands on two basic brackets.  _normalize_raw is the collector's cache of
# the rule; a caller that meets each bracket once and keeps its own result,
# like normality's layer systems, calls _bracket_rule without filling it.


def _bracket_rule(seq: Basic) -> tuple[tuple[Basic, int], ...]:
    c1, c2 = seq[0], seq[1]
    if c1 == c2:
        return ()
    sign = 1
    if c1 < c2:
        c1, c2, sign = c2, c1, -1
    tail = sorted(seq[2:])
    if not tail or c2 <= tail[0]:
        return (((c1, c2) + tuple(tail), sign),)
    z, rest = tail[0], tail[1:]
    first = (c2, z) + tuple(sorted([c1] + rest))
    second = (c1, z) + tuple(sorted([c2] + rest))
    return ((first, -sign), (second, sign))


_normalize_raw = lru_cache(maxsize=1 << 16)(_bracket_rule)


def normalize_left_normed(seq, params: GroupParams) -> DVec:
    """Expansion of the left-normed bracket of generators [seq] in the basis.

    Total: sequences of weight > k map to the empty vector.
    """
    seq = tuple(seq)
    if len(seq) < 2:
        raise DomainError("left-normed bracket needs at least two entries")
    for g in seq:
        if not 0 <= g < params.rank:
            raise DomainError(f"generator index {g} out of range")
    if len(seq) > params.nilclass:
        return {}
    return {s: c for s, c in _normalize_raw(seq)}


# --- action of the generators on the derived subgroup -----------------------


def _vadd(acc: DVec, pairs, scale: int = 1) -> None:
    """acc += scale v, v given as (bracket, coefficient) pairs."""
    if not scale:
        return
    for s, c in pairs:
        v = acc.get(s, 0) + scale * c
        if v:
            acc[s] = v
        else:
            acc.pop(s, None)


def _apply_d(vec: DVec, j: int, k: int) -> DVec:
    """D_j: weight-graded map sending a bracket c to [c, a_j] in the basis."""
    out: DVec = {}
    for seq, c in vec.items():
        if len(seq) >= k:
            continue
        for s2, sgn in _normalize_raw(seq + (j,)):
            v = out.get(s2, 0) + sgn * c
            if v:
                out[s2] = v
            else:
                out.pop(s2, None)
    return out


@lru_cache(maxsize=1 << 17)
def _act_basis(seq: Basic, e: tuple[int, ...], k: int) -> tuple[tuple[Basic, int], ...]:
    """N_E seq = (conj_(a^E) - 1) seq for one basis bracket of weight < k, E != 0.

    The D_j commute on M', so conj_(a^E) = prod_j (1 + D_j)^E_j.  One block,
    E = c e_j, is the series sum_{r>=1} binom(c, r) D_j^r; a longer E moves
    the bracket through its blocks in turn, each block's images drawn from
    this same cache.  N_E raises weight, so seq keeps coefficient 1.  For
    c > 0 the series stops at r = c, since binom(c, r) = 0 past it.
    """
    out: DVec = {seq: 1}
    moving = [(j, c) for j, c in enumerate(e) if c]
    if len(moving) == 1:
        (j, c), = moving
        cur, r = {seq: 1}, 1
        while (c < 0 or r <= c) and (cur := _apply_d(cur, j, k)):
            _vadd(out, cur.items(), binom(c, r))
            r += 1
    else:
        for j, c in moving:
            _add_conj(out, list(out.items()), (0,) * j + (c,) + (0,) * (len(e) - j - 1), k)
    del out[seq]
    return tuple(out.items())


def _add_conj(acc: DVec, pairs, e: tuple[int, ...], k: int, scale: int = 1) -> None:
    """acc += scale N_E v, v given as (bracket, coefficient) pairs; N_E is 0 on weight k."""
    if not any(e):
        return
    for seq, coef in pairs:
        if len(seq) < k:
            coef *= scale
            for s2, c2 in _act_basis(seq, e, k):
                v = acc.get(s2, 0) + coef * c2
                if v:
                    acc[s2] = v
                else:
                    acc.pop(s2, None)


def _hockey(vec: DVec, n: int, step) -> DVec:
    """sum_{r>=0} binom(n, r+1) N^r vec = sum_{i<n} (1+N)^i vec, N = step nilpotent.

    For n >= 0 the series stops at r = n - 1, since binom(n, r+1) = 0 past it.
    """
    out: DVec = {}
    r = 0
    while vec and (n < 0 or r < n):
        r += 1
        _vadd(out, vec.items(), binom(n, r))
        vec = step(vec)
    return out


def _conj_minus_one(vec: DVec, e, k: int) -> DVec:
    """N_E vec = (conj_(a^E) - 1) vec, in one pass over the brackets' cached images."""
    out: DVec = {}
    _add_conj(out, vec.items(), tuple(e), k)
    return out


@lru_cache(maxsize=1 << 15)
def _gen_comm_cached(
    m: int, em: int, j: int, ej: int, k: int
) -> tuple[tuple[Basic, int], ...]:
    """[a_m^em, a_j^ej], m != j, as derived-vector pairs for any integer exponents."""
    if k < 2:
        return ()
    base: DVec = {(m, j): 1} if m > j else {(j, m): -1}
    inner = _hockey(base, ej, lambda v: _apply_d(v, j, k))
    return tuple(_hockey(inner, em, lambda v: _apply_d(v, m, k)).items())


# --- elements ----------------------------------------------------------------


@dataclass(frozen=True)
class Element:
    """Collected canonical form: generator exponents plus a derived vector.

    `derived` is stored as a tuple of (bracket, coefficient) pairs sorted by
    weight then lexicographically, with no zero coefficients, so equality and
    hashing are plain componentwise comparisons.
    """

    params: GroupParams
    exp: tuple[int, ...]
    derived: tuple[tuple[Basic, int], ...] = ()

    def __post_init__(self):
        if len(self.exp) != self.params.rank:
            raise DomainError("exponent vector length does not match rank")
        prev = None
        for seq, c in self.derived:
            if not is_basic(seq) or min(seq) < 0 or max(seq) >= self.params.rank:
                raise DomainError(f"{seq} is not a basic commutator here")
            if len(seq) > self.params.nilclass:
                raise DomainError(
                    f"bracket {seq} exceeds the nilpotency class {self.params.nilclass}"
                )
            if c == 0:
                raise DomainError("derived vector stores a zero coefficient")
            key = (len(seq), seq)
            if prev is not None and key <= prev:
                raise DomainError("derived vector not in canonical order")
            prev = key

    def dmap(self) -> DVec:
        return dict(self.derived)

    @property
    def is_identity(self) -> bool:
        return not self.derived and not any(self.exp)

    def min_weight(self) -> int:
        """Least nonzero layer: 1 if the exponent part moves, else the lightest bracket."""
        if any(self.exp):
            return 1
        if self.derived:
            return min(len(s) for s, _ in self.derived)
        return self.params.nilclass + 1

    def __mul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def inv(self) -> "Element":
        return inverse(self)

    def __pow__(self, n: int) -> "Element":
        return power(self, n)

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exp):
            if e:
                name = generator_name(i)
                parts.append(name if e == 1 else f"{name}^{e}")
        for seq, c in self.derived:
            br = "[" + ",".join(generator_name(b) for b in seq) + "]"
            parts.append(br if c == 1 else f"{br}^{c}")
        return " ".join(parts) if parts else "1"


def _mk(params: GroupParams, exp, dvec: DVec) -> Element:
    # trusted constructor: inputs come from the engine, skip re-validation
    derived = tuple(
        sorted(((s, c) for s, c in dvec.items() if c), key=lambda p: (len(p[0]), p[0]))
    )
    obj = object.__new__(Element)
    object.__setattr__(obj, "params", params)
    object.__setattr__(obj, "exp", tuple(exp))
    object.__setattr__(obj, "derived", derived)
    return obj


def truncate_weight(x: Element, w: int) -> Element:
    """Drop derived components of weight above w, keeping the same parameters.

    Sound whenever the discarded layers cannot influence the surrounding
    computation (they sit in gamma_{w+1}); for w = 0 the exponent part is
    dropped too.
    """
    if w < 1:
        return identity(x.params)
    if w >= x.params.nilclass or not x.derived or len(x.derived[-1][0]) <= w:
        return x
    return _mk(x.params, x.exp, {s: c for s, c in x.derived if len(s) <= w})


def identity(params: GroupParams) -> Element:
    return _mk(params, (0,) * params.rank, {})


def gen_element(params: GroupParams, i: int, e: int = 1) -> Element:
    if not 0 <= i < params.rank:
        raise DomainError(f"generator index {i} out of range")
    exp = [0] * params.rank
    exp[i] = e
    return _mk(params, exp, {})


def derived_element(params: GroupParams, dvec: DVec) -> Element:
    return _mk(params, (0,) * params.rank, dvec)


def _check_params(x: Element, y: Element) -> None:
    if x.params != y.params:
        raise DomainError(f"parameter mismatch: {x.params} vs {y.params}")


def _rmul_block(exp: list[int], vec: DVec, j: int, c: int, params: GroupParams) -> None:
    """Right-multiply the state (exp, vec) by a_j^c, in place.

    The old derived part is conjugated by a_j^c.  Moving a_j^c left past the
    heavier generator blocks costs the correction [a_m^{e_m}, a_j^c] for each
    m > j with e_m != 0, conjugated by the blocks a_{m+1}^{e_{m+1}} ...
    a_{d-1}^{e_{d-1}} it passes on its way to the far right.
    """
    if c == 0:
        return
    d, k = params.rank, params.nilclass
    _add_conj(vec, list(vec.items()), (0,) * j + (c,) + (0,) * (d - j - 1), k)
    for m in range(j + 1, d):
        if exp[m]:
            g = _gen_comm_cached(m, exp[m], j, c, k)
            _vadd(vec, g)
            _add_conj(vec, g, (0,) * (m + 1) + tuple(exp[m + 1 :]), k)
    exp[j] += c


def collect(w: Word, params: GroupParams) -> Element:
    """Image of a free-group word under the quotient map, in collected form."""
    exp = [0] * params.rank
    vec: DVec = {}
    for g, e in w.letters:
        if not 0 <= g < params.rank:
            raise DomainError(f"generator index {g} out of range for rank {params.rank}")
        _rmul_block(exp, vec, g, e, params)
    return _mk(params, exp, vec)


# A collector state (exp, vec) is an element before _mk.  _smul is the one
# product formula; mul, inverse, power, collect_text and the commutator of
# two generator parts all build on it.
State = tuple[tuple[int, ...] | list[int], DVec]


def _state(x: Element) -> State:
    return x.exp, x.dmap()


def _smul(params: GroupParams, x: State, y: State) -> State:
    """x y, collected: y's generator blocks moved in, then its derived part."""
    exp, vec = list(x[0]), dict(x[1])
    for j, c in enumerate(y[0]):
        _rmul_block(exp, vec, j, c, params)
    _vadd(vec, y[1].items())
    return exp, vec


def _sinv(params: GroupParams, x: State) -> State:
    """(A s)^-1 = s^-1 A^-1, with A^-1 collected block by block from the right."""
    exp, vec = [0] * params.rank, {}
    for m in reversed(range(params.rank)):
        _rmul_block(exp, vec, m, -x[0][m], params)
    return _smul(params, ((0,) * params.rank, {s: -c for s, c in x[1].items()}), (exp, vec))


@lru_cache(maxsize=1 << 8)
def _power_differences(params: GroupParams, e: tuple[int, ...]) -> tuple[tuple, ...]:
    """Newton forward differences delta_r of the derived parts p_i of A^i, A = a^e.

    The collected coordinates are a Mal'cev basis, so by P. Hall p_n is a
    polynomial of degree <= k in n: p_n = sum_r binom(n, r) delta_r for all n.
    Only the nonzero delta_r are kept, as (r, delta_r) pairs.
    """
    pts, x = [{}], ((0,) * params.rank, {})
    for _ in range(params.nilclass):
        x = _smul(params, x, (e, {}))
        pts.append(x[1])
    diffs = [{} for _ in pts]
    for r, delta in enumerate(diffs):
        for i in range(r + 1):
            _vadd(delta, pts[i].items(), (-1) ** (r - i) * math.comb(r, i))
    return tuple((r, tuple(delta.items())) for r, delta in enumerate(diffs) if delta)


def _spow(params: GroupParams, x: State, n: int) -> State:
    """x^n in closed form, at a cost that does not grow with |n|.

    With x = A s, A = a^E: (A s)^n = A^n sum_r binom(n, r+1) N_E^r s, A^n the
    Hall polynomial of _power_differences, for n < 0 too.  The k - 1 rounds
    of N_E cost up to k/2 products, so |n| <= (k+1)/2 takes plain products.
    A generator power (a_j^c)^n = a_j^(nc) is read off, with no product.
    """
    if not x[1] and sum(map(bool, x[0])) <= 1:
        return [n * c for c in x[0]], {}
    if 2 * abs(n) <= params.nilclass + 1:
        if n < 0:
            x, n = _sinv(params, x), -n
        out = x if n else ((0,) * params.rank, {})
        for _ in range(n - 1):
            out = _smul(params, out, x)
        return out
    e, k = tuple(x[0]), params.nilclass
    out = _hockey(x[1], n, lambda v: _conj_minus_one(v, e, k))
    for r, delta in _power_differences(params, e):
        _vadd(out, delta, binom(n, r))
    return [n * c for c in e], out


def text_state(text: str, params: GroupParams) -> State:
    """Evaluate word text in the group to a collector state, building no Word.

    Products fold into a collector state, powers take _spow's closed form,
    whose cost does not grow with |n|, and brackets the closed-form commutator.
    A bracket whose entries' least weights add up to more than k lies in
    gamma_(k+1) = 1, so it is the identity and is not evaluated; that covers
    every bracket of more than k entries.  No zero coefficient is stored, so
    equal states mean equal elements.
    """
    zero = (0,) * params.rank

    def bracket(parts):
        xs = [_mk(params, *x) for x in parts]
        if sum(x.min_weight() for x in xs) > params.nilclass:
            return zero, {}
        return _state(left_normed(xs))

    ops = WordOps(
        lambda: (zero, {}),
        lambda i: (zero[:i] + (1,) + zero[i + 1 :], {}),
        lambda x, y: _smul(params, x, y),
        lambda x, n: _spow(params, x, n),
        bracket,
    )
    exp, vec = evaluate(text, params, ops)
    return tuple(exp), vec


def collect_text(text: str, params: GroupParams) -> Element:
    """Word text evaluated in the group, as a collected Element."""
    return _mk(params, *text_state(text, params))


def mul(x: Element, y: Element) -> Element:
    _check_params(x, y)
    return _mk(x.params, *_smul(x.params, (x.exp, x.dmap()), (y.exp, y.dmap())))


def inverse(x: Element) -> Element:
    return _mk(x.params, *_sinv(x.params, _state(x)))


def power(x: Element, n: int) -> Element:
    """x^n for any integer n, in closed form past |n| = (k+1)/2 (see _spow)."""
    return _mk(x.params, *_spow(x.params, _state(x), n))


@lru_cache(maxsize=1 << 14)
def _comm_exp_parts(
    params: GroupParams, e: tuple[int, ...], f: tuple[int, ...]
) -> tuple[tuple[Basic, int], ...]:
    """[a^E, a^F] = c(E,F) - c(F,E), where a^E a^F = a^(E+F) c(E,F), c in M'.

    a^F a^E = a^(E+F) c(F,E) as well, so a^-E a^-F a^E a^F = (a^F a^E)^-1
    (a^E a^F) = c(F,E)^-1 c(E,F): two product formulas and no Element.
    """
    out = _smul(params, (e, {}), (f, {}))[1]
    _vadd(out, _smul(params, (f, {}), (e, {}))[1].items(), -1)
    return tuple(out.items())


def _add_comm(acc: DVec, x: Element, y: Element, scale: int = 1) -> None:
    """acc += scale [x, y], in closed form: with x = A s and y = B t (s, t derived),

        [x, y] = [A, B] + N_B s - N_A t,    N_E = conj_(a^E) - 1,

    every term a derived vector and [A, B] two product formulas
    (_comm_exp_parts), so no element product is collected.
    """
    k = x.params.nilclass
    _vadd(acc, _comm_exp_parts(x.params, x.exp, y.exp), scale)
    if x.derived:
        _add_conj(acc, x.derived, y.exp, k, scale)
    if y.derived:
        _add_conj(acc, y.derived, x.exp, k, -scale)


def commutator(x: Element, y: Element) -> Element:
    """[x, y] as a derived vector, by _add_comm's closed form."""
    _check_params(x, y)
    out: DVec = {}
    _add_comm(out, x, y)
    return _mk(x.params, (0,) * x.params.rank, out)


def left_normed(xs: list[Element]) -> Element:
    if not xs:
        raise DomainError("left-normed bracket of an empty list")
    acc = xs[0]
    for y in xs[1:]:
        acc = commutator(acc, y)
    return acc


def left_normed_rep(x: Element, n: int, y: Element) -> Element:
    """[x, n*y]: bracket with y appended n times; n = 0 returns x."""
    if n < 0:
        raise DomainError("repetition count must be >= 0")
    acc = x
    for _ in range(n):
        acc = commutator(acc, y)
    return acc


def equals(x: Element, y: Element) -> bool:
    _check_params(x, y)
    return x == y


def is_identity(x: Element) -> bool:
    return x.is_identity


def reduce_class(x: Element, j: int) -> Element:
    """Image of x in the class-j quotient: drop brackets of weight > j."""
    if not 1 <= j <= x.params.nilclass:
        raise DomainError(f"class {j} out of range 1..{x.params.nilclass}")
    params = GroupParams(x.params.rank, j)
    return _mk(params, x.exp, {s: c for s, c in x.derived if len(s) <= j})


def gamma_layer(x: Element, w: int) -> list[int]:
    """Coordinates of x on the weight-w layer, for x supported on weight >= w."""
    if not 2 <= w <= x.params.nilclass:
        raise DomainError(f"weight {w} out of range 2..{x.params.nilclass}")
    for i, e in enumerate(x.exp):
        if e:
            raise DomainError(
                f"element not in the weight-{w} layer: generator {generator_name(i)} "
                f"has exponent {e}"
            )
    coords = {s: 0 for s in enumerate_basics(x.params, w)}
    for seq, c in x.derived:
        if len(seq) < w:
            raise DomainError(
                f"element not in the weight-{w} layer: bracket {list(seq)} has "
                f"weight {len(seq)}"
            )
        if len(seq) == w:
            coords[seq] = c
    return list(coords.values())


# --- JSON --------------------------------------------------------------------


def element_to_json(x: Element) -> dict:
    return {
        "rank": x.params.rank,
        "class": x.params.nilclass,
        "exp": list(x.exp),
        "derived": [{"seq": list(s), "coef": c} for s, c in x.derived],
    }


def payload_reader(read):
    """A JSON payload reader whose KeyError or TypeError, a missing field or a
    value of the wrong type, leaves it as a PayloadError with the same message."""

    @wraps(read)
    def reader(obj, params: GroupParams | None = None):
        try:
            return read(obj, params)
        except (KeyError, TypeError) as exc:
            raise PayloadError(str(exc)) from exc

    return reader


def json_int(value) -> int:
    """An integer field of a JSON payload: anything but an int is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PayloadError(f"expected an integer, got {json.dumps(value)}")
    return value


def json_list(value, field: str, objects: bool = False) -> list:
    """An array field of a JSON payload, of objects if asked: anything else is
    refused, never iterated or indexed."""
    if not isinstance(value, (list, tuple)):
        raise PayloadError(f"'{field}' must be a JSON array, got {json.dumps(value)}")
    for item in value if objects else ():
        if not isinstance(item, dict):
            raise PayloadError(f"each item of '{field}' must be a JSON object, got {json.dumps(item)}")
    return value


def payload_params(obj: dict, params: GroupParams | None) -> GroupParams | None:
    """The group of a payload object: its own when it names rank or class (then
    it must name both), else the caller's params."""
    if "rank" in obj or "class" in obj:
        return GroupParams(json_int(obj["rank"]), json_int(obj["class"]))
    return params


@payload_reader
def element_from_json(obj, params: GroupParams | None = None) -> Element:
    """Accepts the Element schema, or a plain word string; either needs a group."""
    if isinstance(obj, dict):
        params = payload_params(obj, params)
    elif not isinstance(obj, str):
        raise PayloadError(f"element JSON must be an object or a word string, got {json.dumps(obj)}")
    if params is None:
        raise DomainError("an element needs explicit group parameters")
    if isinstance(obj, str):
        return collect_text(obj, params)
    vec: DVec = {}
    for t in json_list(obj.get("derived", []), "derived", objects=True):
        seq = tuple(json_int(b) for b in json_list(t["seq"], "seq"))
        vec[seq] = vec.get(seq, 0) + json_int(t["coef"])
    exp = [json_int(e) for e in json_list(obj["exp"], "exp")] if "exp" in obj else [0] * params.rank
    derived = tuple(
        sorted(((s, c) for s, c in vec.items() if c), key=lambda p: (len(p[0]), p[0]))
    )
    # the public constructor validates shape, weight and order
    return Element(params, tuple(exp), derived)
