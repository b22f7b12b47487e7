"""Seeded known-answer workloads: input generators, timed operations, checks.

Inputs are built by this file's own code from a seed, never by the samplers in
``metanil.verify``, so a change to the program cannot shift what is measured.
Every verdict is known by construction.  A case is a plain JSON-able dict, so
the same cases can be handed to a set-up probe process and hashed into a
digest.

Timed operations reach the engine the way a user does: through
``metanil.cli.main`` in process, with stdout captured and the exit code
checked.  The Magnus oracle has no word-pair verb, so the ``words`` workload
calls ``magnus.oracle_equal`` directly.  Module attributes are looked up at
call time (``cli.main``, ``words.parse_word``) so that the tracer's wrappers
are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations_with_replacement, product
from time import perf_counter

from metanil import cli, magnus, words
from metanil.autos import (
    apply_gen_inner,
    gen_inner_from_json,
    gen_inner_to_spec,
    spec_from_json,
    spec_to_json,
)
from metanil.core import enumerate_basics, gamma_layer, gen_element
from metanil.normality import eval_delta_comm
from metanil.words import GroupParams

NAMES = "abc"


class OpError(Exception):
    """An operation exited nonzero or produced output that fails its check."""


def call_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpError(f"metanil {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _group_args(d: int, k: int) -> list[str]:
    return ["--rank", str(d), "--class", str(k), "--json"]


# --- element JSON built from scratch -----------------------------------------


def basics(d: int, w: int) -> list[tuple[int, ...]]:
    """Basic commutators b1 > b2 <= b3 <= ... <= bw of weight w, in order."""
    return [
        (b1, b2) + tail
        for b1 in range(d)
        for b2 in range(b1)
        for tail in combinations_with_replacement(range(b2, d), w - 2)
    ]


def element_json(d: int, k: int, exp=None, derived=None) -> dict:
    derived = derived or {}
    return {
        "rank": d,
        "class": k,
        "exp": list(exp or [0] * d),
        "derived": [
            {"seq": list(s), "coef": c}
            for s, c in sorted(derived.items(), key=lambda t: (len(t[0]), t[0]))
            if c
        ],
    }


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _gen_power_pair(rng, d, k, gens, lam_choices):
    exp = [0] * d
    for g in gens:
        exp[g] = _sign(rng)
    return {"u": element_json(d, k, exp), "lambda": rng.choice(lam_choices)}


def _derived_pair(rng, d, k, count, wmax):
    pool = [s for w in range(2, min(wmax, k) + 1) for s in basics(d, w)]
    vec = {s: _sign(rng) for s in rng.sample(pool, count)}
    return {"u": element_json(d, k, derived=vec), "lambda": 1}


def pair_data(rng: random.Random, d: int, k: int, heavy: bool, signs) -> dict:
    """Pair data of a fixed structure; the signs are given, the rest is random.

    Light: one two-generator exponent part, signs (s1, s2, l), plus a derived
    part of two brackets.  Heavy: two single-generator exponent parts, signs
    (s1, s2, l1, l2), plus one derived bracket.  Inversion cost grows steeply
    with the number of distinct exponent parts, so structure, not chance,
    sets the cost mix.
    """
    p, q = rng.sample(range(d), 2)
    if heavy:
        s1, s2, l1, l2 = signs
        pairs = [
            {"u": element_json(d, k, [s1 if g == p else 0 for g in range(d)]), "lambda": l1},
            {"u": element_json(d, k, [s2 if g == q else 0 for g in range(d)]), "lambda": l2},
            _derived_pair(rng, d, k, 1, 5),
        ]
    else:
        s1, s2, lam = signs
        exp = [s1 if g == min(p, q) else s2 if g == max(p, q) else 0 for g in range(d)]
        pairs = [{"u": element_json(d, k, exp), "lambda": lam}, _derived_pair(rng, d, k, 2, 6)]
    return {"rank": d, "class": k, "pairs": pairs}


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# --- decide: synthesize on accepted and refused specs ------------------------


class Decide:
    """`synthesize --json` on element-JSON specs, alternating (3,6) and (4,5).

    Ops cycle accept, accept, refuse, refuse, so each shape sees both
    verdicts.  A refused spec is an accepted one with image a_j multiplied
    by c^m, c a weight-k basic commutator whose index multiset avoids j: no
    bracket symbol [a_j, a_i, D] has that content, so the top-layer system is
    infeasible while every lower class is accepted.
    """

    name = "decide"
    shapes = ((3, 6), (4, 5))
    cycle = 4
    parts = ("accept", "refuse")
    tail_pct = 90
    rate = 4.5

    def __init__(self):
        self._systems = {}

    def case(self, rng: random.Random, i: int) -> dict:
        d, k = self.shapes[i % 2]
        accept = (i // 2) % 2 == 0
        data = {
            "rank": d,
            "class": k,
            "pairs": [
                _gen_power_pair(rng, d, k, sorted(rng.sample(range(d), 2)), (-1, 1)),
                _gen_power_pair(rng, d, k, (rng.randrange(d),), (-2, -1, 1, 2)),
                _derived_pair(rng, d, k, 2, 3),
            ],
        }
        p = GroupParams(d, k)
        spec = spec_to_json(gen_inner_to_spec(gen_inner_from_json(data, p)))
        case = {"shape": [d, k], "accept": accept, "data": _dumps(data)}
        if not accept:
            j = rng.randrange(d)
            seq = rng.choice([s for s in basics(d, k) if j not in s])
            coef = rng.choice((-2, -1, 1, 2))
            # seq is central of top weight, so the product only moves its coefficient
            image = spec["images"][j]
            derived = {tuple(t["seq"]): t["coef"] for t in image["derived"]}
            derived[seq] = derived.get(seq, 0) + coef
            spec["images"][j] = element_json(d, k, image["exp"], derived)
            case["perturbation"] = {"generator": j, "seq": list(seq), "coef": coef}
        case["spec"] = _dumps(spec)
        return case

    def run(self, case: dict):
        d, k = case["shape"]
        t0 = perf_counter()
        out = call_cli(["synthesize", *_group_args(d, k), case["spec"]])
        return out, {"accept" if case["accept"] else "refuse": perf_counter() - t0}

    def _layer_system(self, d: int, k: int):
        """Top-layer matrix rebuilt by element arithmetic, as the tests do."""
        if (d, k) not in self._systems:
            p = GroupParams(d, k)
            gens = [gen_element(p, i) for i in range(d)]
            nb = len(enumerate_basics(p, k))
            deltas = _deltas(d, k - 2)
            cols = [(i, delta) for i in range(d) for delta in deltas]
            rows = [[0] * len(cols) for _ in range(d * nb)]
            for j in range(d):
                for c, (i, delta) in enumerate(cols):
                    if i != j:
                        vec = gamma_layer(eval_delta_comm(gens[j], gens[i], delta), k)
                        for r, v in enumerate(vec):
                            rows[j * nb + r][c] = v
            self._systems[(d, k)] = rows
        return self._systems[(d, k)]

    def check(self, case: dict, out: str) -> None:
        d, k = case["shape"]
        p = GroupParams(d, k)
        res = json.loads(out)
        if case["accept"]:
            if "pairs" not in res:
                raise OpError(f"accepted spec refused: {out[:200]}")
            spec = spec_from_json(json.loads(case["spec"]), p)
            if gen_inner_to_spec(gen_inner_from_json(res, p)).images != spec.images:
                raise OpError("witness data does not reproduce the spec")
            return
        if "certificate" not in res:
            raise OpError("perturbed spec accepted")
        if res["layer"] != k:
            raise OpError(f"refused at layer {res['layer']}, expected {k}")
        cert = res["certificate"]
        u, mod, value = cert["row"], cert["modulus"], cert["value"]
        rows = self._layer_system(d, k)
        if len(u) != len(rows):
            raise OpError("certificate row has the wrong length")
        # rows follow the engine's basis order, as gamma_layer and the certificate do
        order = enumerate_basics(p, k)
        pert = case["perturbation"]
        t = pert["generator"] * len(order) + order.index(tuple(pert["seq"]))
        ua = [sum(u[r] * rows[r][c] for r in range(len(rows))) for c in range(len(rows[0]))]
        ue = u[t] * pert["coef"]
        if mod == 0:
            ok = not any(ua) and ue != 0 and ue == value
        else:
            ok = (
                all(v % mod == 0 for v in ua)
                and ue % mod != 0
                and (ue - value) % mod == 0
            )
        if not ok:
            raise OpError("refusal certificate does not verify")


def _deltas(nslots: int, degree: int) -> list[tuple[int, ...]]:
    """Multiplicity functions of the given degree, in lexicographic order."""
    if nslots == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree + 1)
        for rest in _deltas(nslots - 1, degree - first)
    ]


# --- calculus: invert, then compose back to the identity ---------------------


class Calculus:
    """`invert --json` then `compose --json` on pair data, (3,6) and (2,8).

    Ops alternate the shapes.  Every fourth (3,6) op is heavy (see
    pair_data), which gives inversion its heavy tail at a fixed share; (2,8)
    ops are all light, since a heavy inversion there swings from 40 ms to
    0.5 s with the choice of derived bracket and would make the tail a
    lottery over a few dozen draws.  Inversion cost swings by a factor of four with
    the signs alone, so for each shape and kind the sign patterns come in
    seed-shuffled blocks that hold every pattern once: the cost mix of a run
    does not hinge on how many costly patterns a seed happens to draw.  The
    compose op is f o f^-1, whose output must be the identity.
    """

    name = "calculus"
    shapes = ((3, 6), (2, 8))
    cycle = 8
    parts = ("invert", "compose")
    tail_pct = 95
    rate = 66.0

    def __init__(self):
        self._blocks = {}

    def case(self, rng: random.Random, i: int) -> dict:
        d, k = self.shapes[i % 2]
        j = i // 2
        heavy = j % 4 == 3 and (d, k) == self.shapes[0]
        index = j // 4 if heavy else 3 * (j // 4) + j % 4
        patterns = list(product((-1, 1), repeat=4 if heavy else 3))
        slot = index % len(patterns)
        key = (d, k, heavy)
        if slot == 0 or key not in self._blocks:
            self._blocks[key] = rng.sample(patterns, len(patterns))
        return {
            "shape": [d, k],
            "heavy": heavy,
            "data": _dumps(pair_data(rng, d, k, heavy, self._blocks[key][slot])),
        }

    def run(self, case: dict):
        d, k = case["shape"]
        t0 = perf_counter()
        inv = call_cli(["invert", *_group_args(d, k), case["data"]])
        t1 = perf_counter()
        comp = call_cli(["compose", *_group_args(d, k), case["data"], inv])
        return (inv, comp), {"invert": t1 - t0, "compose": perf_counter() - t1}

    def check(self, case: dict, out) -> None:
        d, k = case["shape"]
        p = GroupParams(d, k)
        f = gen_inner_from_json(json.loads(case["data"]), p)
        inv = gen_inner_from_json(json.loads(out[0]), p)
        comp = gen_inner_from_json(json.loads(out[1]), p)
        for i in range(d):
            a = gen_element(p, i)
            if apply_gen_inner(f, apply_gen_inner(inv, a)) != a:
                raise OpError("f o f^-1 is not the identity")
            if apply_gen_inner(inv, apply_gen_inner(f, a)) != a:
                raise OpError("f^-1 o f is not the identity")
            if apply_gen_inner(comp, a) != a:
                raise OpError("composed data is not the identity")


# --- words: equality by the collector and by the Magnus oracle ----------------


class Words:
    """Word pairs at (3,5), each decided by `eq` and by the Magnus oracle.

    A word is two powered subwords (x y z)^e, x y z a signed permutation of
    a b c and |e| in 50..55, about 310 syllables once expanded.  Using all
    three letters in every factor makes the oracle's polynomials equally
    dense from case to case, so cost hardly depends on the seed.  Equal pairs insert a
    second-derived bracket [[X,Y],[Z,W]] or a weight-6 bracket, both trivial
    in the class-5 metabelian group; unequal pairs insert a power of a basic
    commutator of weight <= 5, which is never trivial.
    """

    name = "words"
    shapes = ((3, 5),)
    cycle = 4
    parts = ("eq", "oracle")
    tail_pct = 75
    rate = 3.5

    def _sub(self, rng: random.Random, n: int) -> str:
        # distinct letters, so (x y z)^e expands without free cancellation
        gens = rng.sample(NAMES, n)
        return " ".join(g if _sign(rng) > 0 else f"{g}^-1" for g in gens)

    def case(self, rng: random.Random, i: int) -> dict:
        d, k = self.shapes[0]
        factors = [
            f"({self._sub(rng, 3)})^{_sign(rng) * rng.randint(50, 55)}"
            for _ in range(2)
        ]
        equal = i % 2 == 0
        if not equal:
            w = rng.randint(2, k)
            seq = rng.choice(basics(d, w))
            insert = "[" + ",".join(NAMES[g] for g in seq) + "]"
            insert += f"^{rng.choice((-2, -1, 2))}" if rng.random() < 0.5 else ""
        elif (i // 2) % 2 == 0:
            x, y, z, t = (self._sub(rng, 2) for _ in range(4))
            insert = f"[[{x},{y}],[{z},{t}]]"
        else:
            insert = "[" + ",".join(self._sub(rng, 1) for _ in range(k + 1)) + "]"
        pos = rng.randrange(len(factors) + 1)
        w2 = factors[:pos] + [insert] + factors[pos:]
        return {"shape": [d, k], "equal": equal, "w1": " ".join(factors), "w2": " ".join(w2)}

    def run(self, case: dict):
        d, k = case["shape"]
        t0 = perf_counter()
        out = call_cli(["eq", *_group_args(d, k), case["w1"], case["w2"]])
        t1 = perf_counter()
        p = GroupParams(d, k)
        same = magnus.oracle_equal(
            words.parse_word(case["w1"], p), words.parse_word(case["w2"], p), p
        )
        t2 = perf_counter()
        return (out, same), {"eq": t1 - t0, "oracle": t2 - t1}

    def check(self, case: dict, out) -> None:
        if json.loads(out[0]).get("equal") is not case["equal"]:
            raise OpError("eq verdict differs from the known answer")
        if out[1] is not case["equal"]:
            raise OpError("oracle verdict differs from the known answer")


WORKLOADS = {w.name: w for w in (Decide(), Calculus(), Words())}
