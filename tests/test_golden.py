"""Exact JSON outputs of the decision engine, pinned in golden_outputs.json.

The pair order of a multi-pair result is part of the output, so these cases
compare whole JSON values, lists in order, rather than pair sets.  The (3,4)
accept has 12 pairs: synthesize flattens the solved symbols of every layer
jointly, in layer order, so a change to the solve order or to the flatten
shows up here.  A refusal certificate depends on the pivots of its layer
system, so every pinned one is also re-checked against a matrix built by
element arithmetic, the way a third party would.
"""

import json
from pathlib import Path

import sys

import pytest

from metanil import clear_caches
from metanil.autos import (
    gen_inner_from_json,
    gen_inner_to_json,
    invert_gen_inner,
    is_inner,
    spec_from_json,
)
from metanil.core import (
    element_to_json,
    enumerate_basics,
    gamma_layer,
    gen_element,
    inverse,
    mul,
)
from metanil.normality import (
    NotGeneralizedInner,
    enumerate_deltas,
    eval_delta_comm,
    synthesize_gen_inner,
)

CASES = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


def _synthesize(obj):
    res = synthesize_gen_inner(spec_from_json(obj))
    if isinstance(res, NotGeneralizedInner):
        return res.to_json()
    return gen_inner_to_json(res)


OPS = {
    "synthesize": _synthesize,
    "is_inner": lambda obj: element_to_json(is_inner(spec_from_json(obj))),
    "invert_gen_inner": lambda obj: gen_inner_to_json(
        invert_gen_inner(gen_inner_from_json(obj))
    ),
}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case):
    assert OPS[case["op"]](case["input"]) == case["output"]


def test_golden_corpus_covers_the_pinned_shapes():
    by_name = {c["name"]: c for c in CASES}
    accept = by_name["synthesize-accept-3-4"]["output"]
    assert accept["class"] >= 4 and len(accept["pairs"]) >= 10
    # an accept with a nonzero layer-2 (inner) part, at rank 4
    accept = by_name["synthesize-accept-4-5"]["output"]
    assert (accept["rank"], accept["class"]) == (4, 5)
    assert any(any(p["u"]["exp"]) for p in accept["pairs"])
    refusals = [c["output"] for c in CASES if "certificate" in c["output"]]
    assert {r["layer"] for r in refusals} == {2, 4, 6}
    assert all({"row", "modulus", "value"} <= set(r["certificate"]) for r in refusals)


REFUSALS = [c for c in CASES if c["output"].get("layer", 0) >= 2]


@pytest.mark.parametrize("case", REFUSALS, ids=[c["name"] for c in REFUSALS])
def test_pinned_certificate_verifies_against_element_arithmetic(case):
    # column (i, D), block j: [a_j, a_i, D] collected, not rewritten; the
    # right-hand side is the weight-w coordinates of the defects a_j^-1 f(a_j)
    f = spec_from_json(case["input"])
    p, w = f.params, case["output"]["layer"]
    gens = [gen_element(p, g) for g in range(p.rank)]
    cols = [(i, delta) for i in range(p.rank) for delta in enumerate_deltas(p.rank, w - 2)]
    a = [
        row
        for a_j in gens
        for row in zip(*(gamma_layer(eval_delta_comm(a_j, gens[i], D), w) for i, D in cols))
    ]
    defects = [mul(inverse(a_j), img).dmap() for a_j, img in zip(gens, f.images)]
    b = [dm.get(seq, 0) for dm in defects for seq in enumerate_basics(p, w)]
    cert = case["output"]["certificate"]
    u = cert["row"]
    assert cert["modulus"] == 0 and len(u) == len(a) == len(b)
    assert all(sum(x * row[c] for x, row in zip(u, a)) == 0 for c in range(len(cols)))
    assert sum(x * y for x, y in zip(u, b)) == cert["value"] != 0


def _cached_entries():
    sizes = [
        val.cache_info().currsize
        for name, mod in list(sys.modules.items())
        if name.startswith("metanil.")
        for val in vars(mod).values()
        if getattr(val, "__module__", None) == name and hasattr(val, "cache_info")
    ]
    return sum(sizes)


def test_golden_outputs_do_not_depend_on_cache_state():
    """Cold, warm, and cold again: cases sharing a (rank, class) leak nothing."""
    expected = [c["output"] for c in CASES]
    clear_caches()
    assert _cached_entries() == 0
    cold = [OPS[c["op"]](c["input"]) for c in CASES]
    assert _cached_entries() > 0
    warm = [OPS[c["op"]](c["input"]) for c in CASES]
    clear_caches()
    assert _cached_entries() == 0
    again = [OPS[c["op"]](c["input"]) for c in CASES]
    assert cold == expected and warm == expected and again == expected
