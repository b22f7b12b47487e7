"""Exact JSON outputs of the decision engine, pinned in golden_outputs.json.

The pair order of a multi-pair result is part of the output, so these cases
compare whole JSON values, lists in order, rather than pair sets.  The accept
case has 13 pairs and is one whose order changes if the composition step
flattens all terms jointly instead of each block separately.
"""

import json
from pathlib import Path

import pytest

from metanil.autos import (
    gen_inner_from_json,
    gen_inner_to_json,
    invert_gen_inner,
    is_inner,
    spec_from_json,
)
from metanil.core import element_to_json
from metanil.normality import NotGeneralizedInner, synthesize_gen_inner

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
    refusals = [c["output"] for c in CASES if "certificate" in c["output"]]
    assert {r["layer"] for r in refusals} == {2, 4}
    assert all({"row", "modulus", "value"} <= set(r["certificate"]) for r in refusals)
