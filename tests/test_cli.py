import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import metanil
import metanil.core as core

from metanil.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "--rank", "2", "--class", "3", "(a b)^2")
    assert code == 0
    assert out.strip() == "a^2 b^2 [b,a] [b,a,b]"


def test_nf_json(capsys):
    code, out, _ = run(capsys, "nf", "--rank", "2", "--class", "3", "--json", "(a b)^2")
    assert code == 0
    blob = json.loads(out)
    assert blob["exp"] == [2, 2]
    assert blob["derived"] == [
        {"seq": [1, 0], "coef": 1},
        {"seq": [1, 0, 1], "coef": 1},
    ]


def test_eq_truncation(capsys):
    code, out, _ = run(capsys, "eq", "--rank", "2", "--class", "2", "[b,a,a]", "")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "eq", "--rank", "2", "--class", "3", "[b,a,a]", "")
    assert code == 0 and out.strip() == "not equal"


@pytest.mark.parametrize(
    "word1,word2,code,err",
    [
        ("a b", "(a b", 2, "parse error: expected ')' (at position 4)"),
        ("a", "c", 2, "parse error: generator index 2 out of range for rank 2 (at position 0)"),
        ("[a", "b", 2, "parse error: expected ']' (at position 2)"),
        ("a", "a^x", 2, "parse error: expected 'int' (at position 2)"),
        ("a ]", "a", 2, "parse error: unexpected token ']' (at position 2)"),
    ],
)
def test_eq_malformed_input(capsys, word1, word2, code, err):
    # eq compares collector states; a bad text is still reported by the parser
    got, out, stderr = run(capsys, "eq", "--rank", "2", "--class", "3", word1, word2)
    assert (got, out, stderr) == (code, "", err + "\n")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "nf", "--rank", "2", "--class", "3", "(a b")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "nf", "--rank", "0", "--class", "3", "a")
    assert code == 3 and "domain error" in err
    code, _, err = run(capsys, "nf", "--rank", "2", "--class", "3", "c")
    assert code == 2
    code, _, err = run(capsys, "nf", "--rank", "2", "--class", "3", "a^" + "9" * 5000)
    assert code == 2 and "5000 digits is too long (at position 2)" in err
    code, _, err = run(capsys, "--bogus")
    assert code == 1


def test_dense_abelianization_is_decided_quickly(capsys):
    # image j has the exponents of column j of L U, L and U the all-ones lower
    # and upper triangles: dense and unimodular, which a cofactor expansion of
    # the determinant takes 12! steps to see
    d = 12
    exp = [[min(i, j) + 1 for i in range(d)] for j in range(d)]
    args = ("synthesize", "--rank", str(d), "--class", "2", "--json")
    spec = json.dumps({"images": [{"exp": e} for e in exp]})
    code, out, _ = run(capsys, *args, spec)
    assert code == 0
    assert json.loads(out) == {
        "witness_generator": 0,
        "layer": 1,
        "certificate": {"kind": "not-ia", "exp": [1] * d},
    }
    exp[-1][-1] += 1  # the leading minors are all 1, so the determinant is now 2
    spec = json.dumps({"images": [{"exp": e} for e in exp]})
    code, out, err = run(capsys, *args, spec)
    assert code == 3 and out == ""
    assert "do not define an automorphism" in err


@pytest.mark.parametrize("verb", ["synthesize", "is-inner"])
def test_oversized_basis_is_refused_before_enumeration(capsys, monkeypatch, verb):
    # (12,8) has 478 687 basics: the closed-form count refuses it with exit 3
    # before a single layer basis is listed
    def listed(*args):
        raise AssertionError("a layer basis was enumerated")

    monkeypatch.setattr(core, "_basics_of_weight", listed)
    start = time.perf_counter()
    code, out, err = run(
        capsys, verb, "--rank", "12", "--class", "8", '{"pairs":[{"u":"a b","lambda":1}]}'
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (
        f"domain error: {verb} at rank 12, class 8 would enumerate 478687 basic "
        "commutators, over the limit of 20000\n"
    )


def test_nesting_limit(capsys):
    # deep nesting is a domain error (exit 3), raised before the recursive
    # parser can overflow the interpreter stack
    deep = "(" * 3000 + "a" + ")" * 3000
    code, _, err = run(capsys, "nf", "--rank", "2", "--class", "3", deep)
    assert code == 3 and "nesting" in err
    ok = "(" * 200 + "a" + ")" * 200
    code, out, _ = run(capsys, "nf", "--rank", "2", "--class", "3", ok)
    assert code == 0 and out.strip() == "a"


@pytest.mark.parametrize("route", ["@path", "-", "apply-element-@path"])
def test_deep_json_payload_is_a_parse_error(tmp_path, route):
    # json.loads recurses once per '[': a 200 000-deep payload is a parse
    # error with a one-line message, not a traceback, through a file, stdin
    # and apply's element argument
    deep = "[" * 200_000
    argv = ["synthesize"]
    if route == "apply-element-@path":
        deep = '{"exp": ' + deep
        argv = ["apply", '{"images": ["a", "b"]}']
    path = tmp_path / "deep.json"
    path.write_text(deep)
    arg = "-" if route == "-" else f"@{path}"
    src = str(Path(metanil.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "metanil.cli", *argv, "--rank", "2", "--class", "3", arg],
        input=deep if route == "-" else "",
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "parse error: invalid JSON: nested too deeply (at position 0)\n"


# The group of an element, spec or pair payload: one that names rank or class
# must name both and is read at its own group (here class 2); one that names
# neither is read at --rank 2 --class 3.
_GROUP_KEYS = {
    "rank only": {"rank": 2},
    "class only": {"class": 2},
    "both": {"rank": 2, "class": 2},
    "neither": {},
}
_MISSING = {"rank only": (2, "", "parse error: invalid payload: 'class'\n"),
            "class only": (2, "", "parse error: invalid payload: 'rank'\n")}
_PAYLOAD_GROUP_CASES = [
    # apply the generator swap to a (a rank-2 class-2 element cannot meet the
    # class-3 spec)
    ("element", ("apply", '{"images": ["b", "a"]}'), {"exp": [1, 0]}, {
        "both": (3, "", "domain error: parameter mismatch between spec and element\n"),
        "neither": (0, "b\n", ""),
    }),
    # [b,a,a] dies in class 2, where every map is inner
    ("spec", ("is-inner",), {"images": ["a", "b [b,a,a]"]}, {
        "both": (0, "inner: conjugation by 1\n", ""),
        "neither": (0, "not inner\n", ""),
    }),
    # x -> x [x,a]^2 is conjugation by a^2 only below class 3
    ("pairs", ("is-inner",), {"pairs": [{"u": "a", "lambda": 2}]}, {
        "both": (0, "inner: conjugation by a^2\n", ""),
        "neither": (0, "not inner\n", ""),
    }),
]


@pytest.mark.parametrize(
    "argv, payload, want",
    [
        pytest.param(
            argv,
            json.dumps({**keys, **body}),
            {**_MISSING, **outcomes}[name],
            id=f"{kind}-{name.replace(' ', '-')}",
        )
        for kind, argv, body, outcomes in _PAYLOAD_GROUP_CASES
        for name, keys in _GROUP_KEYS.items()
    ]
    + [
        pytest.param(
            ("apply", '{"images": ["b", "a"]}'),
            '{"exp": [1,',
            (2, "", "parse error: invalid JSON: Expecting value (at position 11)\n"),
            id="element-malformed",
        )
    ],
)
def test_payload_group_is_both_keys_or_the_options(capsys, argv, payload, want):
    verb, *rest = argv
    assert run(capsys, verb, "--rank", "2", "--class", "3", *rest, payload) == want


def test_is_inner_flow(capsys):
    spec = json.dumps({"rank": 2, "class": 3, "images": ["a", "b [b,a,a]"]})
    code, out, _ = run(capsys, "is-inner", "--rank", "2", "--class", "3", spec)
    assert code == 0 and out.strip() == "not inner"
    conj = json.dumps({"rank": 2, "class": 3, "pairs": [{"u": "a b", "lambda": 1}]})
    code, out, _ = run(capsys, "is-inner", "--rank", "2", "--class", "3", "--json", conj)
    assert code == 0
    blob = json.loads(out)
    assert blob["inner"] is True and blob["conjugator"] is not None


def test_synthesize_flow(capsys):
    spec = json.dumps({"rank": 2, "class": 3, "images": ["a", "b [b,a,a]"]})
    code, out, _ = run(capsys, "synthesize", "--rank", "2", "--class", "3", "--json", spec)
    assert code == 0
    blob = json.loads(out)
    pairs = {(tuple(p["u"]["exp"])): p["lambda"] for p in blob["pairs"]}
    assert pairs == {(1, 0): -2, (2, 0): 1}
    refusal_spec = json.dumps(
        {"rank": 3, "class": 5, "images": ["a [a,b]", "b", "c"]}
    )
    code, out, _ = run(capsys, "synthesize", "--json", refusal_spec)
    assert code == 0
    blob = json.loads(out)
    assert blob["layer"] == 2 and "certificate" in blob


def test_apply_and_compose_and_invert(capsys):
    conj = json.dumps({"rank": 2, "class": 3, "pairs": [{"u": "a b", "lambda": 1}]})
    code, out, _ = run(capsys, "apply", "--rank", "2", "--class", "3", conj, "a")
    assert code == 0 and out.strip() == "a [b,a]^-1"
    data = json.dumps(
        {
            "rank": 2,
            "class": 3,
            "pairs": [{"u": "a", "lambda": -2}, {"u": "a^2", "lambda": 1}],
        }
    )
    code, out, _ = run(capsys, "invert", "--rank", "2", "--class", "3", data)
    assert code == 0
    blob = json.loads(out)
    got = {tuple(p["u"]["exp"]): p["lambda"] for p in blob["pairs"]}
    assert got == {(1, 0): 2, (2, 0): -1}
    code, out, _ = run(capsys, "compose", "--rank", "2", "--class", "3", data, data)
    assert code == 0 and "pairs" in json.loads(out)


def test_stdin_payload(capsys, monkeypatch):
    import io

    spec = json.dumps({"rank": 2, "class": 3, "images": ["a", "b"]})
    monkeypatch.setattr("sys.stdin", io.StringIO(spec))
    code, out, _ = run(capsys, "is-inner", "--rank", "2", "--class", "3", "-")
    assert code == 0 and "inner" in out


def test_verify_paper_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify-paper", "--suite", "class2", "--seed", "5")
    code2, out2, _ = run(capsys, "verify-paper", "--suite", "class2", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_paper_section2(capsys):
    code, out, _ = run(capsys, "verify-paper", "--suite", "section2-ia")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_paper_unknown_suite(capsys):
    code, _, err = run(capsys, "verify-paper", "--suite", "nonsense")
    assert code == 1  # argparse choice rejection


def test_verify_paper_all(capsys):
    code, out, _ = run(capsys, "verify-paper", "--samples", "4")
    assert code == 0
    for name in ("section2-ia", "prop14", "thm21", "cor23", "lemma31", "lemma32", "class2"):
        assert f"suite {name}: PASS" in out


def test_compose_mixed_payload_types(capsys):
    spec = json.dumps({"rank": 2, "class": 3, "images": ["a [a,b]", "b"]})
    data = json.dumps({"rank": 2, "class": 3, "pairs": [{"u": "a", "lambda": 1}]})
    code, out, _ = run(capsys, "compose", "--rank", "2", "--class", "3", spec, data)
    assert code == 0
    blob = json.loads(out)
    assert "images" in blob and len(blob["images"]) == 2


def test_rank_one_class_one_cli(capsys):
    code, out, _ = run(capsys, "nf", "--rank", "1", "--class", "1", "a^3 a^-1")
    assert code == 0 and out.strip() == "a^2"


def test_hostile_payloads_exit_cleanly(capsys):
    cases = [
        '{"images": [{"rank": 2, "class": 3, "exp": ["x", 0]}, "b"]}',
        '{"pairs": [{"u": "a"}]}',  # missing lambda
        '{"pairs": [{"u": {"rank": 2, "class": 3, "exp": [0, 0], '
        '"derived": [{"seq": [0, 1], "coef": 1}]}, "lambda": 1}]}',
        '["not", "an", "object"]',
        "not json at all",
    ]
    for payload in cases:
        code, _, err = run(capsys, "synthesize", "--rank", "2", "--class", "3", payload)
        assert code in (2, 3), (payload, code, err)
        assert "error" in err


BAD_INDEX = '{"exp": [0, 0], "derived": [{"seq": [1, -1], "coef": 1}]}'


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", '{"images": ["a", "b"]}', BAD_INDEX),
        ("apply", '{"images": ["a", %s]}' % BAD_INDEX, "b"),
        ("invert", '{"pairs": [{"u": %s, "lambda": 1}]}' % BAD_INDEX),
        ("is-inner", '{"pairs": [{"u": %s, "lambda": 1}]}' % BAD_INDEX),
        ("synthesize", '{"pairs": [{"u": %s, "lambda": 1}]}' % BAD_INDEX),
        ("synthesize", '{"images": ["a", %s]}' % BAD_INDEX),
    ],
    ids=["apply-element", "apply-spec", "invert", "is-inner", "synthesize-pairs",
         "synthesize-spec"],
)
def test_negative_bracket_index_is_a_domain_error(capsys, argv):
    # a bracket index below 0 names no generator: refused on input with exit
    # 3, not evaluated (exit 0) or met later as an internal error (exit 5)
    verb, *rest = argv
    code, out, err = run(capsys, verb, "--rank", "2", "--class", "3", *rest)
    assert (code, out) == (3, "")
    assert err == "domain error: (1, -1) is not a basic commutator here\n"


HUGE_RANK_ELEMENT = '{"rank": 100000000000000000000, "class": 3, "exp": [1, 0]}'


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", '{"images": ["a", "b"]}', HUGE_RANK_ELEMENT),
        ("synthesize", '{"rank": 2, "class": 3, "images": [%s, "b"]}' % HUGE_RANK_ELEMENT),
    ],
    ids=["apply-element", "synthesize-image"],
)
def test_an_element_naming_a_huge_rank_with_its_exp_is_a_domain_error(capsys, argv):
    # the exp default is built only when exp is absent, so a rank of 10**20
    # meets the length check (exit 3), not a list of that length (exit 5)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "domain error: exponent vector length does not match rank\n"


def _pair_with_u(element):
    return '{"pairs": [{"u": %s, "lambda": 1}]}' % json.dumps(element)


@pytest.mark.parametrize(
    "argv, field, got",
    [
        (("apply", '{"images": "ba"}', "a b"), "images", '"ba"'),
        (("apply", '{"images": {"b": 0, "a": 1}}', "a b"), "images", '{"b": 0, "a": 1}'),
        (("synthesize", '{"images": {"b": 0, "a": 1}}'), "images", '{"b": 0, "a": 1}'),
        (("synthesize", '{"images": 2}'), "images", "2"),
        (("invert", '{"pairs": "ab"}'), "pairs", '"ab"'),
        (("invert", '{"pairs": {"u": "a", "lambda": 1}}'), "pairs", '{"u": "a", "lambda": 1}'),
        (("invert", '{"pairs": null}'), "pairs", "null"),
        (("invert", _pair_with_u({"exp": "ab"})), "exp", '"ab"'),
        (("invert", _pair_with_u({"exp": {"0": 1, "1": 0}})), "exp", '{"0": 1, "1": 0}'),
        (("invert", _pair_with_u({"derived": {"seq": [1, 0], "coef": 1}})), "derived",
         '{"seq": [1, 0], "coef": 1}'),
        (("invert", _pair_with_u({"derived": "ab"})), "derived", '"ab"'),
        (("invert", _pair_with_u({"derived": [{"seq": "10", "coef": 1}]})), "seq", '"10"'),
        (("invert", _pair_with_u({"derived": [{"seq": {"1": 0}, "coef": 1}]})), "seq", '{"1": 0}'),
        (("apply", '{"images": ["a", "b"]}', '{"exp": "ab"}'), "exp", '"ab"'),
    ],
    ids=["apply-images-string", "apply-images-object", "synthesize-images-object",
         "synthesize-images-number", "invert-pairs-string", "invert-pairs-object",
         "invert-pairs-null", "exp-string", "exp-object", "derived-object",
         "derived-string", "seq-string", "seq-object", "apply-element-exp-string"],
)
def test_array_fields_refuse_any_other_json_value(capsys, argv, field, got):
    # a string or an object is not read as its characters or its keys, and no
    # Python error text leaks: a parse error, exit 2, that names the field
    verb, *rest = argv
    code, out, err = run(capsys, verb, "--rank", "2", "--class", "3", *rest)
    assert (code, out) == (2, "")
    assert err == f"parse error: invalid payload: '{field}' must be a JSON array, got {got}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("invert", '{"pairs": ["ab"]}'), "each item of 'pairs' must be a JSON object, got \"ab\""),
        (("synthesize", '{"pairs": [3]}'), "each item of 'pairs' must be a JSON object, got 3"),
        (("invert", _pair_with_u({"derived": ["ab"]})),
         "each item of 'derived' must be a JSON object, got \"ab\""),
        (("apply", '{"images": ["a", "b"]}', '{"derived": [[1, 0]]}'),
         "each item of 'derived' must be a JSON object, got [1, 0]"),
        (("invert", '{"pairs": [{"u": 3, "lambda": 1}]}'),
         "element JSON must be an object or a word string, got 3"),
        (("invert", '{"images": [3, "b"]}'),
         "element JSON must be an object or a word string, got 3"),
        (("synthesize", '{"images": ["a", null]}'),
         "element JSON must be an object or a word string, got null"),
    ],
    ids=["pairs-string", "pairs-number", "derived-string", "apply-element-derived-array",
         "u-number", "image-number", "image-null"],
)
def test_items_and_elements_of_another_json_type_are_parse_errors(capsys, argv, message):
    # an item of 'pairs' or 'derived' is an object, an element an object or
    # a word string: anything else is a parse error, exit 2, that says which
    verb, *rest = argv
    code, out, err = run(capsys, verb, "--rank", "2", "--class", "3", *rest)
    assert (code, out) == (2, "")
    assert err == f"parse error: invalid payload: {message}\n"


def test_an_element_of_another_json_type_is_a_value_error_not_a_domain_error():
    p = metanil.GroupParams(2, 3)
    for obj in (3, None, ["a"]):
        with pytest.raises(ValueError, match="object or a word string") as info:
            core.element_from_json(obj, p)
        assert not isinstance(info.value, metanil.DomainError)


@pytest.mark.parametrize(
    "read, obj, message",
    [
        ("gen_inner_from_json", {"pairs": [{"u": "a"}]}, "'lambda'"),
        ("gen_inner_from_json", {"pairs": [{"lambda": 1}]}, "'u'"),
        ("spec_from_json", {"rank": 2, "class": 3}, "'images'"),
        ("spec_from_json", {"images": ["a", "b"], "class": 3}, "'rank'"),
        ("element_from_json", {"derived": [{"seq": [1, 0]}]}, "'coef'"),
        ("element_from_json", {"exp": [0, "1"]}, 'expected an integer, got "1"'),
        ("spec_from_json", 3, "argument of type 'int' is not iterable"),
    ],
    ids=["missing-lambda", "missing-u", "missing-images", "missing-rank", "missing-coef",
         "string-integer", "payload-number"],
)
def test_every_library_payload_error_is_a_payload_error(read, obj, message):
    # one ValueError subclass, with the message the CLI prints after
    # "parse error: invalid payload: ", never a KeyError or a TypeError
    with pytest.raises(metanil.PayloadError) as info:
        getattr(metanil, read)(obj, metanil.GroupParams(2, 3))
    assert isinstance(info.value, ValueError) and str(info.value) == message


@pytest.mark.parametrize("raised", [KeyError((2, 2)), TypeError("(2, 2)"), ValueError("(2, 2)")],
                         ids=["KeyError", "TypeError", "ValueError"])
def test_an_engine_exception_is_an_internal_error_not_a_parse_error(capsys, monkeypatch, raised):
    # a fault inside the engine is exit 5, never reported as bad input
    import metanil.normality as normality

    def broken(*args, **kwargs):
        raise raised

    monkeypatch.setattr(normality, "_layer_system", broken)
    spec = '{"pairs": [{"u": "a b", "lambda": 1}]}'
    code, out, err = run(capsys, "synthesize", "--rank", "2", "--class", "3", spec)
    assert (code, out) == (5, "")
    first, trace = err.split("\n", 1)
    assert first == f"internal error: {type(raised).__name__}: (2, 2)"
    assert trace.startswith("Traceback (most recent call last):") and "_layer_system" in trace


def _big_pairs(digits):
    lam = "7" * digits
    return '{"pairs": [{"u": "a", "lambda": %s}, {"u": "b", "lambda": -%s}]}' % (lam, lam)


@pytest.mark.parametrize(
    "argv",
    [
        ("nf", "--rank", "2", "--class", "6", "(a b)^" + "9" * 1000),
        ("nf", "--json", "--rank", "2", "--class", "6", "(a b)^" + "9" * 1000),
        ("compose", "--rank", "2", "--class", "3", _big_pairs(3000), _big_pairs(3000)),
    ],
    ids=["nf", "nf-json", "compose"],
)
def test_a_result_past_the_int_to_string_limit_is_a_domain_error(capsys, argv):
    # the result is computed, but Python will not print an int of more than
    # sys.get_int_max_str_digits() digits: a domain error that names the limit
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    limit = sys.get_int_max_str_digits()
    assert err == (f"domain error: the result holds an integer of more than {limit} digits, "
                   "Python's int-to-string limit\n")


def test_input_past_the_int_to_string_limit_stays_a_parse_error(capsys, tmp_path):
    # a 5000-digit JSON integer, and a payload file that is not UTF-8
    lam = "1" * 5000
    code, out, err = run(capsys, "invert", '{"pairs": [{"u": "a", "lambda": %s}]}' % lam)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err.startswith(f"parse error: invalid payload: Exceeds the limit ({limit} digits)")
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"images": ["a", "\xff"]}')
    code, out, err = run(capsys, "synthesize", f"@{path}")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: invalid payload: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-paper", "--suite", "prop14", "--samples", "-3"),
        ("verify-paper", "--samples", "0"),
        ("oracle-selftest", "--samples", "-2"),
    ],
    ids=["verify-paper-negative", "verify-paper-zero", "oracle-selftest-negative"],
)
def test_samples_below_one_is_a_usage_error(capsys, argv):
    # a suite that sampled nothing must not report a pass
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"argument --samples: must be at least 1, got {argv[-1]}\n" in err
    code, out, err = run(capsys, argv[0], "--samples", "x")
    assert (code, out) == (1, "")
    assert "argument --samples: invalid positive_int value: 'x'\n" in err


def test_oracle_selftest_small(capsys):
    code, out, _ = run(capsys, "oracle-selftest", "--samples", "10")
    assert code == 0
    assert "kernel self-check" in out


def test_failing_report_exits_4(capsys):
    from metanil.cli import _emit_report
    from metanil.verify import SuiteReport

    rep = SuiteReport("synthetic")
    rep.add("a deliberately failing check", False, "for the exit-code contract")
    assert _emit_report(rep, False) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_engine_fault_exits_5(capsys, monkeypatch):
    # an off-by-one read-off trips the conjugator search's own check: an
    # internal error with its own exit code, not a traceback or a verdict
    import metanil.autos as autos
    from metanil.core import gen_element, mul

    read_off = autos._read_off

    def off_by_one(params, defects):
        return mul(gen_element(params, 0), read_off(params, defects))

    monkeypatch.setattr(autos, "_read_off", off_by_one)
    spec = '{"pairs": [{"u": "a b", "lambda": 1}]}'
    code, out, err = run(capsys, "is-inner", "--rank", "2", "--class", "3", spec)
    assert code == 5 and out == ""
    assert err.startswith("internal error: conjugator search")


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    import metanil.cli as cli

    def rebuilt():
        raise AssertionError("the parser is built once, at import")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    for _ in range(2):
        code, out, _ = run(capsys, "nf", "--rank", "2", "--class", "3", "(a b)^2")
        assert code == 0 and out.strip() == "a^2 b^2 [b,a] [b,a,b]"


def test_sampling_options_only_where_they_act(capsys):
    # the seven verbs that sample nothing reject --seed and --samples
    spec = '{"images": ["a", "b"]}'
    for verb, args in [
        ("nf", ["a"]),
        ("eq", ["a", "a"]),
        ("apply", [spec, "a"]),
        ("compose", [spec, spec]),
        ("invert", [spec]),
        ("is-inner", [spec]),
        ("synthesize", [spec]),
    ]:
        for flag in ("--seed", "--samples"):
            code, out, _ = run(capsys, verb, flag, "1", *args)
            assert code == 1 and out == "", (verb, flag)
    code, out, _ = run(capsys, "verify-paper", "--suite", "class2", "--seed", "2", "--samples", "3")
    assert code == 0 and "(3 maps)" in out
    code, out, _ = run(capsys, "oracle-selftest", "--seed", "2", "--samples", "3")
    assert code == 0 and "on 3 pairs" in out
