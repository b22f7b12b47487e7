import json


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


def test_exit_codes(capsys):
    code, _, err = run(capsys, "nf", "--rank", "2", "--class", "3", "(a b")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "nf", "--rank", "0", "--class", "3", "a")
    assert code == 3 and "domain error" in err
    code, _, err = run(capsys, "nf", "--rank", "2", "--class", "3", "c")
    assert code == 2
    code, _, err = run(capsys, "--bogus")
    assert code == 1


def test_nesting_limit(capsys):
    # deep nesting is a domain error (exit 3), raised before the recursive
    # parser can overflow the interpreter stack
    deep = "(" * 3000 + "a" + ")" * 3000
    code, _, err = run(capsys, "nf", "--rank", "2", "--class", "3", deep)
    assert code == 3 and "nesting" in err
    ok = "(" * 200 + "a" + ")" * 200
    code, out, _ = run(capsys, "nf", "--rank", "2", "--class", "3", ok)
    assert code == 0 and out.strip() == "a"


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
