"""Exact stdout, stderr and exit code of documented CLI invocations.

`tests/cli_outputs.json` holds what each case printed when the corpus was
pinned. Argparse usage and help text is not pinned: for a usage error (exit
1 from the parser) only the exit code and the empty stdout are compared.
A case may feed stdin and may write payload files into its working
directory, which `@name` arguments then read. `run_case` needs no pytest
fixture, so the same function recorded the pinned outputs.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from metanil.cli import main

OUTPUTS = json.loads((Path(__file__).parent / "cli_outputs.json").read_text())
PINNED = {o["name"]: o for o in OUTPUTS}


def _pairs(d, k, *pairs):
    return json.dumps(
        {"rank": d, "class": k, "pairs": [{"u": u, "lambda": lam} for u, lam in pairs]}
    )


def _images(d, k, *images):
    return json.dumps({"rank": d, "class": k, "images": list(images)})


G23 = ["--rank", "2", "--class", "3"]
CONJ = _pairs(2, 3, ("a b", 1))
DATA = _pairs(2, 3, ("a", -2), ("a^2", 1))
IA = _images(2, 3, "a [a,b]", "b")
NOT_INNER = _images(2, 3, "a", "b [b,a,a]")
SWAP = _images(2, 3, "b", "a")
GEN34 = _pairs(3, 4, ("a b c", 2), ("b^-1 c", -1), ("a^2 [b,a]", 1))
REFUSE35 = _images(3, 5, "a [a,b]", "b", "c")
ELEMENT = json.dumps(
    {"rank": 2, "class": 3, "exp": [1, -1], "derived": [{"seq": [1, 0], "coef": 2}]}
)


def _case(name, argv, stdin=None, files=None, usage=False):
    return {"name": name, "argv": argv, "stdin": stdin, "files": files or {}, "usage": usage}


def _both(name, argv, **kw):
    """The text case and its --json twin."""
    return [_case(name, argv, **kw), _case(name + "-json", argv + ["--json"], **kw)]


CASES = [
    *_both("nf", ["nf", *G23, "(a b)^2"]),
    *_both("nf-3-4", ["nf", "--rank", "3", "--class", "4", "[a,b,c] a^-2 (b c)^3"]),
    *_both("nf-defaults", ["nf", "b a"]),
    _case("nf-rank-1-class-1", ["nf", "--rank", "1", "--class", "1", "a^3 a^-1"]),
    _case("nf-identity", ["nf", *G23, "a a^-1"]),
    _case("nf-parse-error", ["nf", *G23, "(a b"]),
    _case("nf-unknown-generator", ["nf", *G23, "c"]),
    _case("nf-rank-0", ["nf", "--rank", "0", "--class", "3", "a"]),
    _case("nf-deep-nesting", ["nf", *G23, "(" * 300 + "a" + ")" * 300]),
    *_both("eq-equal", ["eq", "--rank", "2", "--class", "2", "[b,a,a]", ""]),
    *_both("eq-not-equal", ["eq", *G23, "[b,a,a]", ""]),
    _case("eq-parse-error", ["eq", *G23, "a", "b)"]),
    *_both("apply-pairs", ["apply", *G23, CONJ, "a"]),
    *_both("apply-spec-element-json", ["apply", *G23, IA, ELEMENT]),
    *_both("apply-stdin-spec", ["apply", *G23, "-", "a b"], stdin=DATA),
    *_both("apply-stdin-element", ["apply", *G23, IA, "-"], stdin="b^2 a"),
    *_both(
        "apply-file-payloads",
        ["apply", *G23, "@spec.json", "@x.txt"],
        files={"spec.json": CONJ, "x.txt": ELEMENT},
    ),
    _case("apply-no-images-or-pairs", ["apply", *G23, '{"rank": 2}', "a"]),
    *_both("compose-pairs", ["compose", *G23, DATA, CONJ]),
    *_both("compose-mixed", ["compose", *G23, IA, DATA]),
    *_both("compose-specs", ["compose", *G23, IA, NOT_INNER]),
    *_both(
        "compose-files",
        ["compose", *G23, "@g.json", "@f.json"],
        files={"g.json": CONJ, "f.json": DATA},
    ),
    _case("compose-missing-file", ["compose", *G23, "@absent.json", DATA]),
    *_both("invert-pairs", ["invert", *G23, DATA]),
    *_both("invert-spec", ["invert", *G23, IA]),
    *_both("invert-stdin", ["invert", *G23, "-"], stdin=CONJ),
    _case("invert-not-ia", ["invert", *G23, SWAP]),
    _case("invert-float-lambda", ["invert", *G23, '{"pairs": [{"u": "a", "lambda": 1.5}]}']),
    _case("invert-string-lambda", ["invert", *G23, '{"pairs": [{"u": "a", "lambda": " 3 "}]}']),
    *_both("is-inner-no", ["is-inner", *G23, NOT_INNER]),
    *_both("is-inner-yes", ["is-inner", *G23, CONJ]),
    *_both("is-inner-stdin", ["is-inner", *G23, "-"], stdin=IA),
    _case("is-inner-not-ia", ["is-inner", *G23, SWAP]),
    *_both("synthesize-accept", ["synthesize", *G23, NOT_INNER]),
    *_both("synthesize-accept-3-4", ["synthesize", "--rank", "3", "--class", "4", GEN34]),
    *_both("synthesize-refuse", ["synthesize", REFUSE35]),
    *_both("synthesize-file", ["synthesize", "@spec.json"], files={"spec.json": REFUSE35}),
    *_both("synthesize-stdin", ["synthesize", *G23, "-"], stdin=IA),
    _case("synthesize-not-json", ["synthesize", *G23, "not json at all"]),
    _case("synthesize-not-object", ["synthesize", *G23, '["not", "an", "object"]']),
    _case("synthesize-missing-lambda", ["synthesize", *G23, '{"pairs": [{"u": "a"}]}']),
    _case(
        "synthesize-bad-exp",
        ["synthesize", *G23, '{"images": [{"rank": 2, "class": 3, "exp": ["x", 0]}, "b"]}'],
    ),
    _case(
        "synthesize-bool-coef",
        ["synthesize", *G23, '{"images": [{"rank": 2, "class": 3, "exp": [1, 0], '
         '"derived": [{"seq": [1, 0], "coef": true}]}, "b"]}'],
    ),
    _case(
        "synthesize-truncated-bracket",
        ["synthesize", "--rank", "2", "--class", "2", _images(2, 2, "a [b,a,a]", "b")],
    ),
    _case(
        "synthesize-not-basic",
        ["synthesize", *G23, '{"pairs": [{"u": {"rank": 2, "class": 3, "exp": [0, 0], '
         '"derived": [{"seq": [0, 1], "coef": 1}]}, "lambda": 1}]}'],
    ),
    _case("synthesize-missing-file", ["synthesize", "@absent.json"]),
    *_both("oracle-selftest", ["oracle-selftest", "--samples", "4", "--seed", "3"]),
    *_both("verify-paper-class2", ["verify-paper", "--suite", "class2", "--seed", "5", "--samples", "6"]),
    *_both("verify-paper-all", ["verify-paper", "--samples", "2", "--seed", "1"]),
    _case("usage-no-verb", [], usage=True),
    _case("usage-unknown-option", ["--bogus"], usage=True),
    _case("usage-unknown-verb", ["frobnicate", "a"], usage=True),
    _case("usage-missing-word", ["nf", *G23], usage=True),
    _case("usage-bad-rank", ["nf", "--rank", "two", "a"], usage=True),
    _case("usage-unknown-suite", ["verify-paper", "--suite", "nonsense"], usage=True),
    _case("usage-oracle-selftest-rank-class",
          ["oracle-selftest", "--rank", "12", "--class", "8"], usage=True),
    _case("usage-verify-paper-rank-class",
          ["verify-paper", "--suite", "class2", "--rank", "3", "--class", "4"], usage=True),
]


def run_case(case, workdir):
    """Run one case in `workdir`; returns (exit code, stdout, stderr)."""
    for name, text in case["files"].items():
        (Path(workdir) / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    stdin = sys.stdin
    os.chdir(workdir)
    sys.stdin = io.StringIO(case["stdin"] or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case["argv"]))
    finally:
        os.chdir(cwd)
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def test_corpus_is_pinned_case_for_case():
    assert [c["name"] for c in CASES] == [o["name"] for o in OUTPUTS]


def test_corpus_covers_every_verb_and_exit_code():
    verbs = {c["argv"][0] for c in CASES if c["argv"] and not c["usage"]}
    assert verbs == {
        "nf", "eq", "apply", "compose", "invert", "is-inner", "synthesize",
        "oracle-selftest", "verify-paper",
    }
    assert {o["code"] for o in OUTPUTS} == {0, 1, 2, 3}
    assert any(c["stdin"] for c in CASES) and any(c["files"] for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_is_pinned(case, tmp_path):
    pinned = PINNED[case["name"]]
    code, out, err = run_case(case, tmp_path)
    assert code == pinned["code"]
    assert out == pinned["stdout"]
    if not case["usage"]:
        assert err == pinned["stderr"]
