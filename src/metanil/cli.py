"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse error (word text or JSON),
3 domain error (also a result too large to print), 4 verification failure,
5 internal error (a bug: an engine self-check failed, or another exception).
Specs and data are passed as JSON, and apply's element as a word or element
JSON: inline, as @path, or as '-' for stdin.  Every JSON text goes through
one decoder, so a malformed or too deeply nested one is a parse error (exit
2).  A payload that names rank or class must name both and overrides
--rank/--class; one that names neither takes them.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .autos import (
    GenInnerData,
    apply_endo,
    apply_gen_inner,
    compose_endo,
    compose_gen_inner,
    gen_inner_from_json,
    gen_inner_to_json,
    gen_inner_to_spec,
    invert_gen_inner,
    invert_ia,
    is_inner,
    spec_from_json,
    spec_to_json,
)
from .core import collect_text, element_from_json, element_to_json, text_state
from .normality import NotGeneralizedInner, synthesize_gen_inner
from .verify import SUITES, CliConfig, oracle_selftest, verify_paper
from .words import DomainError, EngineFault, GroupParams, ParseError, PayloadError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _payload(arg: str | None) -> str:
    if arg is None or arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as fh:
            return fh.read()
    return arg


def _load_json(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", 0) from None
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise PayloadError(str(exc)) from None
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", 0)
    return obj


def _load_map(arg: str | None, params: GroupParams):
    """An automorphism payload: AutoSpec ('images') or pair data ('pairs')."""
    obj = _load_json(_payload(arg))
    if "images" in obj:
        return spec_from_json(obj, params)
    if "pairs" in obj:
        return gen_inner_from_json(obj, params)
    raise ParseError("payload must contain 'images' or 'pairs'", 0)


def _as_spec(mapping):
    return gen_inner_to_spec(mapping) if isinstance(mapping, GenInnerData) else mapping


def _print(render, *args, **kwargs) -> None:
    """Print render(*args, **kwargs), the text of every verb's result."""
    try:
        text = render(*args, **kwargs)
    except ValueError:  # an int past sys.get_int_max_str_digits() has no text
        raise DomainError(f"the result holds an integer of more than {sys.get_int_max_str_digits()}"
                          " digits, Python's int-to-string limit") from None
    print(text)


def _print_element(x, as_json: bool) -> None:
    if as_json:
        _print(json.dumps, element_to_json(x))
    else:
        _print(str, x)


def _emit_report(rep, as_json: bool) -> int:
    if as_json:
        _print(json.dumps, rep.to_json(), indent=2)
    else:
        _print("\n".join, rep.lines())
    return EXIT_OK if rep.ok else EXIT_VERIFY


def _nf(args, params):
    _print_element(collect_text(args.word, params), args.json)


def _eq(args, params):
    same = text_state(args.word1, params) == text_state(args.word2, params)
    if args.json:
        _print(json.dumps, {"equal": same})
    else:
        _print(str, "equal" if same else "not equal")


def _apply(args, params):
    mapping = _load_map(args.spec, params)
    text = _payload(args.element).strip()
    x = element_from_json(_load_json(text) if text.startswith("{") else text, params)
    apply = apply_gen_inner if isinstance(mapping, GenInnerData) else apply_endo
    _print_element(apply(mapping, x), args.json)


def _compose(args, params):
    g = _load_map(args.spec_g, params)
    f = _load_map(args.spec_f, params)
    if isinstance(g, GenInnerData) and isinstance(f, GenInnerData):
        _print(json.dumps, gen_inner_to_json(compose_gen_inner(g, f)))
    else:
        _print(json.dumps, spec_to_json(compose_endo(_as_spec(g), _as_spec(f))))


def _invert(args, params):
    mapping = _load_map(args.spec, params)
    if isinstance(mapping, GenInnerData):
        _print(json.dumps, gen_inner_to_json(invert_gen_inner(mapping)))
    else:
        _print(json.dumps, spec_to_json(invert_ia(mapping)))


def _is_inner(args, params):
    u = is_inner(_as_spec(_load_map(args.spec, params)))
    if args.json:
        conj = None if u is None else element_to_json(u)
        _print(json.dumps, {"inner": u is not None, "conjugator": conj})
    else:
        _print(lambda: "not inner" if u is None else f"inner: conjugation by {u}")


def _synthesize(args, params):
    res = synthesize_gen_inner(_as_spec(_load_map(args.spec, params)))
    refused = isinstance(res, NotGeneralizedInner)
    if args.json:
        _print(json.dumps, res.to_json() if refused else gen_inner_to_json(res))
    elif refused:
        _print(str, "not generalized inner: witness generator "
               f"{res.witness_generator}, layer {res.layer}")
    else:
        _print(lambda: "generalized inner: ["
               + ", ".join(f"({u}; {lam})" for u, lam in res.pairs) + "]")


def _oracle_selftest(args, params):
    cfg = CliConfig(seed=args.seed, samples=args.samples)
    return _emit_report(oracle_selftest(cfg), args.json)


def _verify_paper(args, params):
    cfg = CliConfig(seed=args.seed, samples=args.samples)
    if args.suite != "all":
        return _emit_report(verify_paper(args.suite, cfg), args.json)
    reports = [verify_paper(name, cfg) for name in sorted(SUITES)]
    if args.json:
        _print(json.dumps, [r.to_json() for r in reports], indent=2)
    else:
        _print("\n".join, [line for rep in reports for line in rep.lines()])
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY


def positive_int(text: str) -> int:
    """--samples: at least 1, since a suite that sampled nothing must not pass."""
    if (n := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


_PAYLOAD = "JSON payload (inline, @file or -)"
_ARG_HELP = {"spec": _PAYLOAD, "spec_g": _PAYLOAD, "spec_f": _PAYLOAD,
             "element": "word or element JSON"}
_GROUP = (("--rank", dict(type=int, default=2, help="number of generators")),
          ("--class", dict(dest="nilclass", type=int, default=3, help="nilpotency class")))
_SAMPLING = (("--seed", dict(type=int, default=0)),
             ("--samples", dict(type=positive_int, default=None)))
_SUITE = ("--suite", dict(choices=sorted(SUITES) + ["all"], default="all"))

# verb -> (help, positional arguments, handler, options beyond --json); a
# handler gets the group of --rank/--class (None for a verb without them),
# prints its result and returns an exit code, or None for success
VERBS = {
    "nf": ("canonical form of a word", ("word",), _nf, _GROUP),
    "eq": ("decide equality of two words in the group", ("word1", "word2"), _eq, _GROUP),
    "apply": ("apply an automorphism payload to an element", ("spec", "element"),
              _apply, _GROUP),
    "compose": ("compose two automorphism payloads (g o f); prints JSON",
                ("spec_g", "spec_f"), _compose, _GROUP),
    "invert": ("invert an IA spec or pair data; prints JSON", ("spec",), _invert, _GROUP),
    "is-inner": ("decide whether an IA spec is a conjugation", ("spec",),
                 _is_inner, _GROUP),
    "synthesize": ("decide generalized-inner-ness and synthesize witness data",
                   ("spec",), _synthesize, _GROUP),
    "oracle-selftest": ("kernel audit and oracle agreement", (), _oracle_selftest,
                        _SAMPLING),
    "verify-paper": ("run a pinned verification suite", (), _verify_paper,
                     _SAMPLING + (_SUITE,)),
}


def build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="metanil", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, handler, options) in VERBS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        for arg in positionals:
            p.add_argument(arg, help=_ARG_HELP.get(arg))
        p.set_defaults(handler=handler)
    return top


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = GroupParams(args.rank, args.nilclass) if "rank" in args else None
        return args.handler(args, params) or EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (PayloadError, UnicodeDecodeError) as exc:  # or a payload that is not UTF-8
        print(f"parse error: invalid payload: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EngineFault as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug in metanil, never a verdict on the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
