"""Spans around calls into metanil's layers, recorded from outside the package.

Each traced function is replaced, in every ``metanil`` module that binds it,
by a wrapper that opens a span on entry and closes it on exit.  Calls made
through those names -- from the CLI, from other modules, and from the
function's own module -- therefore pass through the wrapper.  Nothing under
``src/`` is edited; :meth:`Tracer.remove` puts the original objects back.

Self time is a span's duration minus the time covered by its child spans
(single-threaded, so children never overlap).  Every span adds to its
layer's totals.  Spans up to KEEP_DEPTH below the operation's root span, and
at most KEEP_MAX of them, are also kept in memory as (id, parent id,
operation, name, start, end), to be written out when the run ends; the rest
are only counted, since a run makes hundreds of thousands of ``core.mul``
calls.
"""

from __future__ import annotations

import sys
from time import perf_counter

TARGETS = {
    "cli": ("main",),
    "words": ("parse_word",),
    "core": ("collect", "mul", "inverse", "commutator"),
    "magnus": ("magnus_of_word",),
    "intsolve": ("integer_solve_explain", "smith_normal_form"),
    "autos": (
        "invert_ia",
        "compose_endo",
        "gen_inner_to_spec",
        "invert_gen_inner",
        "compose_gen_inner",
        "flatten",
    ),
    "normality": ("synthesize_gen_inner",),
}


def _syllables(args, result):
    return {"syllables_in": len(args[0].letters)}


def _parsed(args, result):
    return {"syllables_out": len(result.letters)}


def _system(args, result):
    a, b = args[0], args[1]
    return {
        "rows": len(a),
        "cols": len(a[0]) if a else 0,
        "nnz": sum(1 for row in a for v in row if v),
        "max_coef_bits": max(
            (abs(v).bit_length() for v in (*(v for row in a for v in row), *b)), default=0
        ),
        "infeasible": int(result[2] is not None),
    }


# counters measured on a layer's arguments or result, outside its span
COUNTERS = {
    "words.parse_word": _parsed,
    "core.collect": _syllables,
    "magnus.magnus_of_word": _syllables,
    "intsolve.integer_solve_explain": _system,
}
MAX_COUNTERS = {"max_coef_bits"}
KEEP_DEPTH = 3
KEEP_MAX = 200_000


class Layer:
    __slots__ = ("calls", "total_s", "self_s", "errors", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.layers = {f"{m}.{f}": Layer() for m, fs in TARGETS.items() for f in fs}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "metanil" or name.startswith("metanil.")
        }
        originals = {}
        for m, fs in TARGETS.items():
            for f in fs:
                originals[id(getattr(mods[f"metanil.{m}"], f))] = f"{m}.{f}"
        wrappers = {}
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                key = originals.get(id(val))
                if key is None:
                    continue
                if id(val) not in wrappers:
                    wrappers[id(val)] = self._wrap(key, val)
                self._patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[id(val)])

    def remove(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _open(self) -> list:
        self._next_id += 1
        frame = [0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        """Pop frame; keep the span if it is shallow enough and there is room."""
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += t1 - t0
        if len(stack) <= KEEP_DEPTH:
            if len(self.spans) < KEEP_MAX:
                pid = parent[1] if parent is not None else 0
                self.spans.append((frame[1], pid, self.op, name, t0, t1))
            else:
                self.spans_dropped += 1

    def _wrap(self, key: str, fn):
        layer = self.layers[key]
        counter = COUNTERS.get(key)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                layer.errors += 1
                raise
            finally:
                t1 = perf_counter()
                layer.calls += 1
                layer.total_s += t1 - t0
                layer.self_s += t1 - t0 - frame[0]
                self._close(key, frame, t0, t1)
            if counter is not None:
                # bookkeeping time is charged to no layer: it shows only in
                # the traced pass's wall time, i.e. in the overhead ratio
                c0 = perf_counter()
                counts = layer.counts
                for name, v in counter(args, result).items():
                    if name in MAX_COUNTERS:
                        counts[name] = max(counts.get(name, 0), v)
                    else:
                        counts[name] = counts.get(name, 0) + v
                if stack:
                    stack[-1][0] += perf_counter() - c0
            return result

        traced.__wrapped__ = fn
        return traced

    # -- operations --------------------------------------------------------------

    def run_op(self, index: int, fn, *args):
        """Run one operation under a root span; its layers' spans share its index."""
        self.op = index
        frame = self._open()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close("op", frame, t0, perf_counter())
