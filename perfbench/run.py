"""metanil benchmark: one seeded workload per process, closed loop, one client.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each in its own process

With ``--trace 0`` the run reports the end-to-end metrics: set-up time from
fresh probe processes, then a timed pass that sends operations one after
another until ``--seconds`` have passed.  With ``--trace 1`` it reports the
per-layer metrics instead: the same fixed list of operations runs once
untraced and once traced, from the same cold cache state.  Outputs are
checked after timing; the last line of stdout is the JSON result, and a
wrong or unverifiable output makes the exit code 1.

Times are scaled to a fixed machine speed, read from a reference slice of
plain interpreter work timed between operations (see Pass).  On a shared
vCPU the raw speed drifts by 20% or more from minute to minute, which would
swamp any regression bound; the unscaled figures are printed alongside.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
POOL_FACTOR = 2
TRACE_SHARE = 0.4
PROBE_TIMEOUT_S = 120
# reference slice time (ms) at the machine speed that scaled times refer to
REF_MS = 8.0
REF_EVERY_S = 0.05


def import_engine() -> None:
    """Import metanil from this checkout's sources, or exit without a result."""
    if not (SRC / "metanil" / "__init__.py").is_file():
        sys.exit(f"perfbench: no metanil sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import metanil

    if Path(metanil.__file__).resolve().parent != (SRC / "metanil").resolve():
        sys.exit(f"perfbench: imported metanil from {metanil.__file__}, not {SRC}")


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# --- inputs --------------------------------------------------------------------


def make_cases(wl, seed, count: int, avoid=()) -> list[dict]:
    """The first `count` distinct cases of the workload's stream for `seed`."""
    rng = random.Random(f"perfbench/{wl.name}/{seed}")
    seen = {json.dumps(case, sort_keys=True) for case in avoid}
    out: list[dict] = []
    repeats = 0
    while len(out) < count:
        case = wl.case(rng, len(out))
        key = json.dumps(case, sort_keys=True)
        if key in seen:
            repeats += 1
            if repeats > 1000:
                raise RuntimeError(f"{wl.name}: too few distinct cases for a pool of {count}")
            continue
        repeats = 0
        seen.add(key)
        out.append(case)
    return out


def warmup_cases(wl) -> list[dict]:
    """One fixed case per shape, the same for every seed."""
    return make_cases(wl, "warmup", len(wl.shapes))


def digest(cases: list[dict]) -> str:
    return hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()[:16]


def _round_up(n: float, step: int) -> int:
    return max(step, math.ceil(n / step) * step)


# --- engine state --------------------------------------------------------------


def engine_caches() -> dict:
    """Every lru_cache defined in a metanil module, by module-relative name."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("metanil."):
            continue
        for attr, val in vars(mod).items():
            if hasattr(val, "cache_info") and getattr(val, "__module__", None) == name:
                found[f"{name[len('metanil.'):]}.{attr}"] = val
    return found


def append_cache_entries() -> int:
    from metanil import core

    return len(getattr(core, "_APPEND_CACHE", ()))


def reset_engine(caches: dict) -> None:
    from metanil import core

    for fn in caches.values():
        fn.cache_clear()
    getattr(core, "_APPEND_CACHE", {}).clear()


def cache_snapshot(caches: dict) -> dict:
    return {name: fn.cache_info() for name, fn in caches.items()}


def cache_delta(before: dict, after: dict) -> dict:
    return {
        name: {
            "hits": info.hits - before[name].hits,
            "misses": info.misses - before[name].misses,
            "currsize": info.currsize,
        }
        for name, info in after.items()
    }


# --- passes ----------------------------------------------------------------------


def reference_ms() -> float:
    """Milliseconds for a fixed slice of interpreter work owned by the benchmark.

    The engine's own speed cannot serve as the yardstick, since changing it
    is what the benchmark must see.  The slice mixes integer arithmetic with
    tuple-keyed dict updates, the engine's staple operations.
    """
    t0 = perf_counter()
    s = 0
    for i in range(60_000):
        s += (i * i) % 7
    acc: dict = {}
    for i in range(12_000):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + i * 3
    return (perf_counter() - t0) * 1e3


class Pass:
    """One closed-loop pass: per-op latencies and outputs, plus reference marks.

    A reference slice is timed before the first op, after any op that ends
    at least REF_EVERY_S after the previous slice, and after the last op.
    Each op's latency is scaled by REF_MS over the mean of the slices just
    before and just after it, so a latency reads as it would at the machine
    speed where the slice takes REF_MS.
    """

    def __init__(self):
        self.ops: list[tuple[float, dict, int, tuple]] = []  # (s, parts, mark before, shape)
        self.outputs: list[tuple[dict, object]] = []
        self.errors: list[str] = []
        self.marks: list[float] = []
        self.attempted = 0
        self.elapsed = 0.0

    def scale(self, mark: int) -> float:
        return REF_MS / ((self.marks[mark] + self.marks[mark + 1]) / 2)

    def latencies_ms(self, scaled: bool = True) -> list[float]:
        return [t * 1e3 * (self.scale(m) if scaled else 1.0) for t, _, m, _ in self.ops]

    def by_shape(self, part: str | None = None) -> dict[tuple, list[float]]:
        """Scaled latencies in ms of whole ops, or of one part, grouped by shape."""
        out: dict[tuple, list[float]] = {}
        for t, parts, m, shape in self.ops:
            if part is None or part in parts:
                t = t if part is None else parts[part]
                out.setdefault(shape, []).append(t * 1e3 * self.scale(m))
        return out


def balanced_median(groups: dict[tuple, list[float]]) -> float:
    """Geometric mean over shapes of each shape's median latency.

    Shapes differ in cost by a factor of two or more, so the plain median of
    a mixed pass falls between their modes and jumps with the mix.
    """
    meds = [statistics.median(v) for v in groups.values() if v]
    return math.prod(meds) ** (1 / len(meds)) if meds else 0.0


def run_pass(wl, pool, *, seconds=None, count=None, tracer=None) -> Pass:
    res = Pass()
    res.marks.append(reference_ms())
    last_mark = start = perf_counter()
    i = 0
    while (count is None and perf_counter() - start < seconds) or (
        count is not None and i < count
    ):
        case = pool[i % len(pool)]
        t0 = perf_counter()
        try:
            if tracer is None:
                out, parts = wl.run(case)
            else:
                out, parts = tracer.run_op(i, wl.run, case)
        except Exception as exc:  # an operation that raises counts as failed
            res.errors.append(f"op {i}: {exc!r}")
        else:
            res.ops.append((perf_counter() - t0, parts, len(res.marks) - 1, tuple(case["shape"])))
            res.outputs.append((case, out))
        i += 1
        if perf_counter() - last_mark >= REF_EVERY_S:
            res.marks.append(reference_ms())
            last_mark = perf_counter()
    res.marks.append(reference_ms())
    res.elapsed = perf_counter() - start
    res.attempted = i
    return res


def peak_rss() -> float:
    """High-water resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_outputs(wl, res: Pass) -> list[str]:
    bad = list(res.errors)
    for case, out in res.outputs:
        try:
            wl.check(case, out)
        except Exception as exc:
            bad.append(f"check: {exc!r}")
    return bad


def percentile(values: list[float], pct: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


# --- set-up probes -----------------------------------------------------------------


def probe_main(workload: str) -> int:
    """Child side of a set-up probe: import, warm up, report ready."""
    import_engine()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    for case in json.loads(sys.stdin.read()):
        wl.run(case)
    print("ready", flush=True)
    return 0


def measure_setup(wl, warm: list[dict]) -> list[float]:
    """Seconds from process start to import plus one cold op per shape.

    Scaled like op latencies, by reference slices timed just before and
    just after each probe.
    """
    payload = json.dumps(warm)
    times = []
    for _ in range(SETUP_REPEATS):
        ref_before = reference_ms()
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", wl.name],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append((t1 - t0) * REF_MS / ((ref_before + reference_ms()) / 2))
    return times


# --- reporting ---------------------------------------------------------------------


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def emit(detail: dict, correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    OUT.mkdir(exist_ok=True)
    stem = f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}"
    spans = detail.pop("spans", None)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start_s", "end_s"]) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    for line in detail["lines"]:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        ),
        flush=True,
    )


def shape_note(groups: dict[tuple, list[float]]) -> str:
    return ", ".join(
        f"({d},{k}) {statistics.median(v):.2f} n={len(v)}" for (d, k), v in groups.items()
    )


def end_to_end(wl, seed, seconds: float, units: dict) -> int:
    clock = [perf_counter()]

    def lap() -> float:
        clock.append(perf_counter())
        return clock[-1] - clock[-2]

    warm = warmup_cases(wl)
    setup = measure_setup(wl, warm)
    phases = {"probes": lap()}
    pool = make_cases(wl, seed, _round_up(wl.rate * seconds * POOL_FACTOR, wl.cycle), warm)
    phases["generate"] = lap()
    caches = engine_caches()
    reset_engine(caches)
    for case in warm:
        wl.run(case)
    phases["warmup"] = lap()
    before = cache_snapshot(caches)
    rss_before_mb = peak_rss()
    res = run_pass(wl, pool, seconds=seconds)
    peak_rss_mb = peak_rss()
    deltas = cache_delta(before, cache_snapshot(caches))
    phases["timed"] = lap()
    bad = check_outputs(wl, res)
    phases["check"] = lap()

    lat = res.latencies_ms()
    a, b = (res.by_shape(p) for p in wl.parts)
    tail = percentile(lat, wl.tail_pct) if lat else 0.0
    metrics = {
        "ops_per_s": len(lat) / (sum(lat) / 1e3) if lat else 0.0,
        "op_p50_ms": balanced_median(res.by_shape()),
        "op_tail_ms": tail,
        "op_a_p50_ms": balanced_median(a),
        "op_b_p50_ms": balanced_median(b),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = res.latencies_ms(scaled=False)
    notes = {
        "ops_per_s": f"n={len(lat)}; unscaled {len(raw) / res.elapsed:.4f} over {res.elapsed:.2f} s wall",
        "op_p50_ms": f"per shape {shape_note(res.by_shape())}",
        "op_tail_ms": f"p{wl.tail_pct}, {sum(t > tail for t in lat)} samples beyond",
        "op_a_p50_ms": f"{wl.parts[0]}_p50_ms, per shape {shape_note(a)}",
        "op_b_p50_ms": f"{wl.parts[1]}_p50_ms, per shape {shape_note(b)}",
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup),
        "peak_rss_mb": f"ru_maxrss of the measuring process; {rss_before_mb:.1f} before the timed pass",
    }
    failed = len(bad)
    lines = header(wl, seed, seconds, 0, pool, res)
    for name, v in metrics.items():
        lines.append(f"  {name:<14} {v:12.4f} {units[name]:<5} {notes[name]}")
    lines.append(f"  {'fail_frac':<14} {failed / max(res.attempted, 1):12.4f} {'':<5} {failed}/{res.attempted}")
    lines.append(
        f"  reference slice median {statistics.median(res.marks):.3f} ms "
        f"(min {min(res.marks):.3f}, {len(res.marks)} slices; times scaled to {REF_MS} ms)"
    )
    lines.append("  phases " + ", ".join(f"{k} {v:.2f} s" for k, v in phases.items()))
    lines += [f"  fail: {msg}" for msg in bad[:10]]
    detail = {
        "workload": wl.name,
        "seed": seed,
        "trace": 0,
        "phases_s": phases,
        "digest": digest(pool),
        "warmup_digest": digest(warm),
        "machine": machine(),
        "metrics": metrics,
        "notes": notes,
        "fail_frac": failed / max(res.attempted, 1),
        "failures": bad,
        "caches": deltas,
        "append_cache_entries": append_cache_entries(),
        "reference_ms": res.marks,
        "latency_ms": lat,
        "lines": lines,
    }
    emit(detail, not bad, max(res.attempted, 1), failed, metrics, units)
    return 0 if not bad else 1


def header(wl, seed, seconds, trace, pool, res) -> list[str]:
    m = machine()
    return [
        f"perfbench {wl.name} seed={seed} seconds={seconds} trace={trace} "
        f"digest={digest(pool)} pool={len(pool)} attempted={res.attempted}",
        f"  machine {m['platform']}, {m['cpus']} cpus ({m['usable_cpus']} usable), {m['python']}",
    ]


def per_layer(wl, seed, seconds: float, units: dict) -> int:
    from tracing import TARGETS, Tracer

    warm = warmup_cases(wl)
    n = _round_up(wl.rate * seconds * TRACE_SHARE, wl.cycle)
    pool = make_cases(wl, seed, n, warm)
    caches = engine_caches()

    reset_engine(caches)
    for case in warm:
        wl.run(case)
    plain = run_pass(wl, pool, count=n)

    reset_engine(caches)
    for case in warm:
        wl.run(case)
    tracer = Tracer()
    before = cache_snapshot(caches)
    tracer.install()
    try:
        traced = run_pass(wl, pool, count=n, tracer=tracer)
    finally:
        tracer.remove()
    deltas = cache_delta(before, cache_snapshot(caches))
    bad = check_outputs(wl, plain) + check_outputs(wl, traced)

    metrics = {}
    for key, layer in tracer.layers.items():
        metrics[f"{key}.calls"] = layer.calls
        metrics[f"{key}.self_s"] = layer.self_s
    counts = tracer.layers
    metrics["words.parse_word.syllables_out"] = counts["words.parse_word"].counts.get("syllables_out", 0)
    metrics["core.collect.syllables_in"] = counts["core.collect"].counts.get("syllables_in", 0)
    metrics["magnus.magnus_of_word.syllables_in"] = counts["magnus.magnus_of_word"].counts.get("syllables_in", 0)
    solve = counts["intsolve.integer_solve_explain"].counts
    metrics["intsolve.integer_solve_explain.infeasible"] = solve.get("infeasible", 0)
    for field in ("rows", "cols", "nnz", "max_coef_bits"):
        metrics[f"intsolve.system.{field}"] = solve.get(field, 0)
    for mod, fns in TARGETS.items():
        metrics[f"{mod}.errors"] = sum(tracer.layers[f"{mod}.{f}"].errors for f in fns)
    # a declared cache that is gone reads 0, with a warning so it is not taken as a cold cache
    warnings = []
    for name in units:
        cache, _, field = name.rpartition(".")
        if field not in ("hit_ratio", "currsize"):
            continue
        d = deltas.get(cache)
        if d is None:
            warnings.append(f"{name}: metanil has no lru_cache {cache}; reported as 0")
            metrics[name] = 0
        elif field == "hit_ratio":
            metrics[name] = d["hits"] / max(d["hits"] + d["misses"], 1)
        else:
            metrics[name] = d["currsize"]
    metrics["core.append_cache.entries"] = append_cache_entries()
    metrics["trace.ops"] = traced.attempted
    metrics["trace.overhead_ratio"] = sum(plain.latencies_ms()) / sum(traced.latencies_ms())

    failed = len(bad)
    attempted = plain.attempted + traced.attempted
    lines = header(wl, seed, seconds, 1, pool, traced)
    lines.append(
        f"  untraced {plain.elapsed:.3f} s, traced {traced.elapsed:.3f} s for {n} ops each; "
        f"{len(tracer.spans)} spans kept, {tracer.spans_dropped} dropped"
    )
    for name in units:
        lines.append(f"  {name:<44} {metrics.get(name, float('nan')):14.6g} {units[name]}")
    lines += [f"  warn: {msg}" for msg in warnings]
    lines += [f"  fail: {msg}" for msg in bad[:10]]
    for msg in warnings:
        print(f"perfbench: warning: {msg}", file=sys.stderr)
    detail = {
        "workload": wl.name,
        "seed": seed,
        "trace": 1,
        "warnings": warnings,
        "digest": digest(pool),
        "machine": machine(),
        "metrics": metrics,
        "failures": bad,
        "caches": deltas,
        "layers_total_s": {k: layer.total_s for k, layer in tracer.layers.items()},
        "lines": lines,
        "spans": tracer.spans,
    }
    emit(detail, not bad, attempted, failed, metrics, units)
    return 0 if not bad else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
        )
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return probe_main(args.workload)
    import_engine()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    e2e_units, layer_units = declared_metrics()
    wl = WORKLOADS[args.workload]
    if args.trace:
        return per_layer(wl, args.seed, args.seconds, layer_units)
    return end_to_end(wl, args.seed, args.seconds, e2e_units)


if __name__ == "__main__":
    sys.exit(main())
