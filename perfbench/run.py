"""Benchmark for sturmia: four workloads, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With --trace 0 it runs fresh-process
passes over the workload's fixed operation list (how many depends on
--seconds and the workload, never on how fast the code runs) and prints
the end-to-end metrics, with every timing scaled to the reference
machine's quiet speed by the worker's speed probe; with --trace 1 it runs
plain and traced passes alternately, twice each, then one memory-probed
pass, and prints the per-layer metrics (not speed-adjusted).  Every output is checked; the last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}.  README.md beside this file says why each workload exists.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Seconds of run time each workload's plain pass costs at the seed commit:
# the pass, its set-up samples and its share of the checks, rounded so that
# a 25-second run of every workload fits the benchmark's time budget.  A run
# makes round(--seconds / PASS_SECONDS) passes, so code under test that runs
# faster or slower gets the same number of passes and every side of a
# comparison uses the same estimator.
PASS_SECONDS = {"verify": 6.5, "deep": 3.6, "long-words": 2.5, "cli-mix": 6.0}
SETUP_PER_PASS = 1
# Seconds the worker's speed probe takes on the reference machine (a 2-vCPU
# KVM guest on a 2.0 GHz Xeon, Python 3.11) in a quiet spell.  Every timing
# is scaled by this over the probe time seen while it was taken, so it
# reads as seconds at that speed; README.md says why.
REFERENCE_PROBE_S = 0.0024
SETUP_SAMPLES = 15
TRACE_PAIRS = 2
WORKER_TIMEOUT_S = 150
# The measured process sees only this environment: no PYTHONPATH, no locale
# variables (argparse's message lookup costs more under some locales), a
# fixed hash seed (set and dict layouts, hence timings, repeat from pass to
# pass) and the default digit depth pinned for any CLI call without --depth.
WORKER_ENV = {"PYTHONHASHSEED": "0", "STURMIA_DEPTH": "24"}

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, mode: str, plan: dict) -> dict:
    """One fresh worker process; returns its parsed result."""
    request = {"workload": workload, "mode": mode, "pool": plan["pool"],
               "ops": [] if mode == "setup" else plan["ops"]}
    env = dict(WORKER_ENV, PATH=os.environ.get("PATH", ""))
    try:
        proc = subprocess.run(
            [sys.executable, "-S", str(HERE / "worker.py")],
            input=json.dumps(request), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, env=env, cwd=str(ROOT),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def failures(checker, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first reasons) over every operation of every pass."""
    attempted = failed = 0
    reasons = []
    for result in passes:
        for index, obs in enumerate(result["observations"]):
            attempted += 1
            reason = checker.failure(index, obs)
            if reason:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"op {index} ({checker.plan['ops'][index]['kind']}): {reason}")
    return attempted, failed, reasons


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it.  Below 100 samples that percentile is not a
    tail, so the slowest operation is reported instead."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def speed_scale(probe_times: list[float]) -> float:
    """Reference probe time over the median probe time seen: how much faster
    the reference machine ran than this process did."""
    return REFERENCE_PROBE_S / statistics.median(probe_times)


def adjusted(result: dict) -> list[float]:
    """A pass's operation times at reference speed.  Each is scaled by the
    two probes that bracket it: the last one before it and the first one
    after it."""
    taken_before = [index for index, _ in result["probes"]]
    seconds = [probe for _, probe in result["probes"]]
    times = []
    for index, duration in enumerate(result["durations"]):
        after = bisect.bisect_right(taken_before, index)
        times.append(duration * speed_scale(seconds[after - 1:after + 1]))
    return times


def fast_half(passes: list[list[float]]) -> list[float]:
    """Each operation's time: the mean of its faster half over the passes.

    Every pass runs the same operations from the same cold start, so an
    operation's time differs between passes only by interference, which
    only ever adds time.  Dropping the slower half discards passes hit by
    it; averaging the rest is steadier than the single fastest pass, an
    extreme of a few noisy samples (in ten-seed batches it halved the
    spread of op_p50_ms on verify and deep; README.md has the figures).
    """
    times = []
    for samples in zip(*passes):
        fastest = sorted(samples)[: max(1, len(samples) // 2)]
        times.append(sum(fastest) / len(fastest))
    return times


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the per-operation best times, plus notes
    that give each timing also as measured, before the speed adjustment."""
    best = fast_half([adjusted(p) for p in passes])
    raw = fast_half([p["durations"] for p in passes])
    tail_value, percentile, beyond = tail(best)
    setup_times = [s["setup_s"] * speed_scale(s["setup_probes"]) for s in setups]
    values = {
        "wall_s": sum(best),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup_times),
    }
    notes = {
        "wall_s": f"{len(best)} operations, each the mean of its faster half of {len(passes)} "
                  f"fresh-process passes; "
                  f"as measured {sum(raw):.6g}",
        "op_p50_ms": f"as measured {1e3 * statistics.median(raw):.6g}",
        "op_tail_ms": f"p{percentile:.1f}, {beyond} samples beyond, {len(best)} samples; "
                      f"as measured {1e3 * tail(raw)[0]:.6g}",
        "peak_rss_mb": f"median of {len(passes)} passes",
        "setup_s": f"median of {len(setups)} fresh imports; "
                   f"as measured {statistics.median(s['setup_s'] for s in setups):.6g}",
    }
    return values, notes


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def measure(workload: str, plan: dict, seconds: float) -> tuple[list[dict], list[dict]]:
    """pass_count() fresh-process passes, with set-up-only processes between
    them (so set-up is sampled across the run) and at the end, until
    SETUP_SAMPLES imports were timed."""
    passes, setups = [], []
    for _ in range(pass_count(workload, seconds)):
        passes.append(spawn(workload, "plain", plan))
        setups.append(passes[-1])
        for _ in range(SETUP_PER_PASS):
            setups.append(spawn(workload, "setup", plan))
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, "setup", plan))
    return passes, setups


PER_LAYER_EXTRA = (
    ("slope.continuants.calls", "count"),
    ("slope.rows_cache.hit_ratio", "1"),
    ("ostrowski.validate.calls", "count"),
    ("words.letters", "letters"),
    ("words.prefix_cache.hit_ratio", "1"),
    ("words.standard_word_cache.hit_ratio", "1"),
    ("repetition.direct.letters", "letters"),
    ("repetition.peak_alloc_mb", "MB"),
    ("rauzy.peak_alloc_mb", "MB"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("bench.self_s", "s"),
)


def per_layer(plains: list[dict], traces: list[dict], traced: dict, memory: dict) -> dict:
    """Per-layer metrics.  Counts and self times come from `traced` (the
    fastest traced pass), peaks from the memory-probed pass; the overhead
    compares per-operation fast-half times of the traced and the plain
    passes, which ran alternately, at reference speed: the two kinds of
    pass can meet different machine speeds."""
    from tracer import LAYERS, cache_ratio

    first, last = traced["layers"]["first"], traced["layers"]["last"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = last["calls"][layer] - first["calls"][layer]
        metrics[f"{layer}.self_s"] = last["self_s"][layer] - first["self_s"][layer]

    def fn(name):
        return last["functions"].get(name, 0) - first["functions"].get(name, 0)

    def cache(name):
        return cache_ratio(first["caches"][name], last["caches"][name])

    wall = sum(traced["durations"])
    metrics.update({
        "slope.continuants.calls": fn("slope.continuants"),
        "slope.rows_cache.hit_ratio": cache("slope.rows"),
        "ostrowski.validate.calls": fn("ostrowski.validate"),
        "words.letters": last["letters"]["words"] - first["letters"]["words"],
        "words.prefix_cache.hit_ratio": cache("words.prefix"),
        "words.standard_word_cache.hit_ratio": cache("words.standard_word"),
        "repetition.direct.letters": last["letters"]["repetition.direct"] - first["letters"]["repetition.direct"],
        "repetition.peak_alloc_mb": memory["peak_alloc_bytes"]["repetition"] / 2**20,
        "rauzy.peak_alloc_mb": memory["peak_alloc_bytes"]["rauzy"] / 2**20,
        "trace.wall_s": wall,
        "trace.overhead_s": sum(fast_half([adjusted(p) for p in traces]))
        - sum(fast_half([adjusted(p) for p in plains])),
        "bench.self_s": wall - (last["inside_s"] - first["inside_s"]),
    })
    return metrics


def per_layer_units() -> dict:
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(PER_LAYER_EXTRA)
    return units


def metadata(workload: str, seed: int, trace: int) -> str:
    sources = hashlib.sha256()
    for path in sorted((SRC / "sturmia").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return (f"# perfbench workload={workload} seed={seed} trace={trace} "
            f"python={platform.python_version()} nproc={cpus} commit={_commit()} "
            f"src_sha256={sources.hexdigest()[:16]}")


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "none"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()[:12]
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line[:12]
            return "none"
        return head[:12]
    except OSError:
        return "none"


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Generate, measure, check and print; returns the final JSON object."""
    import workloads

    plan = workloads.generate(workload, seed, scale)
    workloads.prepare(plan)
    checker = workloads.Checker(plan)
    print(metadata(workload, seed, int(trace)))
    if trace:
        plains, traces = [], []
        for _ in range(TRACE_PAIRS):
            plains.append(spawn(workload, "plain", plan))
            traces.append(spawn(workload, "trace", plan))
        memory = spawn(workload, "memory", plan)
        passes = plains + traces + [memory]
        fastest = min(traces, key=lambda p: sum(p["durations"]))
        metrics, units, notes = per_layer(plains, traces, fastest, memory), per_layer_units(), {}
        _write_trace(workload, seed, metrics, fastest)
    else:
        passes, setups = measure(workload, plan, seconds)
        metrics, notes = end_to_end(passes, setups)
        units = END_TO_END_UNITS
    attempted, failed, reasons = failures(checker, passes)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value} {units[name]}{note}")
    print(f"failed_ratio {failed / attempted} 1  ({failed} of {attempted} operations)")
    for reason in reasons:
        print(f"# failed: {reason}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return result


def _write_trace(workload: str, seed: int, metrics: dict, traced: dict) -> None:
    """Spans of the traced pass (one per operation, with each layer's self
    time inside it) and the per-function call counts."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    first, last = traced["layers"]["first"], traced["layers"]["last"]
    functions = {name: count - first["functions"].get(name, 0) for name, count in last["functions"].items()}
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "metrics": metrics,
        "functions": {k: v for k, v in sorted(functions.items()) if v},
        "spans": traced["spans"],
    }))
    print(f"# spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "deep", "long-words", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sturmia" / "__init__.py").is_file():
        print(f"error: no sturmia sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
