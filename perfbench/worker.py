"""One measured pass of a workload, in a fresh interpreter.

Reads a request (workload, mode, slope pool, operations) as JSON on stdin
and writes one JSON result on stdout.  Between operations, never inside a
timed region, it times a short fixed loop (the speed probe) every 0.1 s, so
run.py can tell how fast the shared machine ran during the pass.  Modes:

- "setup": import sturmia and build the slope pool, nothing else;
- "plain": run every operation with nothing attached (end-to-end figures);
- "trace": the same with the per-layer tracer installed;
- "memory": the same with tracemalloc probes on the repetition and rauzy
  layers.

sturmia is imported from the `src/` directory next to this benchmark, never
from an installed copy: run.py starts this file with `python -S` (no
site-packages on the path) in a clean environment.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (stdlib only; sturmia is imported in set-up)

PROBE_EVERY_S = 0.1
PROBE_LOOPS = 20_000
SETUP_PROBES = 5


def speed_probe() -> float:
    """Seconds a fixed integer loop takes: how fast the processor runs this
    interpreter just now.  It calls no sturmia code, so the code under test
    cannot change it."""
    start = time.perf_counter()
    x = 1
    for _ in range(PROBE_LOOPS):
        x = (x * 1103515245 + 12345) & 0x3FFFFFFF
    return time.perf_counter() - start


def peak_rss_kib() -> int:
    """High-water resident set size of this process, in KiB.

    Linux carries the parent's high-water mark into ru_maxrss across
    fork and exec, so a large parent would set a floor under it; VmHWM
    counts only this process image.  ru_maxrss is the fallback elsewhere.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    request = json.load(sys.stdin)
    mode = request["mode"]
    setup_probes = [speed_probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    prog = workloads.Program(request["workload"], request["pool"])
    setup_s = time.perf_counter() - start
    setup_probes.append(speed_probe())
    if mode == "setup":
        json.dump({"setup_s": setup_s, "setup_probes": setup_probes}, sys.stdout)
        return 0

    tracer = memory = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        first = tracer.snapshot()
    elif mode == "memory":
        from tracer import MemoryProbe

        memory = MemoryProbe()
        memory.install()

    durations, observations, spans = [], [], []
    clock = time.perf_counter
    origin = probed = clock()
    probes = [[0, speed_probe()]]
    for index, op in enumerate(request["ops"]):
        if clock() - probed > PROBE_EVERY_S:
            probes.append([index, speed_probe()])
            probed = clock()
        before = tracer.snapshot(full=False) if tracer else None
        t0 = clock()
        try:
            result = workloads.execute(prog, op)
            raised = None
        except Exception as exc:  # a failing operation is counted, not fatal
            raised = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        durations.append(t1 - t0)
        if tracer:
            spans.append(_span(index, op["kind"], t0 - origin, t1 - origin, before, tracer.snapshot(full=False)))
        observations.append({"raised": raised} if raised else workloads.observe(prog, op, result))
        result = None
    probes.append([len(durations), speed_probe()])
    peak_rss_mb = peak_rss_kib() / 1024

    out = {
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "durations": durations,
        "probes": probes,
        "observations": observations,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["layers"] = {"first": first, "last": tracer.snapshot()}
        out["spans"] = spans
    if memory:
        out["peak_alloc_bytes"] = memory.peak_bytes
    json.dump(out, sys.stdout)
    return 0


def _span(index, kind, start, end, before, after) -> dict:
    """One operation of the traced pass: its interval and what each layer
    did inside it."""
    self_s = {
        layer: after["self_s"][layer] - before["self_s"][layer]
        for layer in after["self_s"]
        if after["self_s"][layer] != before["self_s"][layer]
    }
    calls = {
        layer: after["calls"][layer] - before["calls"][layer]
        for layer in after["calls"]
        if after["calls"][layer] != before["calls"][layer]
    }
    return {"op": index, "kind": kind, "start": start, "end": end, "self_s": self_s, "calls": calls}


if __name__ == "__main__":
    sys.exit(main())
