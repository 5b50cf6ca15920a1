"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload, in both modes, checks that each metric BENCHMARK.json
names is printed with its unit and that every output passes its check; in
the traced mode, that the layer self times plus the benchmark's own time
add up to the traced wall time.  Then corrupts one result and checks that
it is counted as a failure.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SCALE = 0.02
SEED = 7


def check_printed(spec: dict, workload: str, trace: bool) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, SEED, seconds=0.1, trace=trace, scale=SCALE)
    text = out.getvalue()
    assert json.loads(text.strip().splitlines()[-1]) == result, "last line is not the result"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, f"{workload}: {text}"
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, f"{workload}: metric names differ"
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit, f"{workload}: unit of {name}"
        assert re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}\b", text, re.M), f"{name} not printed"
    assert re.search(r"^failed_ratio 0\.0 1\b", text, re.M), "failed_ratio not printed"
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        layered = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["bench.self_s"]
        assert math.isclose(layered, values["trace.wall_s"], rel_tol=1e-6), "self times do not add up"
    else:
        assert all(value > 0 for value in values.values()), f"{workload}: a zero metric"
    print(f"ok {workload} trace={int(trace)}", file=sys.stderr)


def check_corruption_counted() -> None:
    plan = workloads.generate("deep", SEED, SCALE)
    workloads.prepare(plan)
    checker = workloads.Checker(plan)
    result = run.spawn("deep", "plain", plan)
    assert run.failures(checker, [result])[1] == 0
    index = next(i for i, op in enumerate(plan["ops"]) if op["kind"] == "roundtrip")
    result["observations"][index]["value"] += 1
    attempted, failed, _ = run.failures(checker, [result])
    assert (attempted, failed) == (len(plan["ops"]), 1), (attempted, failed)
    print("ok corrupted result counted", file=sys.stderr)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            check_printed(spec, workload, trace)
    check_corruption_counted()
    return 0


if __name__ == "__main__":
    sys.exit(main())
