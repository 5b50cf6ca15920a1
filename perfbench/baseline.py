"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 25 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-10 --compare perfbench/baseline.json

Runs run.py once per workload and seed (one at a time, so runs do not
compete for the processor), prints each end-to-end metric's median and the
spread between its quartiles as a share of the median, then makes one
traced run per workload and writes everything to --out.  With --compare it
makes no traced runs and also prints each median's change from the
recorded one as a share of it, so two batches of the same code can be
checked against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify", "deep", "long-words", "cli-mix")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(HERE.parent), check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    result["meta"] = lines[0]
    return result


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args()
    recorded = json.loads(args.compare.read_text())["workloads"] if args.compare else None
    record = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, args.seconds, 0) for seed in args.seeds]
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values,
            }
            line = f"{workload} {name}: median {median:.6g} spread {(q3 - q1) / median:.3f}"
            if recorded:
                before = recorded[workload]["end_to_end"][name]["median"]
                line += f" change {(median - before) / before:+.3f}"
            print(line, flush=True)
        record["workloads"][workload] = {"meta": runs[0]["meta"], "end_to_end": summary}
        if not recorded:
            traced = bench(workload, args.seeds[0], args.seconds, 1)
            record["workloads"][workload]["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
