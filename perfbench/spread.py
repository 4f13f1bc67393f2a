"""Repeat the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, as a share of the median, against its bound.

    python3 perfbench/spread.py --workloads bound-diag12,moments-q4 \
        --seeds 1-10 [--trace] [--json out.json]

Run from the root of a source checkout, like run.py.  Runs are sequential
and last BENCHMARK.json's run_seconds each.
With ``--trace`` each workload also gets one traced run (seed: the first
one), whose per-layer metrics go into the JSON record as well.  The JSON
record holds every run's result, so two records of the same code can be
compared metric by metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) with Python's default quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma-separated list")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--json", help="write every result and the summary here")
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record: dict = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            res = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **res})
            ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            med, iqr = spread([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"median": med, "iqr_share": iqr, "bound": bound}
            flag = "" if name == "setup_s" or iqr < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:16s} {name:14s} median {med:12.6g}  iqr/median {iqr:.4f}  bound {bound}{flag}")
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            traced = run_once(workload, seed_list(args.seeds)[0], seconds, 1)
            ok &= traced["correct"]
            entry["traced"] = traced
        record["workloads"][workload] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
