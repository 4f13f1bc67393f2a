"""Benchmark of the chaosgamma command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src/``
(nothing is installed).  Every invocation of the CLI is a fresh interpreter
at ``--workers 1``, so its wall time includes the package import.

``--trace 0`` times invocations of one workload until they add up to S
seconds (at least two) and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` makes one untraced
and one traced invocation (perfbench/traced_cli.py) and reports the
per-layer metrics: calls, total and self time of the public functions of
each package module, and work counts taken at the same boundaries.

Outputs are checked untimed against independent oracles (see workloads.py);
every later invocation must reproduce the first one's artifacts byte for
byte, and the Monte Carlo workloads must produce the same artifacts at
``--workers 2``.  The last line of stdout is a JSON object with keys
correct, attempted, failed and metrics.  ``--workload all`` runs every
workload in turn and prints each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload, bound_geomean

HERE = Path(__file__).resolve().parent
SETUP_REPS = 5
MIN_TIMED = 2
# a run must end within 180 s; an invocation still running then is killed
RUN_DEADLINE_S = 165.0
LAYERS = ("bounds", "stein", "gamma", "mc", "chaos")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, bad arguments)."""


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    code: int
    out: Path


class Cli:
    """Runs the CLI from ``src/`` in fresh interpreters inside ``work``."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def _spawn(self, argv: list[str], log: Path) -> Invocation:
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work, stdout=fh, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(self.deadline - t0, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode, log.parent)

    def run(self, cli_args: list[str], out: Path, spans: Path | None = None) -> Invocation:
        """One CLI invocation writing into a fresh ``out``."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if spans is None:
            prog = [sys.executable, "-m", "chaosgamma.cli"]
        else:
            prog = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        return self._spawn(prog + cli_args + ["--out", str(out)], out / "stdout.log")

    def time_import(self) -> float:
        log = self.work / "import.log"
        inv = self._spawn([sys.executable, "-c", "import chaosgamma.cli"], log)
        if inv.code != 0:
            raise BenchError(f"importing chaosgamma.cli failed:\n{log.read_text(errors='replace')}")
        return inv.wall_s


def same_artifacts(a: Path, b: Path, names) -> bool:
    return all((a / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def output_errors(
    wl: Workload, cli: Cli, argv: list[str], meta: dict, inv: Invocation, invariance: bool
) -> list[str]:
    """Untimed checks on the outputs of one invocation; with ``invariance``
    also a rerun at --workers 2 that must write the same artifacts."""
    if inv.code != 0:
        return [f"exit code {inv.code}: {(inv.out / 'stdout.log').read_text(errors='replace')[-2000:]}"]
    try:
        errors = wl.check(inv.out, meta, lambda extra, out: cli.run(argv + extra, cli.work / out))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output check raised {exc!r}"]
    if invariance and wl.command == "bound":
        two = cli.run(argv + ["--workers", "2"], cli.work / "workers2")
        if two.code != 0 or not same_artifacts(inv.out, two.out, wl.artifacts):
            errors.append("artifacts at --workers 2 differ from --workers 1")
    return errors


# -- metrics ------------------------------------------------------------------


def end_to_end(wl: Workload, timed: list[Invocation], setup: list[float], failed: int) -> dict:
    walls = [inv.wall_s for inv in timed]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in timed),
        "ok_share": (len(timed) - failed) / len(timed),
        "bound_geomean": bound_geomean(wl.command, timed[0].out),
    }


def span_table(spans: Path) -> dict:
    """Per traced function: calls, total_s (outermost spans) and self_s
    (span time not covered by child spans), plus the recorded counts."""
    z = np.load(spans)
    names = json.loads(str(z["names"]))
    fn, parent, outer = z["fn"], z["parent"], z["outer"]
    dur = z["end"] - z["start"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    k = len(names)
    calls = np.bincount(fn, minlength=k)
    total = np.bincount(fn, weights=np.where(outer, dur, 0.0), minlength=k)
    self_s = np.bincount(fn, weights=dur - child, minlength=k)
    table = {}
    for i, name in enumerate(names):
        table[f"{name}.calls"] = int(calls[i])
        table[f"{name}.total_s"] = float(total[i])
        table[f"{name}.self_s"] = float(self_s[i])
    for layer in LAYERS:
        table[f"{layer}.self_s"] = sum(
            float(self_s[i]) for i, n in enumerate(names) if n.startswith(layer + ".")
        )
    table["counts"] = json.loads(str(z["counts"]))
    # time the wrappers added: the calibrated cost of one traced call per span
    table["trace.overhead_s"] = float(z["call_cost_s"]) * len(fn)
    return table


def per_layer(wl: Workload, traced: Invocation, spans: Path) -> dict:
    t = span_table(spans)
    counts = t.pop("counts")
    passes = t["mc.run_chunked_multi.calls"]
    requested = counts.get("mc.run_chunked_multi.requested", 0)
    m = dict(t)
    m.update({
        "mc.standard_normals.draws": counts.get("mc.standard_normals.draws", 0),
        "mc.columns_per_pass": counts.get("mc.run_chunked_multi.columns", 0) / passes if passes else 0.0,
        "mc.rejected_share": counts.get("mc.run_chunked_multi.rejected", 0) / requested if requested else 0.0,
        "polynomials.hermite_table.cells": counts.get("polynomials.hermite_table.cells", 0),
        "chaos.evaluate.term_rows": counts.get("chaos.evaluate.term_rows", 0),
        "tensors.contract_sym.terms_out": counts.get("tensors.contract_sym.terms_out", 0),
        "stein.solve.points": counts.get("stein.solve.points", 0),
        "mc.density_rel_stderr": 0.0,
    })
    for route in ("spectral", "chaos-product", "mc"):
        m[f"bounds.moment_routes.{route}"] = 0
    if wl.command == "bound":
        rep = json.loads((traced.out / "bound_report.json").read_text())
        for rec in rep["positive_moments"].values():
            key = f"bounds.moment_routes.{rec['route']}"
            if key in m:
                m[key] += 1
        m["mc.density_rel_stderr"] = max(
            est["stderr"] / rep["density_target"][x] for x, est in rep["density_mc"].items()
        )
    return m


# -- one run ------------------------------------------------------------------


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cli = Cli(root, work)
        cli.time_import()  # compiles the bytecode cache; users run with it warm
        argv, meta = wl.make(seed, work)
        if trace:
            setup: list[float] = []
            plain = cli.run(argv, work / "run-0")
            spans = work / "spans.npz"
            traced = cli.run(argv, work / "run-1", spans=spans)
            runs = [plain, traced]
        else:
            # Import timings are interleaved with the invocations, so that a
            # slow spell of the machine weighs on both alike.
            setup, runs = [], []
            busy = 0.0
            while len(runs) < MIN_TIMED or busy + runs[-1].wall_s <= seconds:
                setup.append(cli.time_import())
                runs.append(cli.run(argv, work / f"run-{len(runs)}"))
                busy += runs[-1].wall_s
            setup += [cli.time_import() for _ in range(SETUP_REPS - len(setup))]
        # The --workers 2 rerun costs up to 7 s; it runs in traced runs only,
        # so that a timed run lasts little more than its --seconds.
        errors = output_errors(wl, cli, argv, meta, runs[0], invariance=trace)
        # an invocation fails if it differs from the first one's artifacts,
        # or reproduces them when they failed the checks
        ref_failed = bool(errors)
        failed = 0
        for i, inv in enumerate(runs):
            differs = i > 0 and (inv.code != 0 or not same_artifacts(runs[0].out, inv.out, wl.artifacts))
            if differs:
                errors.append(f"{inv.out.name}: exit {inv.code} or artifacts differ from the first invocation")
            failed += differs or ref_failed
        wanted = spec["per_layer" if trace else "end_to_end"]
        try:
            metrics = per_layer(wl, traced, spans) if trace else end_to_end(wl, runs, setup, failed)
        except (OSError, ValueError, KeyError):
            if not errors:
                raise
            metrics = {}
        if not trace:
            walls = sorted(inv.wall_s for inv in runs)
            # the highest percentile with at least ten samples beyond it
            top = f"p{100 * (1 - 10 / len(walls)):.0f} {walls[-11]:.4f}" if len(walls) > 10 else "none"
            print(f"{name}: wall_s over {len(walls)} timed invocations: min {walls[0]:.4f},"
                  f" median {statistics.median(walls):.4f}, max {walls[-1]:.4f};"
                  f" highest percentile with ten samples beyond it: {top}")
        for err in errors:
            print(f"{name}: CHECK FAILED: {err}")
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing and not errors:
            raise BenchError(f"metrics not computed: {missing}")
        return {
            "correct": not errors,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in wanted if m["name"] in metrics
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "chaosgamma" / "cli.py").is_file():
            raise BenchError(f"no program source: {root / 'src' / 'chaosgamma'} is missing")
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if args.workload != "all":
            res = run_workload(root, spec, args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(res))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            res = run_workload(root, spec, name, args.seed, args.seconds, bool(args.trace))
            for metric, val in res["metrics"].items():
                print(f"{name:16s} {metric:42s} {val['value']:>16.6g} {val['unit']}")
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
