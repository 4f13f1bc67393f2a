"""Run the chaosgamma CLI in this process with timing spans around the public
functions of each package module.

    python3 perfbench/traced_cli.py SPANS_FILE CLI_ARG...

Each listed function is replaced, in every chaosgamma module namespace that
holds it (``from .x import f`` binds the name locally), by a wrapper that
records a span (function, start, end, parent span) and, for some functions,
a work count taken from its arguments or result.  Spans stay in memory until
the CLI returns; then the originals are restored, the time one traced call
adds is calibrated on a wrapped no-op, and both are written to SPANS_FILE
(an ``.npz`` archive).  The process exits with the CLI's exit code.
Requires the package on PYTHONPATH.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions wrapped in a span
TRACED = {
    "cli": ("main",),
    "bounds": (
        "assemble_density_bound", "assemble_general_bound", "fourth_moment_combo",
        "shifted_positive_moment", "theta",
    ),
    "stein": ("solve", "envelope", "stein_rhs"),
    "gamma": ("gamma_pdf", "gamma_pdf_deriv", "nu_weight"),
    "mc": ("run_chunked_multi", "standard_normals", "density_malliavin"),
    "chaos": ("evaluate", "multiply", "moment", "malliavin_derivative", "generator_inverse"),
    "polynomials": ("hermite_table",),
    "tensors": ("contract_sym",),
    "multiindex": ("sub_multisets",),
}


def _coeff_count(F) -> int:
    return sum(len(f.coeffs) for f in F.kernels.values())


# wrapped no-op calls per calibration repeat, and the repeats
CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 5

# function -> work counts taken at its boundary: fn(args, result) -> {count: n}
COUNTERS = {
    "mc.standard_normals": lambda a, r: {"draws": r.size},
    "polynomials.hermite_table": lambda a, r: {"cells": r.size},
    "chaos.evaluate": lambda a, r: {"term_rows": _coeff_count(a[0]) * r.shape[0]},
    "tensors.contract_sym": lambda a, r: {"terms_out": len(r.coeffs)},
    "stein.solve": lambda a, r: {"points": len(r.grid)},
    "mc.run_chunked_multi": lambda a, r: {
        "columns": len(r),
        "requested": r[0].n_requested,
        "rejected": r[0].n_rejected,
    },
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, bool]] = []
        self.stack: list[int] = []
        self.active: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.active.append(0)
        counter = COUNTERS.get(name)
        spans, stack, active, counts = self.spans, self.stack, self.active, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            outer = active[idx] == 0
            active[idx] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[idx] -= 1
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, outer)
            if counter is not None:
                for key, val in counter(args, result).items():
                    counts[f"{name}.{key}"] += val
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "chaosgamma" or n.startswith("chaosgamma.")]
        for mod_name, fnames in TRACED.items():
            home = sys.modules[f"chaosgamma.{mod_name}"]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self.patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self.patched):
            setattr(mod, attr, orig)
        self.patched.clear()

    def save(self, path: str, call_cost_s: float) -> None:
        rows = np.array([s[:4] for s in self.spans], dtype=float).reshape(-1, 4)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(dict(self.counts))),
            fn=rows[:, 0].astype(np.int32),
            start=rows[:, 1],
            end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64),
            outer=np.array([s[4] for s in self.spans], dtype=bool),
            call_cost_s=np.array(call_cost_s),
        )


def traced_call_cost() -> float:
    """Seconds a wrapper adds to one call: a traced no-op against the bare
    no-op, median over repeats."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = clock()
        for _ in range(CALIBRATION_CALLS):
            traced()
        t1 = clock()
        for _ in range(CALIBRATION_CALLS):
            noop()
        t2 = clock()
        costs.append((2 * t1 - t0 - t2) / CALIBRATION_CALLS)
    return statistics.median(costs)


def main() -> int:
    spans_file, cli_args = sys.argv[1], sys.argv[2:]
    import chaosgamma.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = chaosgamma.cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.save(spans_file, traced_call_cost())
    return code


if __name__ == "__main__":
    sys.exit(main())
