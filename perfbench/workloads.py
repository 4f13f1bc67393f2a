"""The four benchmark workloads: their inputs, made from a workload seed, and
the checks their outputs must pass.

The CLI receives only the config files written here.  Every check uses an
oracle that is independent of the library: the closed-form characteristic
function of diagonal second chaos, tensor-product Gauss-Hermite quadrature
of the Wick-polynomial form of I_q(f), and the library's exact Stein route.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import hermite_e
from scipy.integrate import quad

# bound-diag12: the README spec, the paper's main example.
DIAG12_ZETA = [0.55, 0.55] + [0.5] * 10
DIAG12_ALPHA = 6.21
DIAG12_XS = [3.0, 6.0, 12.0]
DIAG12_N = 500_000

# general-dense16: the same kind of law, but a dense kernel.
DENSE16_ZETA = [float(v) for v in np.linspace(0.6, 0.5, 16)]
DENSE16_N = 200_000
DENSE16_S = 8

# moments-q4: a pure fourth-chaos kernel, N(0, 0.3^2) entries drawn once from
# a fixed seed and symmetrized; the workload seed rotates it.
Q4_ORDER, Q4_DIM, Q4_SCALE, Q4_BASE_SEED = 4, 4, 0.3, 0

# stein-quad: alpha, k, x and the grid of the quadrature Stein solve.
STEIN_ALPHA, STEIN_K, STEIN_X = 4.0, 1, 2.0
STEIN_GRID = {"lo": 1e-3, "hi": 50.0, "points": 200, "two_sided": True}

# Output tolerances: MC density within this many standard errors of the
# oracle, exact moments and Stein routes within these relative errors.
DENSITY_SIGMAS = 4.0
MOMENT_RTOL = 1e-9
STEIN_TOL = 1e-8
GH_NODES = 9  # exact for per-axis degree <= 17; E[F^4] at q = 4 needs 16


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make: Callable[[int, Path], tuple[list[str], dict]]
    # check(out, meta, run_cli) -> error messages; run_cli(extra_args, out_name)
    # runs the same invocation with extra arguments for a reference result
    check: Callable[[Path, dict, Callable], list[str]]
    # artifacts that must be byte-identical across invocations of one run
    artifacts: tuple[str, ...]


def _write_config(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _mc_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _sym_entries(dense: np.ndarray) -> list[list]:
    """Sparse symmetric-tensor entries [sorted index list, value]."""
    q, d = dense.ndim, dense.shape[0]
    return [
        [list(idx), float(dense[idx])]
        for idx in itertools.combinations_with_replacement(range(d), q)
        if dense[idx] != 0.0
    ]


def _symmetrize(arr: np.ndarray) -> np.ndarray:
    perms = list(itertools.permutations(range(arr.ndim)))
    return sum(np.transpose(arr, p) for p in perms) / len(perms)


def _chaos_doc(kernel: np.ndarray) -> dict:
    q, d = kernel.ndim, kernel.shape[0]
    return {
        "dim": d,
        "constant": 0.0,
        "kernels": {str(q): {"order": q, "dim": d, "entries": _sym_entries(kernel)}},
    }


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR with sign correction)."""
    a = rng.normal(size=(d, d))
    qm, r = np.linalg.qr(a)
    return qm * np.sign(np.diag(r))


def dense16_kernel(seed: int) -> np.ndarray:
    qm = random_orthogonal(len(DENSE16_ZETA), _rng(seed, 1))
    k = qm @ np.diag(DENSE16_ZETA) @ qm.T
    return 0.5 * (k + k.T)


def q4_kernel(seed: int) -> np.ndarray:
    """A fixed kernel rotated by a seeded orthogonal Q in every slot.  I_q of
    the rotated kernel has the same law for every seed, so every seed has
    the same moments and the same amount of work, on different coefficients."""
    base = _symmetrize(_rng(Q4_BASE_SEED, 2).normal(0.0, Q4_SCALE, size=(Q4_DIM,) * Q4_ORDER))
    qm = random_orthogonal(Q4_DIM, _rng(seed, 2))
    return _symmetrize(np.einsum("abcd,ia,jb,kc,ld->ijkl", base, qm, qm, qm, qm))


# -- inputs -------------------------------------------------------------------


def make_diag12(seed: int, work: Path) -> tuple[list[str], dict]:
    cfg = work / "bound-diag12.json"
    _write_config(cfg, {
        "spec": {"zeta": DIAG12_ZETA, "alpha": DIAG12_ALPHA},
        "xs": DIAG12_XS,
        "mc": {"n": DIAG12_N, "seed": _mc_seed(seed)},
    })
    return ["bound", "--config", str(cfg)], {"zeta": DIAG12_ZETA}


def make_dense16(seed: int, work: Path) -> tuple[list[str], dict]:
    cfg = work / "general-dense16.json"
    _write_config(cfg, {
        "spec": {"chaos": _chaos_doc(dense16_kernel(seed))},
        "mc": {"n": DENSE16_N, "seed": _mc_seed(seed)},
    })
    argv = ["bound", "--config", str(cfg), "--route", "malliavin-general", "--s", str(DENSE16_S)]
    return argv, {"zeta": DENSE16_ZETA}


def make_q4(seed: int, work: Path) -> tuple[list[str], dict]:
    cfg = work / "moments-q4.json"
    kernel = q4_kernel(seed)
    _write_config(cfg, {"spec": {"chaos": _chaos_doc(kernel)}})
    return ["moments", "--config", str(cfg)], {"kernel": kernel}


def make_stein(seed: int, work: Path) -> tuple[list[str], dict]:
    cfg = work / "stein-quad.json"
    _write_config(cfg, {
        "alpha": STEIN_ALPHA, "k": STEIN_K, "x": STEIN_X, "grid": STEIN_GRID, "method": "quad",
    })
    return ["stein", "--config", str(cfg)], {}


# -- oracles ------------------------------------------------------------------


def cf_density(zeta: list[float], alpha: float, x: float) -> float:
    """Density of alpha + sum zeta_i (Y_i^2 - 1) at x by Fourier inversion of
    its closed-form characteristic function (Imhof 1961)."""
    z = np.asarray(zeta, dtype=float)

    def phi(t: float) -> complex:
        return complex(np.exp(1j * (alpha - z.sum()) * t - 0.5 * np.sum(np.log(1.0 - 2j * z * t))))

    c, _ = quad(lambda t: phi(t).real, 0.0, np.inf, weight="cos", wvar=x, epsabs=1e-11, limit=400)
    s, _ = quad(lambda t: phi(t).imag, 0.0, np.inf, weight="sin", wvar=x, epsabs=1e-11, limit=400)
    return (c + s) / math.pi


def wick_evaluate(kernel: np.ndarray, z: np.ndarray) -> np.ndarray:
    """I_q(f) at rows z: sum over index tuples of f times the Wick product,
    which is prod_v He_{a_v}(z_v) for index counts a_v."""
    q, d = kernel.ndim, kernel.shape[0]
    out = np.zeros(z.shape[0])
    he = [hermite_e.hermeval(z, [0.0] * a + [1.0]) for a in range(q + 1)]
    for idx in itertools.combinations_with_replacement(range(d), q):
        counts = np.bincount(idx, minlength=d)
        mult = math.factorial(q) // math.prod(math.factorial(int(a)) for a in counts)
        term = np.full(z.shape[0], mult * kernel[idx])
        for v in range(d):
            term = term * he[counts[v]][:, v]
        out += term
    return out


def gauss_hermite_moments(kernel: np.ndarray, powers: tuple[int, ...]) -> dict[int, float]:
    """E[I_q(f)^p] by tensor-product Gauss-Hermite quadrature."""
    nodes, weights = hermite_e.hermegauss(GH_NODES)
    weights = weights / math.sqrt(2.0 * math.pi)
    d = kernel.shape[0]
    grid = np.array(list(itertools.product(nodes, repeat=d)))
    w = np.prod(np.array(list(itertools.product(weights, repeat=d))), axis=1)
    vals = wick_evaluate(kernel, grid)
    return {p: math.fsum(w * vals**p) for p in powers}


# -- checks -------------------------------------------------------------------


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_bound(out: Path, meta: dict, _run_cli: Callable) -> list[str]:
    rep = json.loads((out / "bound_report.json").read_text(encoding="utf-8"))
    errors = []
    alpha = float(rep["alpha"])
    for key, b in rep["bound"].items():
        if not (math.isfinite(b) and b > 0.0):
            errors.append(f"bound at x={key} is {b}, not finite and positive")
    for key, est in rep["density_mc"].items():
        target = rep["density_target"][key]
        mc, se = est["value"], est["stderr"]
        if abs(mc - target) > rep["bound"][key] + DENSITY_SIGMAS * se:
            errors.append(f"domination fails at x={key}")
        oracle = cf_density(meta["zeta"], alpha, float(key))
        if abs(mc - oracle) > DENSITY_SIGMAS * se:
            errors.append(f"density_mc {mc} at x={key} is {abs(mc - oracle) / se:.1f} sigma from the CF oracle {oracle}")
    return errors


def check_moments(out: Path, meta: dict, _run_cli: Callable) -> list[str]:
    doc = json.loads((out / "moments.json").read_text(encoding="utf-8"))
    kernel = meta["kernel"]
    q = kernel.ndim
    errors = []
    ref = gauss_hermite_moments(kernel, (2, 3, 4))
    if not _close(doc["EF2"], doc["alpha"], MOMENT_RTOL) or not _close(doc["EF2"], ref[2], MOMENT_RTOL):
        errors.append(f"EF2 {doc['EF2']} vs alpha {doc['alpha']} and quadrature {ref[2]}")
    for p in (3, 4):
        if not _close(doc[f"EF{p}"], ref[p], MOMENT_RTOL):
            errors.append(f"EF{p} {doc[f'EF{p}']} vs quadrature {ref[p]}")
    cap = q * q / 3.0 * doc["fourth_moment_combo"]
    if not doc["theta_var"] <= cap * (1.0 + 1e-12):
        errors.append(f"theta_var {doc['theta_var']} exceeds (q^2/3) combo {cap}")
    return errors


def read_stein_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_stein(out: Path, meta: dict, run_cli: Callable) -> list[str]:
    exact = run_cli(["--method", "exact"], "stein-exact")
    if exact.code != 0:
        return [f"the exact Stein route exited with {exact.code}"]
    doc = json.loads((out / "stein.json").read_text(encoding="utf-8"))
    errors = []
    if not doc["envelope_dominates"]:
        errors.append("the Stein envelope does not dominate the solution")
    quad_rows = read_stein_csv(out / "stein.csv")
    exact_rows = read_stein_csv(exact.out / "stein.csv")
    if quad_rows.shape != exact_rows.shape or not np.array_equal(quad_rows[:, 0], exact_rows[:, 0]):
        return errors + ["quad and exact grids differ"]
    for col, name in ((1, "f"), (2, "f'")):
        gap = np.abs(quad_rows[:, col] - exact_rows[:, col])
        scale = np.maximum(1.0, np.abs(exact_rows[:, col]))
        if np.any(gap > STEIN_TOL * scale):
            errors.append(f"quad {name} differs from exact by {float(np.max(gap / scale)):.2e}")
    return errors


def _geomean(values) -> float:
    vals = [float(v) for v in values]
    return math.exp(math.fsum(math.log(v) for v in vals) / len(vals))


def bound_geomean(command: str, out: Path) -> float:
    """Geometric mean of the certified upper bounds a command reports: the
    density bound over xs (bound), (q^2/3) * fourth_moment_combo, which
    bounds E[Theta^2] (moments), and the Stein envelope over the grid (stein)."""
    if command == "bound":
        return _geomean(json.loads((out / "bound_report.json").read_text())["bound"].values())
    if command == "moments":
        doc = json.loads((out / "moments.json").read_text())
        return doc["q"] ** 2 / 3.0 * doc["fourth_moment_combo"]
    return _geomean(read_stein_csv(out / "stein.csv")[:, 4])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bound-diag12",
            "bound", make_diag12, check_bound,
            ("bound_report.json", "bound_summary.csv", "manifest.json"),
        ),
        Workload(
            "general-dense16",
            "bound", make_dense16, check_bound,
            ("bound_report.json", "bound_summary.csv", "manifest.json"),
        ),
        Workload(
            "moments-q4",
            "moments", make_q4, check_moments,
            ("moments.json", "manifest.json"),
        ),
        Workload(
            "stein-quad",
            "stein", make_stein, check_stein,
            ("stein.csv", "stein.json", "manifest.json"),
        ),
    )
}
