"""Batch command-line surface for the library.

Subcommands: moments | bound | density | stein | verify | report.  Each run
reads a single JSON config document (``--config``), applies flag overrides,
writes its artifacts (CSV with a header row and '.' decimal, JSON in UTF-8)
into the output directory, and drops a ``manifest.json`` with the seed, the
config hash, and the package versions, which is enough to reproduce the run
exactly.  Results are invariant under ``--workers``: the same seed gives
bit-identical artifacts at any worker count, so the manifest records neither
the worker count nor the output path.

Config keys (all optional unless a command needs them):

    {
      "spec":  {"zeta": [...], "alpha": a}   a diagonal second-chaos spec,
               or {"chaos": {...}}           an inline chaos vector document,
               or "path/to/spec.json"        a file holding either form,
      "alpha": a,            target shape (default: from spec, else E[F^2])
      "xs": [x1, x2, ...],   evaluation points
      "mc": {"n": 200000, "seed": 0},
      "k": 0,                density-derivative order (density)
      "route": "chaos-moment" | "malliavin-general",   (bound/report)
      "s": 8,                defect-moment exponent for the general route
      "method": "exact" | "quad",            (stein)
      "x": 1.0,              Stein evaluation point (stein)
      "grid": {"lo": 1e-3, "hi": 50, "points": 40, "two_sided": true}
              or [y1, y2, ...],              (stein)
      "out": "directory",
      "tolerances": {"residual": 1e-8}
    }

Exit codes: 0 success, 1 config/spec validation error, 2 numerical failure
(a violated runtime check, a float overflow, or a non-finite bound), 3
precondition refusal from the library (odd chaos order, unsupported negative
moments, x = 0 with small alpha, and similar).  Failures print a
machine-readable error JSON.
The output directory may also come from the environment variable
CHAOSGAMMA_OUT; flags win over the config, the config over the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    assemble_density_bound,
    assemble_general_bound,
    c1_constant,
    defect_domination_constant,
    dtheta_identity_check,
    even_chaos_moments,
    lambda_const,
    lambda_norm_direct,
    lambda_norm_expansion,
    lambda_norm_symmetrized_expansion,
    second_derivative_defect_direct,
    second_derivative_defect_expansion,
    tau_const,
    theta_variance_direct,
    theta_variance_expansion,
)
from .chaos import (
    ChaosVector,
    OrderBudgetError,
    carre_du_champ,
    divergence,
    eval_jet,
    evaluate,
    expectation,
    generator,
    generator_inverse,
    malliavin_derivative,
    multiply,
    second_moment,
)
from .gamma import gamma_pdf_deriv
from .mc import density_malliavin
from .spectral import SecondChaosSpec
from .stein import envelope, solve
from .tensors import symmetrize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_REFUSAL = 3

_ALLOWED_KEYS = {
    "command",
    "spec",
    "alpha",
    "xs",
    "mc",
    "k",
    "route",
    "s",
    "method",
    "x",
    "grid",
    "out",
    "tolerances",
}
_MC_KEYS = {"n", "seed"}
_GRID_KEYS = {"lo", "hi", "points", "two_sided"}


class ConfigError(ValueError):
    """Malformed config or spec: exit code 1."""


class _Parser(argparse.ArgumentParser):
    """A bad flag exits 1 like a bad config key; exit 2 means a numerical failure."""

    def error(self, message):
        raise ConfigError(message)


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _reject_nonfinite(node, key: str) -> None:
    """Raises a ConfigError naming the first number under ``node`` that is
    not finite.  json.loads reads NaN and Infinity tokens and turns 1e400
    into inf, and float() reads "nan" from a flag."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{key} must be a finite number, got {node!r}")
    if isinstance(node, dict):
        for k, v in node.items():
            _reject_nonfinite(v, f"{key}.{k}" if key else str(k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _reject_nonfinite(v, f"{key}[{i}]")


def _integer(value, key: str) -> int:
    """``value`` as an int when it is an integral number (2e5 is fine, 2.5,
    true and "2" are not); else a ConfigError naming ``key``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _number(value, key: str) -> float:
    """``value`` as a float when it is a number (not a bool); else a
    ConfigError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _load_config(path: str | None) -> tuple[dict, str]:
    """Returns (config doc, sha256 of its canonical JSON)."""
    if path is None:
        doc = {}
        raw = b"{}"
    else:
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _ALLOWED_KEYS, "config")
    _reject_nonfinite(doc, "")
    if "mc" in doc:
        if not isinstance(doc["mc"], dict):
            raise ConfigError("mc must be an object with keys n, seed")
        _reject_unknown(doc["mc"], _MC_KEYS, "mc")
    if isinstance(doc.get("grid"), dict):
        _reject_unknown(doc["grid"], _GRID_KEYS, "grid")
    if "tolerances" in doc:
        if not isinstance(doc["tolerances"], dict):
            raise ConfigError("tolerances must be an object")
        _reject_unknown(doc["tolerances"], {"residual"}, "tolerances")
    return doc, hashlib.sha256(raw).hexdigest()


def _parse_spec(node) -> tuple[ChaosVector, float | None]:
    """Spec from inline JSON or a file path; returns (F, embedded alpha)."""
    if node is None:
        raise ConfigError("this command needs a spec (config key 'spec')")
    if isinstance(node, str):
        try:
            node = json.loads(Path(node).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load spec file: {exc}") from exc
        _reject_nonfinite(node, "spec")
    if not isinstance(node, dict):
        raise ConfigError("spec must be an object or a file path")
    if "zeta" in node:
        _reject_unknown(node, {"zeta", "alpha"}, "spec")
        if "alpha" in node:
            _number(node["alpha"], "spec.alpha")
        try:
            zeta = tuple(node["zeta"])
            alpha = node["alpha"] if "alpha" in node else sum(2 * z * z for z in zeta)
            spec = SecondChaosSpec(zeta, float(alpha))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad second-chaos spec: {exc}") from exc
        return ChaosVector.second_chaos_diagonal(spec.zeta), spec.alpha
    if "chaos" in node:
        _reject_unknown(node, {"chaos", "alpha"}, "spec")
        try:
            F = ChaosVector.from_json_dict(node["chaos"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad chaos-vector spec: {exc}") from exc
        alpha = node.get("alpha")
        return F, (_number(alpha, "spec.alpha") if alpha is not None else None)
    raise ConfigError("spec must contain 'zeta' or 'chaos'")


def _resolve(args, doc: dict):
    """Flags override config; fill defaults.  Returns a plain namespace."""

    def pick(flag_val, key, default=None):
        if flag_val is not None:
            return flag_val
        return doc.get(key, default)

    def number(flag_val, key):
        value = pick(flag_val, key)
        return None if value is None else _number(value, key)

    mc = doc.get("mc", {})
    out = args.out or doc.get("out") or os.environ.get("CHAOSGAMMA_OUT") or "."
    xs = doc.get("xs")
    if args.xs is not None:
        try:
            xs = [float(v) for v in args.xs]
        except ValueError as exc:
            raise ConfigError(f"bad --xs: {exc}") from exc
    elif xs is not None:
        if not isinstance(xs, list):
            raise ConfigError(f"xs must be a list of numbers, got {xs!r}")
        xs = [_number(v, f"xs[{i}]") for i, v in enumerate(xs)]
    if xs == []:
        raise ConfigError("xs must hold at least one evaluation point")
    ns = argparse.Namespace(
        command=args.command,
        spec_node=doc.get("spec"),
        alpha=number(args.alpha, "alpha"),
        xs=xs,
        n=_integer(pick(args.n, None, mc.get("n", 200_000)), "mc.n"),
        seed=_integer(pick(args.seed, None, mc.get("seed", 0)), "mc.seed"),
        k=_integer(pick(args.k, "k", 0), "k"),
        route=pick(getattr(args, "route", None), "route"),
        s=_integer(pick(getattr(args, "s", None), "s", 8), "s"),
        method=pick(getattr(args, "method", None), "method", "exact"),
        x=number(getattr(args, "x", None), "x"),
        grid=doc.get("grid"),
        out=out,
        workers=args.workers,
        tolerances=doc.get("tolerances", {}),
    )
    _reject_nonfinite({"alpha": ns.alpha, "xs": ns.xs, "x": ns.x}, "")
    if ns.n <= 0:
        raise ConfigError("mc.n must be positive")
    if ns.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {ns.workers}")
    if "command" in doc and doc["command"] != args.command:
        raise ConfigError(
            f"config is for command {doc['command']!r}, invoked as {args.command!r}"
        )
    return ns


def _need_spec(ns) -> tuple[ChaosVector, float]:
    F, emb = _parse_spec(ns.spec_node)
    alpha = ns.alpha if ns.alpha is not None else emb
    if alpha is None:
        alpha = second_moment(F)
    return F, alpha


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif v is None or (isinstance(v, float) and math.isnan(v)):
                cells.append("")
            else:
                cells.append(f"{v:.12g}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _manifest(ns, cfg_sha: str, params: dict) -> dict:
    import scipy  # the top-level package only; its submodules load lazily

    return {
        "command": ns.command,
        "config_sha256": cfg_sha,
        "seed": ns.seed,
        "n": ns.n,
        "params": params,
        "package_versions": {
            "chaosgamma": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


# -- subcommands ---------------------------------------------------------------


def cmd_moments(ns, cfg_sha: str, outdir: Path) -> tuple[int, dict]:
    F, alpha = _need_spec(ns)
    doc = even_chaos_moments(F, alpha)
    _write_json(outdir / "moments.json", doc)
    _write_json(outdir / "manifest.json", _manifest(ns, cfg_sha, {"alpha": alpha}))
    return EXIT_OK, doc


def _run_bound(ns, F: ChaosVector, alpha: float):
    xs = ns.xs if ns.xs else [alpha / 2.0, alpha, 2.0 * alpha]
    route = ns.route or "chaos-moment"
    if route == "chaos-moment":
        return assemble_density_bound(F, alpha, xs, ns.n, ns.seed, ns.workers)
    if route == "malliavin-general":
        return assemble_general_bound(F, alpha, xs, ns.n, ns.seed, ns.s, ns.workers)
    raise ConfigError(f"route must be 'chaos-moment' or 'malliavin-general', got {route!r}")


def _write_bound_files(ns, cfg_sha: str, outdir: Path, rep, alpha: float) -> None:
    """bound_report.json, bound_summary.csv and the manifest of ``rep``."""
    _write_json(outdir / "bound_report.json", rep.to_json_dict())
    (outdir / "bound_summary.csv").write_text(rep.csv_text(), encoding="utf-8")
    _write_json(
        outdir / "manifest.json",
        _manifest(ns, cfg_sha, {"alpha": alpha, "route": rep.kind, "xs": rep.xs(), "s": rep.s}),
    )


def cmd_bound(ns, cfg_sha: str, outdir: Path) -> tuple[int, dict]:
    F, alpha = _need_spec(ns)
    rep = _run_bound(ns, F, alpha)
    _write_bound_files(ns, cfg_sha, outdir, rep, alpha)
    ok = rep.domination_ok()
    summary = {
        "bound": {f"{x:.12g}": rep.bound[x] for x in rep.xs()},
        "domination_ok": {f"{x:.12g}": v for x, v in ok.items()},
        "flags": list(rep.flags),
    }
    return (EXIT_OK if all(ok.values()) else EXIT_NUMERICAL), summary


def cmd_density(ns, cfg_sha: str, outdir: Path) -> tuple[int, dict]:
    F, alpha = _need_spec(ns)
    if not ns.xs:
        raise ConfigError("density needs evaluation points (config key 'xs')")
    ests = density_malliavin(F, alpha, ns.k, ns.xs, ns.n, ns.seed, ns.workers)
    rows = []
    rates = {}
    failed = False
    for x, est in zip(ns.xs, ests):
        try:
            target = float(gamma_pdf_deriv(alpha, ns.k, x)) if x >= 0 else 0.0
        except ValueError:
            target = float("nan")
        share = est.n_rejected / max(est.n_requested, 1)
        rates[f"{x:.12g}"] = share
        failed = failed or "no_valid_samples" in est.flags
        rows.append(
            (x, est.value, est.stderr, target, est.n, est.n_rejected, ";".join(est.flags))
        )
    _write_csv(
        outdir / "density.csv",
        ["x", "estimate", "stderr", "gamma_target", "n_valid", "n_rejected", "flags"],
        rows,
    )
    _write_json(
        outdir / "density.json",
        {
            "alpha": alpha,
            "k": ns.k,
            "estimates": {f"{x:.12g}": e.to_json_dict() for x, e in zip(ns.xs, ests)},
        },
    )
    _write_json(
        outdir / "manifest.json",
        _manifest(ns, cfg_sha, {"alpha": alpha, "k": ns.k, "xs": ns.xs}),
    )
    summary = {"rejection_share": rates, "max_rejection_share": max(rates.values())}
    return (EXIT_NUMERICAL if failed else EXIT_OK), summary


def _stein_grid(node) -> list[float]:
    if node is None:
        node = {}
    if isinstance(node, list):
        if not node:
            raise ConfigError("grid must hold at least one point")
        return [_number(v, f"grid[{i}]") for i, v in enumerate(node)]
    if not isinstance(node, dict):
        raise ConfigError("grid must be an object or a list of points")
    lo = _number(node.get("lo", 1e-3), "grid.lo")
    hi = _number(node.get("hi", 50.0), "grid.hi")
    points = _integer(node.get("points", 40), "grid.points")
    two_sided = node.get("two_sided", True)
    if not isinstance(two_sided, bool):
        raise ConfigError(f"grid.two_sided must be true or false, got {two_sided!r}")
    if not (0 < lo < hi) or points < 2:
        raise ConfigError("grid needs 0 < lo < hi and points >= 2")
    right = np.geomspace(lo, hi, points)
    ys = np.concatenate([-right[::-1], right]) if two_sided else right
    return [float(v) for v in ys]


def cmd_stein(ns, cfg_sha: str, outdir: Path) -> tuple[int, dict]:
    if ns.alpha is None or ns.x is None:
        raise ConfigError("stein needs 'alpha' and the evaluation point 'x'")
    if ns.method not in ("exact", "quad"):
        raise ConfigError(f"method must be 'exact' or 'quad', got {ns.method!r}")
    alpha, k, x = ns.alpha, ns.k, ns.x
    grid = _stein_grid(ns.grid)
    sol = solve(alpha, k, x, grid, method=ns.method)
    env = envelope(alpha, k, x)
    rows = sol.to_rows(env)
    _write_csv(outdir / "stein.csv", ["y", "f", "fprime", "residual", "envelope"], rows)

    res = np.abs([row[3] for row in rows])
    ys = np.asarray(grid)
    tol = _number(ns.tolerances.get("residual", 1e-8), "tolerances.residual")
    away = np.abs(ys) >= 0.05
    max_res = float(np.max(res[away])) if np.any(away) else 0.0
    dominated = env.dominates(sol)
    doc = {
        "alpha": alpha,
        "k": k,
        "x": x,
        "method": sol.method,
        "eh": sol.eh,
        "branch": env.branch,
        "envelope_summary": dict(env.summary),
        "max_residual_away_from_origin": max_res,
        "residual_tolerance": tol,
        "envelope_dominates": dominated,
        "alpha_below_one": alpha < 1.0,
    }
    _write_json(outdir / "stein.json", doc)
    _write_json(
        outdir / "manifest.json",
        _manifest(ns, cfg_sha, {"alpha": alpha, "k": k, "x": x, "method": ns.method}),
    )
    ok = max_res <= tol and dominated
    return (EXIT_OK if ok else EXIT_NUMERICAL), doc


def _verify_checks() -> list[tuple[str, bool, str]]:
    """The exact-identity suite on fixed seeds.  Every check is a closed
    identity; nothing here is Monte Carlo."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(20260819)

    def kern(q, d, scale=1.0):
        return symmetrize(rng.normal(size=(d,) * q) * scale)

    def close(a, b, tol=1e-10):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))

    def vec_zero(v: ChaosVector, tol=1e-10):
        return abs(v.constant) <= tol and v.max_abs_coeff() <= tol

    # isometry and orthogonality
    f3 = kern(3, 3)
    F3 = ChaosVector.from_kernel(f3)
    checks.append(
        ("isometry E[I_q(f)^2] = q! ||f||^2", close(second_moment(F3), 6.0 * f3.norm_sq()), "")
    )
    F2 = ChaosVector.from_kernel(kern(2, 3))
    cross = expectation(multiply(F2, F3))
    checks.append(("orthogonality of distinct orders", abs(cross) <= 1e-10, f"E[I2 I3] = {cross:.2e}"))

    # product formula vs pointwise evaluation
    ok = True
    for _ in range(5):
        z = rng.normal(size=3)
        lhs = evaluate(multiply(F2, F3), z[None, :])[0]
        rhs = evaluate(F2, z[None, :])[0] * evaluate(F3, z[None, :])[0]
        ok = ok and close(lhs, rhs)
    checks.append(("product formula matches pointwise products", ok, ""))

    # duality E[F delta(u)] = E <DF, u> with u = DG
    G = ChaosVector.from_kernel(kern(3, 3))
    u = malliavin_derivative(G)
    lhs = expectation(multiply(F3, divergence(u)))
    rhs = expectation(malliavin_derivative(F3).inner(u))
    checks.append(("duality E[F delta(u)] = E<DF, u>", close(lhs, rhs), ""))

    # -delta D = L and L L^-1 F = F - E F
    LF = generator(F3)
    checks.append(("-delta(DF) = LF", vec_zero(divergence(malliavin_derivative(F3)) + LF), ""))
    mixed = F2 + F3 + 1.5
    back = generator(generator_inverse(mixed))
    checks.append(("L L^-1 F = F - E F", vec_zero(back - (mixed - expectation(mixed))), ""))

    # carre du champ = <DF, DG>
    gamma_v = carre_du_champ(F3, G)
    inner_v = malliavin_derivative(F3).inner(malliavin_derivative(G))
    checks.append(("carre du champ equals gradient inner product", vec_zero(gamma_v - inner_v, 1e-9), ""))

    # jet evaluation consistency
    z0 = rng.normal(size=3)
    jet = eval_jet(F3, z0, 1)
    step = 1e-6
    ok = True
    for j in range(3):
        zp = z0.copy(); zp[j] += step
        zm = z0.copy(); zm[j] -= step
        fd = (evaluate(F3, zp[None, :])[0] - evaluate(F3, zm[None, :])[0]) / (2 * step)
        ok = ok and abs(jet.partial([j]) - fd) <= 1e-5 * max(1.0, abs(fd))
    checks.append(("first-order jet matches finite differences", ok, ""))

    # coefficient identities
    ok = True
    for q in (2, 4, 6, 8):
        h = q // 2
        for kk in range(1, h + 1):
            for ll in range(1, h + 1):
                if kk + ll < 3:
                    continue
                lhs = 1.0 / lambda_const(kk + 1, ll, q) + 1.0 / lambda_const(kk, ll + 1, q)
                ok = ok and close(lhs, 1.0 / lambda_const(kk, ll, q), 1e-12)
    checks.append(("lambda reciprocal recursion (q <= 8)", ok, ""))

    ok = True
    for q in (2, 4, 6, 8):
        h = q // 2
        for kk in range(1, h + 2):
            for ll in range(1, kk + 1):
                if kk + ll < 3 or h - 1 > q - kk:
                    continue
                lhs = tau_const(kk, ll, h - 1, q) * lambda_const(kk, ll, q)
                rhs = (
                    math.factorial(q) * q * math.factorial(h - 1)
                    * math.comb(q - 1, h - 1) ** 2 / math.factorial(q - kk - ll + 2)
                )
                ok = ok and close(lhs, rhs, 1e-12)
    checks.append(("tau * lambda alignment identity (q <= 8)", ok, ""))

    # defect expansions against direct engine values
    ok1 = ok2 = ok3 = ok4 = True
    kernels = [kern(2, 8, 0.5), kern(2, 5, 0.5), kern(4, 3, 0.5), kern(4, 2, 0.5)]
    for f in kernels:
        al = math.factorial(f.order) * f.norm_sq()
        ok1 = ok1 and close(theta_variance_expansion(f, al), theta_variance_direct(f, al))
        ok2 = ok2 and close(
            second_derivative_defect_expansion(f), second_derivative_defect_direct(f)
        )
        ok3 = ok3 and close(lambda_norm_expansion(f, 2, 1), lambda_norm_direct(f, 2, 1))
        ok4 = ok4 and dtheta_identity_check(f)
    for f in kernels[1::2]:
        h = f.order // 2
        for kk in range(1, h + 2):
            for ll in range(1, h + 2):
                if kk + ll >= 3:
                    ok3 = ok3 and close(lambda_norm_expansion(f, kk, ll), lambda_norm_direct(f, kk, ll))
    checks.append(("theta variance expansion = direct", ok1, ""))
    checks.append(("second-derivative defect expansion = direct", ok2, ""))
    checks.append(
        ("tensor defect expansion = direct ((2,1) on all, every (k,l) on the two smallest)", ok3, "")
    )
    checks.append(("D Theta = q Lambda(2,1)", ok4, ""))

    # C(q,k,l) certifies the symmetrized norm; the full norm is only observed below it
    certified = empirical = True
    for (kk, ll) in ((2, 2), (3, 1), (3, 2)):
        f = kern(4, 2, 0.5)
        al = math.factorial(4) * f.norm_sq()
        bound = defect_domination_constant(4, kk, ll) * theta_variance_direct(f, al) * (1 + 1e-9)
        certified = certified and lambda_norm_symmetrized_expansion(f, kk, ll) <= bound
        empirical = empirical and lambda_norm_direct(f, kk, ll) <= bound
    checks.append(("symmetrized tensor defect dominated by C(q,k,l) E[Theta^2]", certified, ""))
    checks.append(("full tensor defect dominated by C(q,k,l) E[Theta^2] (empirical)", empirical, ""))

    checks.append(("C1 matches the enumerated ratio maximum", all(
        c1_constant(q) == 2.0 * (q - 1) for q in (2, 4, 6, 8)
    ), ""))
    return checks


def cmd_verify(ns, cfg_sha: str, outdir: Path) -> tuple[int, dict]:
    checks = _verify_checks()
    for name, ok, detail in checks:
        line = f"{'ok  ' if ok else 'FAIL'} {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
    doc = {
        "passed": sum(1 for _, ok, _ in checks if ok),
        "failed": sum(1 for _, ok, _ in checks if not ok),
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
    }
    _write_json(outdir / "verify.json", doc)
    _write_json(outdir / "manifest.json", _manifest(ns, cfg_sha, {}))
    return (EXIT_OK if doc["failed"] == 0 else EXIT_NUMERICAL), {
        "passed": doc["passed"],
        "failed": doc["failed"],
    }


def cmd_report(ns, cfg_sha: str, outdir: Path) -> tuple[int, dict]:
    F, alpha = _need_spec(ns)
    rep = _run_bound(ns, F, alpha)
    moments = rep.moments
    if moments is None and F.is_pure_chaos() and F.top_order % 2 == 0:
        moments = even_chaos_moments(F, alpha)
    _write_bound_files(ns, cfg_sha, outdir, rep, alpha)
    if moments is not None:
        _write_json(outdir / "moments.json", moments)
    index = {
        "alpha": alpha,
        "route": rep.kind,
        "files": sorted(
            p.name for p in (
                outdir / "bound_report.json",
                outdir / "bound_summary.csv",
                outdir / "moments.json",
            ) if p.exists()
        ),
        "moments": moments,
        "domination_ok": {f"{x:.12g}": v for x, v in rep.domination_ok().items()},
    }
    _write_json(outdir / "report.json", index)
    ok = all(rep.domination_ok().values())
    return (EXIT_OK if ok else EXIT_NUMERICAL), index


_COMMANDS = {
    "moments": cmd_moments,
    "bound": cmd_bound,
    "density": cmd_density,
    "stein": cmd_stein,
    "verify": cmd_verify,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chaosgamma",
        description="Gamma-approximation toolkit for Gaussian chaos: moments,"
        " density bounds, Stein solutions, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out", help="output directory (overrides config and CHAOSGAMMA_OUT)")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--n", type=int, help="override mc.n")
        p.add_argument("--workers", type=int, default=1, help="worker threads (result-invariant)")
        p.add_argument("--alpha", type=float, help="override alpha")
        p.add_argument("--k", type=int, help="override derivative order k")
        p.add_argument(
            "--xs", help="override evaluation points, comma-separated",
            type=lambda s: [v for v in s.split(",") if v],
        )
        if name in ("bound", "report"):
            p.add_argument("--route", choices=["chaos-moment", "malliavin-general"])
            p.add_argument("--s", type=int, help="defect exponent for the general route")
        if name == "stein":
            p.add_argument("--x", type=float, help="Stein evaluation point")
            p.add_argument("--method", choices=["exact", "quad"])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        doc, cfg_sha = _load_config(args.config)
        ns = _resolve(args, doc)
        outdir = Path(ns.out)
        outdir.mkdir(parents=True, exist_ok=True)
        code, summary = _COMMANDS[args.command](ns, cfg_sha, outdir)
        print(json.dumps({"command": args.command, "exit_code": code, **summary}, sort_keys=True))
        return code
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "validation", "message": str(exc)}}))
        return EXIT_VALIDATION
    except (OrderBudgetError, RuntimeError, FloatingPointError, OverflowError, MemoryError) as exc:
        # a bare MemoryError has no message
        message = str(exc) or type(exc).__name__
        print(json.dumps({"error": {"type": "numerical", "message": message}}))
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(json.dumps({"error": {"type": "refusal", "message": str(exc)}}))
        return EXIT_REFUSAL


if __name__ == "__main__":
    sys.exit(main())
