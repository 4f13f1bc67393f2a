"""Command-line entry points: exit codes, output files, determinism."""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaosgamma
from chaosgamma.chaos import ChaosVector
from chaosgamma.cli import main
from chaosgamma.tensors import SymTensor, symmetrize

TIGHT = {"spec": {"zeta": [0.5] * 12, "alpha": 6.0}}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def last_json_line(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out


def fresh_python(cwd, *args, env_update=None):
    """Run ``python ARGS`` in a new interpreter that imports this package:
    its own warning filters, its own sys.modules.  ``env_update`` sets
    environment variables, and removes those it maps to None."""
    src = str(Path(chaosgamma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for key, value in (env_update or {}).items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_verify_command(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path)])
    summary, lines = last_json_line(capsys)
    assert code == 0
    assert summary["failed"] == 0
    assert summary["passed"] >= 10
    assert any(line.startswith("ok") for line in lines[:-1])
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["failed"] == 0
    assert all(c["ok"] for c in doc["checks"])
    assert (tmp_path / "manifest.json").exists()


def test_moments_values_and_manifest(tmp_path, capsys):
    zeta = [0.6, 0.5, 0.4]
    cfg = write_config(tmp_path, {"spec": {"zeta": zeta}})
    out = tmp_path / "res"
    code = main(["moments", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "moments.json").read_text())
    z = np.asarray(zeta)
    assert doc["q"] == 2
    assert doc["EF"] == pytest.approx(0.0, abs=1e-14)
    assert doc["EF2"] == pytest.approx(2 * np.sum(z**2), rel=1e-12)
    assert doc["EF3"] == pytest.approx(8 * np.sum(z**3), rel=1e-12)
    assert doc["EF4"] == pytest.approx(48 * np.sum(z**4) + 12 * np.sum(z**2) ** 2, rel=1e-12)
    assert doc["theta_var"] == pytest.approx(doc["fourth_moment_combo"] * 2 / 3, rel=1e-11)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "moments"
    raw = (tmp_path / "cfg.json").read_bytes()
    assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()
    assert "workers" not in manifest and "workers" not in manifest["params"]
    assert "out" not in manifest["params"]


def test_manifest_scipy_version_is_the_installed_distribution(tmp_path, capsys):
    cfg = write_config(tmp_path, TIGHT)
    assert main(["moments", "--config", cfg, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["package_versions"]["scipy"] == importlib.metadata.version("scipy")


def test_import_loads_no_scipy_special(tmp_path):
    script = "import sys, chaosgamma.cli; print('scipy.special' in sys.modules)"
    proc = fresh_python(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_moments_command_loads_no_scipy_special(tmp_path):
    rng = np.random.default_rng(5)
    F = ChaosVector.from_kernel(symmetrize(rng.normal(size=(2, 2, 2, 2)) * 0.3))
    cfg = write_config(tmp_path, {"spec": {"chaos": F.to_json_dict()}})
    script = (
        "import sys; from chaosgamma.cli import main; "
        f"code = main(['moments', '--config', {cfg!r}, '--out', 'out']); "
        "print(code, 'scipy.special' in sys.modules)"
    )
    proc = fresh_python(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "moments.json").exists()


README_SPEC = {"zeta": [0.55, 0.55] + [0.5] * 10, "alpha": 6.21}


@pytest.mark.parametrize("route", ["chaos-moment", "malliavin-general"])
def test_bound_command_loads_no_scipy_special_or_integrate(tmp_path, route):
    """The bound path samples with the ziggurat, evaluates second chaos as
    quadratic forms and takes log Gamma from ``math``: on the README spec
    and on a dense second-chaos kernel it needs no ``scipy.special`` or
    ``scipy.integrate``."""
    if route == "chaos-moment":
        spec = README_SPEC
    else:
        F = haar_rotated_second_chaos(np.linspace(0.6, 0.5, 14), seed=5)
        spec = {"chaos": F.to_json_dict()}
    cfg = write_config(tmp_path, {"spec": spec, "route": route})
    script = (
        "import sys; from chaosgamma.cli import main; "
        f"code = main(['bound', '--config', {cfg!r}, '--n', '2000', '--out', 'out']); "
        "print(code, 'scipy.special' in sys.modules, 'scipy.integrate' in sys.modules)"
    )
    proc = fresh_python(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"
    assert (tmp_path / "out" / "bound_report.json").exists()


def test_stein_quad_command_loads_no_scipy_special_or_integrate(tmp_path):
    """The quadrature route integrates in numpy, so on the benchmark's
    stein-quad config it needs no ``scipy.special`` or ``scipy.integrate``."""
    grid = {"lo": 1e-3, "hi": 50.0, "points": 200, "two_sided": True}
    cfg = write_config(tmp_path, {"alpha": 4.0, "k": 1, "x": 2.0, "grid": grid, "method": "quad"})
    script = (
        "import sys; from chaosgamma.cli import main; "
        f"code = main(['stein', '--config', {cfg!r}, '--out', 'out']); "
        "print(code, 'scipy.special' in sys.modules, 'scipy.integrate' in sys.modules)"
    )
    proc = fresh_python(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"
    assert (tmp_path / "out" / "stein.csv").exists()


def test_moments_refuses_odd_order(tmp_path, capsys):
    rng = np.random.default_rng(3)
    F = ChaosVector.from_kernel(symmetrize(rng.normal(size=(3, 3, 3)) * 0.3))
    cfg = write_config(tmp_path, {"spec": {"chaos": F.to_json_dict()}})
    code = main(["moments", "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 3
    assert err["error"]["type"] == "refusal"
    assert "odd" in err["error"]["message"]


def test_moments_refuses_empty_kernel(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spec": {"chaos": {"dim": 2, "kernels": {}}, "alpha": 1.0}})
    code = main(["moments", "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 3
    assert err["error"]["type"] == "refusal"
    assert "pure chaos" in err["error"]["message"]
    assert "odd" not in err["error"]["message"]


def test_bound_files_and_worker_invariance(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "spec": {"zeta": [0.55] * 12},
            "xs": [3.63, 7.26],
            "mc": {"n": 20_000, "seed": 7},
        },
    )
    out1, out2 = tmp_path / "w1", tmp_path / "w3"
    code1 = main(["bound", "--config", cfg, "--out", str(out1), "--workers", "1"])
    summary, _ = last_json_line(capsys)
    assert code1 == 0
    assert all(summary["domination_ok"].values())
    code3 = main(["bound", "--config", cfg, "--out", str(out2), "--workers", "3"])
    assert code3 == 0
    for name in ("bound_report.json", "bound_summary.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "bound_summary.csv").read_text().splitlines()[0]
    assert header == "x,density_mc,density_target,abs_diff,bound"
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["params"]["route"] == "chaos-moment"
    assert "workers" not in json.dumps(manifest)


def test_bound_that_overflows_exits_two_naming_x_and_term(tmp_path):
    # the moments E[(F+a)^p] overflow for p past about 150 here, so the bound
    # at x = alpha would be Infinity; numpy warns on the way, hence a fresh
    # interpreter outside pytest's RuntimeWarning-as-error filter
    cfg = write_config(tmp_path, {"spec": {"zeta": [0.55] + [0.5] * 162 + [0.45], "alpha": 82.01}})
    proc = fresh_python(
        tmp_path, "-m", "chaosgamma.cli", "bound", "--config", cfg, "--n", "200", "--xs", "82.01",
        "--out", "out",
    )
    err = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 2
    assert err["error"]["type"] == "numerical"
    assert "x = 82.01" in err["error"]["message"]
    assert "E[(F+a)^" in err["error"]["message"]
    assert not (tmp_path / "out" / "bound_report.json").exists()


def test_bound_that_overflows_warns_nothing(tmp_path, capsys):
    # in process, so pytest's RuntimeWarning-as-error filter applies: the
    # infinite moment reaches the refusal without a numpy overflow warning
    cfg = write_config(tmp_path, {"spec": {"zeta": [0.55] + [0.5] * 162 + [0.45], "alpha": 82.01}})
    code = main(["bound", "--config", cfg, "--n", "200", "--out", str(tmp_path / "out")])
    err, _ = last_json_line(capsys)
    assert code == 2
    assert err["error"] == {
        "type": "numerical",
        "message": "the bound at x = 41.005 is not finite: its term with coefficient "
        "9.61788e-135 is inf (it reads E[(F+a)^156.02] = inf)",
    }


def haar_rotated_second_chaos(zeta, seed):
    """I_2(Q diag(zeta) Q^T) for a Haar-random orthogonal Q: a dense kernel
    with the law of the diagonal one."""
    d = len(zeta)
    Q, R = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    Q = Q * np.sign(np.diag(R))
    A = Q @ np.diag(zeta) @ Q.T
    entries = {(i, j): A[i, j] for i in range(d) for j in range(i, d)}
    return ChaosVector(d, 0.0, {2: SymTensor(2, d, entries)})


def test_dense_second_chaos_bound_does_not_depend_on_blas_threads(tmp_path):
    """The quadratic forms go through BLAS matrix products; a bound report
    is the same bytes with one OpenBLAS thread and with the default."""
    F = haar_rotated_second_chaos(np.linspace(0.6, 0.5, 14), seed=7)
    cfg = write_config(
        tmp_path,
        {"spec": {"chaos": F.to_json_dict()}, "mc": {"n": 40_000, "seed": 9}, "route": "malliavin-general"},
    )
    reports = []
    for threads in ("1", None):
        out = tmp_path / f"out-{threads}"
        args = ["-m", "chaosgamma.cli", "bound", "--config", cfg, "--out", str(out)]
        proc = fresh_python(tmp_path, *args, env_update={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append((out / "bound_report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "route, alpha, names",
    [
        ("chaos-moment", 6.0000000006, "E[F^2] = 6.0, but alpha = 6.0000000006"),
        ("chaos-moment", 5.9999999994, "the shift gap alpha - sum(zeta)"),
        ("malliavin-general", 6.0000000006, "E[F^2] = 6.0, but alpha = 6.0000000006"),
        ("malliavin-general", 5.9999999994, "E[F^2] = 6.0, but alpha = 5.9999999994"),
    ],
)
def test_zero_defect_at_an_alpha_off_the_second_moment_is_refused(tmp_path, capsys, route, alpha, names):
    """On [0.5] * 12 the defect factor is 0 at alpha = E[F^2] = 6 only.  An
    alpha 1e-10 off on either side passes the alpha tolerance, yet F + alpha
    is not Gamma(alpha): no bound 0 is certified; the refusal names the
    mismatch (below 6 the chaos-moment route meets the negative shift gap
    first)."""
    cfg = write_config(tmp_path, {"spec": {"zeta": [0.5] * 12, "alpha": alpha}, "route": route})
    code = main(["bound", "--config", cfg, "--n", "2000", "--out", str(tmp_path / "out")])
    err, _ = last_json_line(capsys)
    assert code == 3
    assert err["error"]["type"] == "refusal"
    assert names in err["error"]["message"]
    assert not (tmp_path / "out" / "bound_report.json").exists()


def test_dense_second_chaos_bound_is_worker_invariant(tmp_path, capsys):
    # 40 000 samples make three chunks, so the two workers split the pass
    F = haar_rotated_second_chaos(np.linspace(0.6, 0.5, 14), seed=5)
    cfg = write_config(
        tmp_path,
        {"spec": {"chaos": F.to_json_dict()}, "mc": {"n": 40_000, "seed": 3}, "route": "malliavin-general"},
    )
    outs = [tmp_path / "w1", tmp_path / "w2"]
    for out, workers in zip(outs, ("1", "2")):
        assert main(["bound", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
        summary, _ = last_json_line(capsys)
        assert all(summary["domination_ok"].values())
    for name in ("bound_report.json", "bound_summary.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_bound_general_route(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "spec": {"zeta": [0.6] + [0.5] * 13},
            "xs": [7.22],
            "mc": {"n": 15_000, "seed": 11},
            "route": "malliavin-general",
        },
    )
    code = main(["bound", "--config", cfg, "--out", str(tmp_path / "gen")])
    summary, _ = last_json_line(capsys)
    assert code == 0
    rep = json.loads((tmp_path / "gen" / "bound_report.json").read_text())
    assert rep["kind"] == "malliavin-general"
    assert rep["s"] == 8
    assert "negative_moment_existence_unverified" not in rep["flags"]


def test_bound_refusal_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spec": {"zeta": [0.6] * 4 + [0.2] * 4}, "mc": {"n": 1000, "seed": 1}})
    code = main(["bound", "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 3
    assert err["error"]["type"] == "refusal"
    assert "positive eigenvalues" in err["error"]["message"]


def test_density_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {**TIGHT, "xs": [3.0, 6.0], "mc": {"n": 20_000, "seed": 5}}
    )
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    code = main(["density", "--config", cfg, "--out", str(out1), "--workers", "1"])
    summary, _ = last_json_line(capsys)
    assert code == 0
    assert summary["max_rejection_share"] < 0.01
    lines = (out1 / "density.csv").read_text().splitlines()
    assert lines[0] == "x,estimate,stderr,gamma_target,n_valid,n_rejected,flags"
    assert len(lines) == 3
    code4 = main(["density", "--config", cfg, "--out", str(out4), "--workers", "4"])
    assert code4 == 0
    for name in ("density.csv", "density.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def test_density_derivative_order_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TIGHT, "mc": {"n": 15_000, "seed": 9}})
    code = main(
        ["density", "--config", cfg, "--out", str(tmp_path), "--k", "1", "--xs", "4,8"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "density.json").read_text())
    assert doc["k"] == 1
    assert set(doc["estimates"]) == {"4", "8"}


def test_density_requires_xs(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TIGHT, "mc": {"n": 1000, "seed": 2}})
    code = main(["density", "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert err["error"]["type"] == "validation"


def test_stein_positive_branch(tmp_path, capsys):
    code = main(
        ["stein", "--alpha", "4", "--k", "1", "--x", "2", "--out", str(tmp_path)]
    )
    doc, _ = last_json_line(capsys)
    assert code == 0
    saved = json.loads((tmp_path / "stein.json").read_text())
    assert saved["branch"] == "positive"
    assert saved["max_residual_away_from_origin"] <= 1e-8
    assert saved["envelope_dominates"] is True
    assert saved["alpha_below_one"] is False
    header = (tmp_path / "stein.csv").read_text().splitlines()[0]
    assert header == "y,f,fprime,residual,envelope"


def test_stein_negative_branch_small_alpha(tmp_path, capsys):
    code = main(
        ["stein", "--alpha", "0.7", "--k", "0", "--x", "-1.5", "--out", str(tmp_path)]
    )
    assert code == 0
    saved = json.loads((tmp_path / "stein.json").read_text())
    assert saved["branch"] == "negative"
    assert saved["alpha_below_one"] is True
    assert saved["envelope_dominates"] is True


def test_stein_quad_method(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"alpha": 2.0, "x": 1.0, "method": "quad", "grid": {"lo": 0.05, "hi": 10, "points": 8}},
    )
    code = main(["stein", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    saved = json.loads((tmp_path / "stein.json").read_text())
    assert saved["method"] == "quad"


def test_stein_overflow_is_a_numerical_error(tmp_path, capsys):
    code = main(["stein", "--alpha", "200", "--k", "0", "--x", "100", "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 2
    assert err["error"]["type"] == "numerical"


def test_stein_overflow_names_the_function_and_the_point(tmp_path, capsys):
    code = main(["stein", "--alpha", "200", "--k", "0", "--x", "100", "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 2
    assert err["error"]["message"] == (
        "stein solve (exact) overflowed in _ewpi_series at alpha = 200.0, k = 0, x = 100.0, "
        "y = -50.0: math range error"
    )


def test_stein_quad_overflow_names_the_integrand_and_warns_nothing(tmp_path, capsys):
    # in process, so pytest's RuntimeWarning-as-error filter applies: the
    # tail integrand is taken in log space and overflows only where the
    # integral does
    code = main(
        ["stein", "--alpha", "200", "--k", "0", "--x", "100", "--method", "quad", "--out", str(tmp_path)]
    )
    err, _ = last_json_line(capsys)
    assert code == 2
    assert err["error"]["type"] == "numerical"
    assert err["error"]["message"].startswith(
        "stein solve (quad) overflowed in integrand_t at alpha = 200.0, k = 0, x = 100.0, y = "
    )


@pytest.mark.parametrize(
    "command,doc,flags",
    [
        ("stein", {"alpha": 4, "k": 1, "x": 2, "grid": {"points": 10**15}}, []),
        ("density", {**TIGHT, "xs": [3.0]}, ["--n", str(10**18)]),
    ],
    ids=["stein-grid", "density-n"],
)
def test_an_allocation_beyond_memory_exits_two_with_the_error_json(
    tmp_path, capsys, command, doc, flags
):
    """Both sizes are far past the address space, so the allocation is
    refused at once and nothing is touched."""
    cfg = write_config(tmp_path, doc)
    code = main([command, "--config", cfg, "--out", str(tmp_path), *flags])
    err, _ = last_json_line(capsys)
    assert code == 2
    assert err["error"]["type"] == "numerical"
    assert err["error"]["message"]


def test_stein_requires_alpha_and_x(tmp_path, capsys):
    code = main(["stein", "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert err["error"]["type"] == "validation"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bogus": 1})
    code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert "bogus" in err["error"]["message"]


def test_config_command_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TIGHT, "command": "density"})
    code = main(["moments", "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert "command" in err["error"]["message"]


@pytest.mark.parametrize("alpha", [0, 0.0, -3])
def test_zeta_spec_rejects_nonpositive_alpha(tmp_path, capsys, alpha):
    cfg = write_config(tmp_path, {"spec": {"zeta": [0.5] * 10, "alpha": alpha}})
    code = main(["moments", "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert err["error"]["type"] == "validation"
    assert "alpha must be positive" in err["error"]["message"]


NAN, INF = float("nan"), float("inf")
NAN_KERNEL = {"order": 2, "dim": 2, "entries": [[[0, 0], NAN]]}


@pytest.mark.parametrize(
    "command, doc, flags, key",
    [
        ("bound", {**TIGHT, "xs": [3.0, NAN]}, [], "xs[1]"),
        ("moments", {**TIGHT, "alpha": INF}, [], "alpha"),
        (
            "moments",
            {"spec": {"chaos": {"dim": 2, "kernels": {"2": NAN_KERNEL}}}},
            [],
            "spec.chaos.kernels.2.entries[0][1]",
        ),
        ("moments", {"spec": {"zeta": [0.5] * 11 + [NAN]}}, [], "spec.zeta[11]"),
        ("stein", {"alpha": 2.0}, ["--x", "nan"], "x"),
        ("stein", {"alpha": 2.0, "x": 1.0, "grid": {"lo": 0.1, "hi": INF}}, [], "grid.hi"),
    ],
)
def test_nonfinite_numbers_are_validation_errors(tmp_path, capsys, command, doc, flags, key):
    """json.loads reads NaN and Infinity tokens and argparse reads "nan":
    each must stop the run with exit 1 naming the key."""
    cfg = write_config(tmp_path, doc)
    code = main([command, "--config", cfg, "--out", str(tmp_path), *flags])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert err["error"]["type"] == "validation"
    assert err["error"]["message"].startswith(f"{key} must be a finite number")


DENSITY = {**TIGHT, "xs": [3.0]}
STEIN = {"alpha": 2.0, "x": 1.0}
GENERAL13 = {"spec": {"zeta": [0.55] * 13}, "route": "malliavin-general", "mc": {"n": 1000}}


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("density", {**DENSITY, "mc": {"n": "abc"}}, "mc.n"),
        ("density", {**DENSITY, "mc": {"n": 2000.9}}, "mc.n"),
        ("density", {**DENSITY, "mc": {"n": 2000, "seed": True}}, "mc.seed"),
        ("density", {**DENSITY, "mc": {"n": 2000}, "k": 1.7}, "k"),
        ("bound", {**GENERAL13, "s": 8.9}, "s"),
        ("stein", {**STEIN, "grid": {"points": "abc"}}, "grid.points"),
        ("stein", {**STEIN, "grid": {"points": 12.5}}, "grid.points"),
        ("stein", {**STEIN, "grid": {"lo": "x"}}, "grid.lo"),
        ("stein", {**STEIN, "grid": {"two_sided": "no"}}, "grid.two_sided"),
        ("stein", {**STEIN, "grid": [0.5, "x"]}, "grid[1]"),
        ("stein", {**STEIN, "grid": "abc"}, "grid"),
    ],
)
def test_non_integral_or_mistyped_numbers_are_validation_errors(
    tmp_path, capsys, command, doc, key
):
    """Integer keys take only integral numbers (2e5 is fine, 1.7, true and
    "abc" are not), grid points and bounds only numbers, two_sided only a
    bool, and grid only an object or a list:
    anything else stops the run with exit 1 naming the key, never a
    truncated value or a refusal."""
    cfg = write_config(tmp_path, doc)
    code = main([command, "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert err["error"]["type"] == "validation"
    assert err["error"]["message"].startswith(f"{key} must be")


@pytest.mark.parametrize(
    "args, doc",
    [
        (["stein"], {**STEIN, "method": "bogus"}),
        (["stein"], {**STEIN, "method": "bogus", "grid": []}),
        (["stein"], {**STEIN, "grid": []}),
        (["stein"], {**STEIN, "tolerances": {"residual": "abc"}}),
        (["stein"], {**STEIN, "tolerances": {"residul": 1e-8}}),
        (["bound", "--workers", "0"], DENSITY),
        (["bound", "--workers", "-1"], DENSITY),
        (["bound"], {**DENSITY, "xs": []}),
        (["report"], {**DENSITY, "xs": []}),
        (["bound", "--xs", ","], DENSITY),
        (["report", "--xs", ","], DENSITY),
        (["bound", "--seed", "abc"], DENSITY),
        (["stein", "--method", "bogus"], STEIN),
    ],
)
def test_bad_input_exits_one_with_the_error_json(tmp_path, capsys, args, doc):
    """An unknown method or tolerance key, a non-numeric tolerance, an empty
    grid or xs, a worker count below 1 and a malformed flag are validation
    errors: exit 1 with the error JSON, never a default put in their place,
    a refusal, or argparse's exit 2."""
    cfg = write_config(tmp_path, {**doc, "mc": {"n": 1000}} if "spec" in doc else doc)
    code = main(args + ["--config", cfg, "--out", str(tmp_path / "out")])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert err["error"]["type"] == "validation"


@pytest.mark.parametrize(
    "zeta, k, xs, code, flags",
    [
        # G_1 = 1 on this spectrum: the estimate at x = -0.5 would be 1 +- 0
        # against 0, and E[w^-1] needs m > 2
        ([0.5, 0.5], 0, [-0.5, 0.5], 3, None),
        # E[w^-3] needs m > 6
        ([0.5] * 6, 2, [-0.5], 3, None),
        # E[w^-1] is finite but its variance needs m > 4; x = 0.5 is above the gap
        ([0.5] * 3, 0, [-0.5, 0.5], 0, ["infinite_variance", ""]),
    ],
)
def test_density_checks_columns_at_or_below_the_shift_gap(tmp_path, capsys, zeta, k, xs, code, flags):
    cfg = write_config(tmp_path, {"spec": {"zeta": zeta}, "xs": xs, "k": k, "mc": {"n": 2000}})
    assert main(["density", "--config", cfg, "--out", str(tmp_path)]) == code
    err, _ = last_json_line(capsys)
    if flags is None:
        assert err["error"]["type"] == "refusal"
        assert "density[0] at x = -0.5" in err["error"]["message"]
        return
    rows = (tmp_path / "density.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == flags


CHAOS2 = {"dim": 2, "kernels": {"2": {"order": 2, "dim": 2, "entries": [[[0, 0], 0.5]]}}}


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("stein", {"alpha": "abc", "x": 1.0}, "alpha"),
        ("stein", {"alpha": 2.0, "x": "1"}, "x"),
        ("moments", {**TIGHT, "alpha": "abc"}, "alpha"),
        ("moments", {"spec": {"zeta": [0.5] * 12, "alpha": "6"}}, "spec.alpha"),
        ("moments", {"spec": {"chaos": CHAOS2, "alpha": "abc"}}, "spec.alpha"),
        ("bound", {**TIGHT, "xs": [True, "6"]}, "xs[0]"),
        ("bound", {**TIGHT, "xs": [3.0, "6"]}, "xs[1]"),
        ("bound", {**TIGHT, "xs": "3,6"}, "xs"),
    ],
)
def test_config_numbers_are_numbers(tmp_path, capsys, command, doc, key):
    """alpha, x, a spec's alpha and each xs entry take only numbers: a
    string or a bool stops the run with exit 1 naming the key, never a
    refusal and never a silently converted value."""
    cfg = write_config(tmp_path, doc)
    code = main([command, "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert err["error"]["type"] == "validation"
    assert err["error"]["message"].startswith(f"{key} must be")


def test_xs_flag_is_parsed_from_text(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TIGHT, "mc": {"n": 2000}})
    assert main(["bound", "--config", cfg, "--out", str(tmp_path), "--xs", "3,6"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["params"]["xs"] == [3.0, 6.0]


def test_integral_float_is_an_integer(tmp_path, capsys):
    cfg = write_config(tmp_path, {**DENSITY, "mc": {"n": 2e3, "seed": 5.0}})
    assert main(["density", "--config", cfg, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert (manifest["n"], manifest["seed"]) == (2000, 5)


def test_nonfinite_number_in_a_spec_file_is_a_validation_error(tmp_path, capsys):
    spec = write_config(tmp_path, {"zeta": [0.5, NAN]}, name="spec.json")
    cfg = write_config(tmp_path, {"spec": spec})
    code = main(["moments", "--config", cfg, "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert err["error"]["message"].startswith("spec.zeta[1] must be a finite number")


def test_missing_spec_rejected(tmp_path, capsys):
    code = main(["moments", "--out", str(tmp_path)])
    err, _ = last_json_line(capsys)
    assert code == 1
    assert "spec" in err["error"]["message"]


def test_report_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "spec": {"zeta": [0.5] * 12},
            "xs": [3.0, 6.0, 12.0],
            "mc": {"n": 15_000, "seed": 13},
        },
    )
    out = tmp_path / "rep"
    code = main(["report", "--config", cfg, "--out", str(out)])
    index, _ = last_json_line(capsys)
    assert code == 0
    saved = json.loads((out / "report.json").read_text())
    assert saved["route"] == "chaos-moment"
    assert set(saved["files"]) == {"bound_report.json", "bound_summary.csv", "moments.json"}
    assert all(saved["domination_ok"].values())
    assert saved["moments"]["fourth_moment_combo"] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("route", ["chaos-moment", "malliavin-general"])
def test_report_computes_the_chaos_moments_once(tmp_path, capsys, monkeypatch, route):
    """The chaos-moment route hands its moments to ``report``; only the
    general route leaves them to the command."""
    import chaosgamma.bounds
    import chaosgamma.cli

    calls = []
    original = chaosgamma.bounds.even_chaos_moments

    def counted(F, alpha):
        calls.append(alpha)
        return original(F, alpha)

    monkeypatch.setattr(chaosgamma.bounds, "even_chaos_moments", counted)
    monkeypatch.setattr(chaosgamma.cli, "even_chaos_moments", counted)
    cfg = write_config(tmp_path, {"spec": {"zeta": [0.55] * 13}, "mc": {"n": 2000, "seed": 14}})
    out = tmp_path / "rep"
    assert main(["report", "--config", cfg, "--out", str(out), "--route", route]) == 0
    assert len(calls) == 1
    saved = json.loads((out / "moments.json").read_text())
    assert saved["fourth_moment_combo"] > 0.0


def test_output_dir_env_honored(tmp_path, capsys, monkeypatch):
    target = tmp_path / "envdir"
    monkeypatch.setenv("CHAOSGAMMA_OUT", str(target))
    code = main(["verify"])
    assert code == 0
    assert (target / "verify.json").exists()
