"""Command-line entry points: exit codes, output files, determinism."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from chaosgamma.chaos import ChaosVector
from chaosgamma.cli import main
from chaosgamma.tensors import symmetrize

TIGHT = {"spec": {"zeta": [0.5] * 12, "alpha": 6.0}}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def last_json_line(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out


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
