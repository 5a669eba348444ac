"""Command-line interface: commands, formats, exit codes, determinism."""

import json
import re

import numpy as np
import pytest

from helpers import write_csv

from simexfree import (
    CellResult,
    Dataset,
    ReplicatePairs,
    estimate_sigma_u_from_replicates,
    summarize,
)
from simexfree import cli
from simexfree.cli import main
from simexfree.extrapolate import linear_closed_form
from simexfree.targets import FAMILIES


@pytest.fixture
def linear_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 120
    x = rng.standard_normal(n)
    z = x + rng.normal(0, 0.5, n)
    y = 1.0 + 2.0 * x + rng.standard_normal(n)
    path = tmp_path / "linear.csv"
    write_csv(path, {"y": y, "z1": z})
    return path, Dataset(y=y, z=z, sigma_u=0.25)


def _scurve(x):
    return 7.5 - 1.6 / (1.0 + np.exp(0.7 * (x - 4.0)))


@pytest.fixture
def sshape_csv(tmp_path):
    rng = np.random.default_rng(1)
    n = 300
    x = rng.normal(4.0, 2.0, n)
    za = x + rng.normal(0, 0.7, n)
    zb = x + rng.normal(0, 0.7, n)
    y = _scurve(x) + rng.normal(0, 0.3, n)
    path = tmp_path / "scurve.csv"
    write_csv(path, {"y": y, "za": za, "zb": zb})
    return path


def test_estimate_linear_matches_closed_form(linear_csv, tmp_path, capsys):
    path, ds = linear_csv
    out = tmp_path / "res.json"
    rc = main([
        "estimate", "--model", "linear", "--input", str(path),
        "--covariates", "z1", "--sigma-u", "0.25", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    closed = linear_closed_form(ds, -1.0, intercept=True)
    assert abs(payload["theta_hat"]["intercept"] - closed[0]) < 1e-10
    assert abs(payload["theta_hat"]["coefficients"][0] - closed[1]) < 1e-10
    assert payload["path"] == "direct"


def test_estimate_zero_sigma_matches_naive(linear_csv, tmp_path):
    path, _ = linear_csv
    out = tmp_path / "res.json"
    rc = main([
        "estimate", "--model", "linear", "--input", str(path),
        "--covariates", "z1", "--sigma-u", "0", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert np.allclose(
        payload["theta_hat"]["coefficients"], payload["naive"]["coefficients"]
    )
    assert np.isclose(payload["theta_hat"]["intercept"], payload["naive"]["intercept"])


def test_estimate_sshape_workflow(sshape_csv, tmp_path):
    out = tmp_path / "scurve.json"
    rc = main([
        "estimate", "--model", "sshape", "--input", str(sshape_csv),
        "--sigma-u-from", "za,zb", "--grid", "0:1:11",
        "--extrapolant", "quadratic", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    coefs = payload["theta_hat"]["coefficients"]
    assert len(coefs) == 4
    assert payload["path"] == "extrapolated"
    assert len(payload["grid"]["lambda"]) == 11
    assert payload["grid"]["lambda"][-1] == 1.0
    # plateau level and drop should be in the neighborhood of the truth
    assert abs(coefs[0] - 7.5) < 0.5
    assert abs(coefs[1] + 1.6) < 0.8


def test_estimate_sshape_linear_vs_quadratic_extrapolant(sshape_csv, tmp_path):
    payloads = {}
    for kind in ("linear", "quadratic"):
        out = tmp_path / f"{kind}.json"
        rc = main([
            "estimate", "--model", "sshape", "--input", str(sshape_csv),
            "--sigma-u-from", "za,zb", "--grid", "0:1:11",
            "--extrapolant", kind, "--out", str(out),
        ])
        assert rc == 0
        payloads[kind] = json.loads(out.read_text())
    ta = np.array(payloads["linear"]["theta_hat"]["coefficients"])
    tb = np.array(payloads["quadratic"]["theta_hat"]["coefficients"])
    assert np.max(np.abs(ta - tb)) > 1e-6  # different extrapolants disagree
    for kind in ("linear", "quadratic"):
        rss = payloads[kind]["extrapolant"]["rss"]
        assert len(rss) == 4  # one residual sum per coordinate
    # the quadratic trend fits the grid estimates at least as well
    assert sum(payloads["quadratic"]["extrapolant"]["rss"]) <= sum(
        payloads["linear"]["extrapolant"]["rss"]
    ) + 1e-12


def test_estimate_json_csv_numeric_equivalence(linear_csv, tmp_path):
    path, _ = linear_csv
    jout = tmp_path / "res.json"
    cout = tmp_path / "res.csv"
    args = [
        "estimate", "--model", "linear", "--input", str(path),
        "--covariates", "z1", "--sigma-u", "0.25",
    ]
    assert main(args + ["--out", str(jout)]) == 0
    assert main(args + ["--out", str(cout), "--format", "csv", "--digits", "17"]) == 0
    payload = json.loads(jout.read_text())
    rows = dict(
        line.split(",", 1) for line in cout.read_text().splitlines()[1:]
    )
    assert float(rows["theta_hat.intercept"]) == payload["theta_hat"]["intercept"]
    assert float(rows["theta_hat.coefficients[0]"]) == payload["theta_hat"]["coefficients"][0]
    assert float(rows["naive.coefficients[0]"]) == payload["naive"]["coefficients"][0]


def test_estimate_csv_default_six_significant_digits(linear_csv, tmp_path):
    path, _ = linear_csv
    cout = tmp_path / "res6.csv"
    rc = main([
        "estimate", "--model", "linear", "--input", str(path),
        "--covariates", "z1", "--sigma-u", "0.25",
        "--out", str(cout), "--format", "csv",
    ])
    assert rc == 0
    rows = dict(line.split(",", 1) for line in cout.read_text().splitlines()[1:])
    text = rows["theta_hat.coefficients[0]"]
    assert len(text.replace(".", "").replace("-", "").lstrip("0")) <= 6


def test_sigma_u_command(tmp_path):
    rng = np.random.default_rng(2)
    z1 = rng.standard_normal(50)
    z2 = rng.standard_normal(50)
    path = tmp_path / "reps.csv"
    write_csv(path, {"y": np.zeros(50), "za": z1, "zb": z2})
    out = tmp_path / "sigma.json"
    rc = main(["sigma-u", "--input", str(path), "--replicates", "za,zb",
               "--out", str(out)])
    assert rc == 0
    got = json.loads(out.read_text())["sigma_u"][0][0]
    want = estimate_sigma_u_from_replicates(
        ReplicatePairs(z1=z1, z2=z2)
    )[0, 0]
    assert got == want


def test_sigma_u_identical_replicates_zero(tmp_path):
    z = np.arange(5.0)
    path = tmp_path / "same.csv"
    write_csv(path, {"y": np.zeros(5), "za": z, "zb": z})
    out = tmp_path / "sigma.json"
    assert main(["sigma-u", "--input", str(path), "--replicates", "za,zb",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["sigma_u"][0][0] == 0.0


def test_sigma_u_textbook_value(tmp_path):
    path = tmp_path / "three.csv"
    write_csv(path, {"y": np.zeros(3), "za": np.array([0.0, 0.0, 0.0]),
                     "zb": np.array([2.0, 0.0, -2.0])})
    out = tmp_path / "sigma.json"
    assert main(["sigma-u", "--input", str(path), "--replicates", "za,zb",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["sigma_u"][0][0] == 1.0


def test_simulate_quantile_preset(tmp_path):
    out = tmp_path / "q.json"
    rc = main(["simulate", "--preset", "quantile", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 15  # 3 estimator lines x 5 tau levels
    assert {r["estimator"] for r in rows} == {"ex", "oracle", "naive"}
    assert len({r["tau"] for r in rows}) == 5


def test_simulate_table1_layout_and_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["simulate", "--preset", "table1", "--reps", "5", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    cells = json.loads(a.read_text())["cells"]
    assert len(cells) == 12  # 3 error variances x 4 sample sizes
    assert {c["sigma_u2"] for c in cells} == {0.5, 0.25, 0.1}
    assert {c["n"] for c in cells} == {200, 300, 500, 800}


def test_simulate_default_replications_reported(monkeypatch, tmp_path):
    seen = []

    def fake_run_study(scenarios, replications, seed):
        seen.append(replications)
        est = np.zeros((2, 1))
        return [CellResult(sc, summarize(est, sc.theta0), replications, 0, 0.0)
                for sc in scenarios]

    monkeypatch.setattr(cli, "run_study", fake_run_study)
    out = tmp_path / "t1.json"
    assert main(["simulate", "--preset", "table1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert seen == [500]
    assert payload["replications"] == 500
    assert {c["replications"] for c in payload["cells"]} == {500}


def test_simulate_estimator_applies_only_to_the_table_presets(monkeypatch, tmp_path, capsys):
    for preset in ("quantile", "misspec"):
        rc = main(["simulate", "--preset", preset, "--estimator", "classical",
                   "--reps", "1", "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert f"--preset {preset}" in capsys.readouterr().err
    seen = []

    def fake_run_study(scenarios, replications, seed):
        seen.append({sc.estimator for sc in scenarios})
        return []

    monkeypatch.setattr(cli, "run_study", fake_run_study)
    for extra in ([], ["--estimator", "naive"]):
        assert main(["simulate", "--preset", "table1", "--out",
                     str(tmp_path / "t.json"), *extra]) == 0
    assert seen == [{"ex"}, {"naive"}]


def test_simulate_table23_layout(tmp_path):
    out = tmp_path / "t23.json"
    rc = main(["simulate", "--preset", "table23", "--reps", "4", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    cells = json.loads(out.read_text())["cells"]
    assert len(cells) == 12
    assert all(len(c["mean"]) == 2 for c in cells)  # two coordinates
    assert {c["sigma_u2"] for c in cells} == {0.25, 0.2, 0.1}


def test_table_command_renders_csv(tmp_path):
    src = tmp_path / "study.json"
    assert main(["simulate", "--preset", "table1", "--reps", "4", "--seed", "2",
                 "--out", str(src)]) == 0
    out = tmp_path / "study.csv"
    assert main(["table", "--input", str(src), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 13  # header plus one row per cell
    assert "mean" in lines[0].split(",")


def test_config_file_defaults_and_flag_override(linear_csv, tmp_path):
    path, _ = linear_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma-u": "0.25", "covariates": "z1"}))
    out = tmp_path / "res.json"
    for config in (["--config", str(cfg)], [f"--config={cfg}"]):
        rc = main([*config, "estimate", "--model", "linear",
                   "--input", str(path), "--out", str(out)])
        assert rc == 0
        base = json.loads(out.read_text())
        assert np.isclose(base["sigma_u"][0][0], 0.25)
        # explicit flag overrides the file value
        rc = main([*config, "estimate", "--model", "linear",
                   "--input", str(path), "--sigma-u", "0.1", "--out", str(out)])
        assert rc == 0
        assert np.isclose(json.loads(out.read_text())["sigma_u"][0][0], 0.1)


def test_model_choices_follow_the_family_table(capsys):
    assert main(["estimate", "--model", "bogus", "--input", "x.csv"]) == 3
    listed = capsys.readouterr().err.split("choose from", 1)[1]
    choices = re.findall(r"'([a-z]+)'", listed)
    assert choices == [f for f in FAMILIES if f != "generic"] + ["sshape"]


def test_exit_codes(tmp_path, linear_csv):
    path, _ = linear_csv
    # input error: missing file
    assert main(["estimate", "--model", "linear", "--input", "/nope.csv",
                 "--covariates", "z1", "--sigma-u", "0.25"]) == 1
    # input error: bad cell
    bad = tmp_path / "bad.csv"
    bad.write_text("y,z1\n1,0.5\n2,oops\n")
    assert main(["estimate", "--model", "linear", "--input", str(bad),
                 "--covariates", "z1", "--sigma-u", "0.25"]) == 1
    # configuration error: unparsable flag combination
    assert main(["estimate", "--model", "linear", "--input", str(path)]) == 3
    assert main(["estimate", "--model", "quantile", "--input", str(path),
                 "--covariates", "z1", "--sigma-u", "0.25"]) == 3
    assert main(["estimate", "--model", "bogus", "--input", str(path)]) == 3
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    assert main(["--config", str(not_an_object), "estimate", "--model", "linear",
                 "--input", str(path), "--covariates", "z1", "--sigma-u", "0.25"]) == 3
    # estimation failure: ill-posed correction (sigma_u too large)
    assert main(["estimate", "--model", "linear", "--input", str(path),
                 "--covariates", "z1", "--sigma-u", "9.0"]) == 2


def test_estimate_naive_and_forced_grid(linear_csv, tmp_path):
    path, ds = linear_csv
    nout = tmp_path / "naive.json"
    rc = main([
        "estimate", "--model", "linear", "--input", str(path),
        "--covariates", "z1", "--sigma-u", "0.25",
        "--estimator", "naive", "--out", str(nout),
    ])
    assert rc == 0
    naive = json.loads(nout.read_text())
    closed0 = linear_closed_form(ds, 0.0, intercept=True)
    assert abs(naive["theta_hat"]["coefficients"][0] - closed0[1]) < 1e-6

    gout = tmp_path / "grid.json"
    rc = main([
        "estimate", "--model", "linear", "--input", str(path),
        "--covariates", "z1", "--sigma-u", "0.25",
        "--force-grid", "--extrapolant", "rational", "--out", str(gout),
    ])
    assert rc == 0
    grid = json.loads(gout.read_text())
    assert grid["path"] == "extrapolated"
    closed = linear_closed_form(ds, -1.0, intercept=True)
    assert abs(grid["theta_hat"]["coefficients"][0] - closed[1]) < 1e-5


def test_classical_starts_its_naive_fit_at_start(sshape_csv, tmp_path):
    # the S-curve is unchanged by (b0, b1, b2, b3) -> (b0 + b1, -b1, -b2, b3);
    # a start on the mirrored branch must reach the classical naive fit too
    common = [
        "estimate", "--model", "sshape", "--input", str(sshape_csv),
        "--sigma-u-from", "za,zb", "--grid", "0:1:3", "--start", "5.9,1.6,-0.7,4",
    ]
    naive_out, cls_out = tmp_path / "naive.json", tmp_path / "cls.json"
    assert main([*common, "--estimator", "naive", "--out", str(naive_out)]) == 0
    assert main([*common, "--estimator", "classical", "--b", "2", "--out", str(cls_out)]) == 0
    naive = json.loads(naive_out.read_text())["theta_hat"]
    assert naive["coefficients"][2] < 0
    assert json.loads(cls_out.read_text())["naive"] == naive


def test_estimate_classical_baseline(linear_csv, tmp_path):
    path, ds = linear_csv
    out = tmp_path / "cls.json"
    rc = main([
        "estimate", "--model", "linear", "--input", str(path),
        "--covariates", "z1", "--sigma-u", "0.25",
        "--estimator", "classical", "--b", "40", "--seed", "11",
        "--extrapolant", "rational", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["estimator"] == "classical"
    assert len(payload["mc_se"]) == 21
    closed = linear_closed_form(ds, -1.0, intercept=True)
    assert abs(payload["theta_hat"]["coefficients"][0] - closed[1]) < 0.2
