"""Write the fixed-seed CLI outputs of one source tree, one file per command.

Two trees whose outputs should agree byte for byte are compared with
``diff -r``, for example a checkout against a ``git archive`` of its parent:

    python tools/fixed_outputs.py OUT_NEW
    python tools/fixed_outputs.py OUT_OLD --src PARENT/src
    diff -r OUT_OLD OUT_NEW

The commands are ``simulate --preset table1|quantile|misspec --seed 1
--digits 17`` and ``estimate --digits 17`` for every CLI model, plus a few
estimator variants, on a CSV that this script generates from a fixed seed
(written to ``OUT/data.csv``, so the diff covers it too).  Each command's
standard output goes to ``OUT/<name>.txt``, preceded by its exit code;
standard error is dropped, since it holds timings.  Commands run one after
another.

Usage: python tools/fixed_outputs.py OUT [--src SRC]   (SRC defaults to src/ beside this script)
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROWS = 200
SIGMA_U = "0.25"
SIGMA_U2 = "0.25,0.05,0.05,0.2"


def write_csv(path: Path) -> None:
    """One response column per model, two surrogate columns (sigma_u^2 = 0.25)."""
    rng = np.random.default_rng(20211)
    x1, x2 = rng.standard_normal(ROWS), rng.standard_normal(ROWS)
    z1 = x1 + 0.5 * rng.standard_normal(ROWS)
    z2 = x2 + 0.45 * rng.standard_normal(ROWS)
    eps = rng.standard_normal(ROWS)
    cols = {
        "z1": z1,
        "z2": z2,
        "y_linear": 1.0 + 2.0 * x1 + eps,
        "y_linear2": 1.0 + 2.0 * x1 - 0.5 * x2 + eps,
        "y_exponential": np.exp(x1) + eps,
        "y_exponential2": np.exp(0.5 * x1 + 0.8 * x2) + eps,
        "y_sine": np.sin(x1) + eps,
        "y_poisson": rng.poisson(np.exp(0.7 * x1)).astype(float),
        "y_poisson2": rng.poisson(np.exp(0.5 * x1 - 0.4 * x2)).astype(float),
        "y_logistic": (rng.random(ROWS) < 1.0 / (1.0 + np.exp(-(0.5 + x1)))).astype(float),
        "y_mult": np.exp(x1 + 0.5 * eps - 0.125),
        "y_additive": x1 + eps,
        "y_sshape": 1.0 + 2.0 / (1.0 + np.exp(2.0 * (x1 - 0.2))) + 0.3 * eps,
    }
    names = list(cols)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(ROWS):
            fh.write(",".join(repr(float(cols[c][i])) for c in names) + "\n")


def commands(csv: Path) -> dict[str, list[str]]:
    """Output name -> CLI arguments."""
    out = {
        f"simulate_{preset}": ["simulate", "--preset", preset, "--seed", "1", "--digits", "17"]
        for preset in ("table1", "quantile", "misspec")
    }

    def est(name, model, response, *extra, covariates="z1", sigma=SIGMA_U):
        out[f"estimate_{name}"] = [
            "estimate", "--model", model, "--input", str(csv), "--response", response,
            "--covariates", covariates, "--sigma-u", sigma, "--digits", "17", *extra,
        ]

    responses = {
        "linear": "y_linear", "exponential": "y_exponential", "sine": "y_sine",
        "poisson": "y_poisson", "logistic": "y_logistic", "lpre": "y_mult",
        "lare": "y_mult", "walsh": "y_additive", "sshape": "y_sshape",
    }
    for model, response in responses.items():
        est(model, model, response)
    for model in ("quantile", "expectile"):
        for tau in ("0.5", "0.3"):
            est(f"{model}_t{tau}", model, "y_additive", "--tau", tau)
    for model in ("linear", "exponential", "poisson"):
        est(f"{model}_p2", model, f"y_{model}2", covariates="z1,z2", sigma=SIGMA_U2)
        est(f"{model}_classical", model, f"y_{model}", "--estimator", "classical", "--b", "20")
        est(f"{model}_naive", model, f"y_{model}", "--estimator", "naive")
        est(f"{model}_grid", model, f"y_{model}", "--force-grid")
    est("linear_no_intercept", "linear", "y_linear", "--no-intercept")
    # unbatched families: one solve per pseudo-data set, quasi-Newton or simplex
    classical = ("--estimator", "classical", "--b", "20")
    est("sine_classical", "sine", "y_sine", *classical)
    est("quantile_t0.5_classical", "quantile", "y_additive", "--tau", "0.5", *classical)
    est("sine_grid", "sine", "y_sine", "--force-grid")
    return out


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=here.parent / "src")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    csv = args.out / "data.csv"
    write_csv(csv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for name, cmd in commands(csv).items():
        done = subprocess.run(
            [sys.executable, "-m", "simexfree.cli", *cmd],
            env=env, capture_output=True, text=True, check=False,
        )
        # the CSV path differs between output directories; the outputs must not
        text = f"exit {done.returncode}\n" + done.stdout.replace(str(csv), "data.csv")
        (args.out / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"{name}: exit {done.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
