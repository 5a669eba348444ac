"""Write the fixed-seed CLI outputs of one source tree, one file per command.

Two trees whose outputs should agree byte for byte are compared with
``diff -r``, for example a checkout against a ``git archive`` of its parent:

    python tools/fixed_outputs.py OUT_NEW
    python tools/fixed_outputs.py OUT_OLD --src PARENT/src
    diff -r OUT_OLD OUT_NEW

Where outputs move on purpose, ``--compare OLD NEW`` compares them by
number instead: for each file that differs it prints how many numbers
differ and the largest |a - b| / (1 + |a|), and it exits 1 when any file is
missing on one side or differs in anything but its numbers (text, exit
code, or the count of numbers).

The commands are ``simulate --preset table1|quantile|misspec --seed 1
--digits 17`` and ``estimate --digits 17`` for every CLI model, plus a few
estimator variants (among them a quantile fit on an uneven grid, and an
exponential fit on a forced grid and by classical SIMEX with B = 20, each
with the rational extrapolant), on a CSV that this script generates from a
fixed seed (written to ``OUT/data.csv``, so the diff covers it too), and a few
``estimate`` cases that take the fallback or fail: exponential with
sigma_u^2 = 0.6, whose direct branch collapses, with the quadratic and the
rational extrapolant; linear with sigma_u^2 = 4, which is ill-posed; and a
forced grid of two points, too few for the quadratic extrapolant.  One
more ``estimate`` reads its options from a ``--config`` file (written to
``OUT/config.json``), and its output must equal that of its flag twin,
``estimate_exponential_grid``.  Each command's standard output goes to
``OUT/<name>.txt``, preceded by its exit code and followed by the error
lines of its standard error; the other lines of standard error hold
timings and are dropped.  Commands run one after another.

Usage: python tools/fixed_outputs.py OUT [--src SRC]   (SRC defaults to src/ beside this script)
       python tools/fixed_outputs.py --compare OLD NEW
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROWS = 200
SIGMA_U = "0.25"
SIGMA_U2 = "0.25,0.05,0.05,0.2"
CONFIG = "config.json"
# the prefixes of the CLI's error messages on standard error
ERROR_PREFIXES = ("error:", "estimation error:", "configuration error:", "input error:")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


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
    # a smoothed-loss kernel without an intercept, and with a 2 x 2 sigma_u
    est("logistic_no_intercept", "logistic", "y_logistic", "--no-intercept")
    est("logistic_p2", "logistic", "y_logistic", covariates="z1,z2", sigma=SIGMA_U2)
    # the pseudo-data sets of one lambda: one quasi-Newton stack for a family
    # with an analytic gradient, one simplex solve per set for a nonsmooth one
    classical = ("--estimator", "classical", "--b", "20")
    est("sine_classical", "sine", "y_sine", *classical)
    est("lpre_classical", "lpre", "y_mult", *classical)
    est("logistic_classical", "logistic", "y_logistic", *classical)
    est("expectile_t0.3_classical", "expectile", "y_additive", "--tau", "0.3", *classical)
    est("quantile_t0.5_classical", "quantile", "y_additive", "--tau", "0.5", *classical)
    est("sine_grid", "sine", "y_sine", "--force-grid")
    # the rational extrapolant's pole search on a grid path and on classical SIMEX
    est("exponential_grid_rational", "exponential", "y_exponential", "--force-grid",
        "--extrapolant", "rational")
    est("exponential_classical_rational", "exponential", "y_exponential", *classical,
        "--extrapolant", "rational")
    # the quadratic form over two covariates, and the tau = 1/2 loss on a stack
    est("sine_p2", "sine", "y_sine", covariates="z1,z2", sigma=SIGMA_U2)
    est("lpre_p2", "lpre", "y_mult", covariates="z1,z2", sigma=SIGMA_U2)
    est("expectile_t0.5_classical", "expectile", "y_additive", "--tau", "0.5", *classical)
    # a seed of two 32-bit words, and pseudo-data scaled by a 2 x 2 sigma_u root
    est("exponential_p2_classical_seed", "exponential", "y_exponential2", *classical,
        "--seed", "4294967297", covariates="z1,z2", sigma=SIGMA_U2)
    # its lambda = 0 solve converges in 0 iterations and hands the identity
    # to lambda = 0.1, which therefore starts fresh
    est("expectile_t0.5_grid", "expectile", "y_additive", "--tau", "0.5", "--force-grid")
    # an uneven grid, where each start's secant ratio differs from 1
    est("quantile_t0.5_uneven_grid", "quantile", "y_additive", "--tau", "0.5",
        "--grid", "0,0.05,0.2,0.5,1,2")
    # the fallback from a collapsed direct branch, and estimates that fail
    est("exponential_collapse", "exponential", "y_exponential", sigma="0.6")
    est("exponential_collapse_rational", "exponential", "y_exponential",
        "--extrapolant", "rational", sigma="0.6")
    est("linear_ill_posed", "linear", "y_linear", sigma="4")
    est("exponential_grid_too_short", "exponential", "y_exponential",
        "--force-grid", "--grid", "0,1")
    # the options of estimate_exponential_grid, read from the config file
    out["estimate_exponential_grid_config"] = [
        "--config", str(csv.with_name(CONFIG)), "estimate", "--model", "exponential",
        "--input", str(csv), "--response", "y_exponential",
    ]
    return out


def compare(old: Path, new: Path) -> int:
    """Print the numeric moves of each output that differs; 1 when any
    output is missing on one side or differs in more than its numbers."""
    bad = 0
    for name in sorted({p.name for p in old.glob("*.txt")} | {p.name for p in new.glob("*.txt")}):
        if not (old / name).exists() or not (new / name).exists():
            print(f"{name}: missing on one side")
            bad = 1
            continue
        a, b = (old / name).read_text(encoding="utf-8"), (new / name).read_text(encoding="utf-8")
        if a == b:
            continue
        na, nb = NUMBER.findall(a), NUMBER.findall(b)
        exits_differ = a.partition("\n")[0] != b.partition("\n")[0]
        if exits_differ or NUMBER.sub("#", a) != NUMBER.sub("#", b) or len(na) != len(nb):
            print(f"{name}: text or exit code differs")
            bad = 1
            continue
        moves = [abs(float(x) - float(y)) / (1.0 + abs(float(x)))
                 for x, y in zip(na, nb) if x != y]
        print(f"{name}: {len(moves)} of {len(na)} numbers differ, "
              f"largest relative move {max(moves):.3g}")
    return bad


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--src", type=Path, default=here.parent / "src")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("OUT is required unless --compare is given")
    args.out.mkdir(parents=True, exist_ok=True)
    csv = args.out / "data.csv"
    write_csv(csv)
    config = {"covariates": "z1", "sigma-u": SIGMA_U, "force_grid": True, "digits": 17}
    (args.out / CONFIG).write_text(json.dumps(config) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for name, cmd in commands(csv).items():
        done = subprocess.run(
            [sys.executable, "-m", "simexfree.cli", *cmd],
            env=env, capture_output=True, text=True, check=False,
        )
        errors = [line + "\n" for line in done.stderr.splitlines()
                  if line.startswith(ERROR_PREFIXES)]
        # the CSV path differs between output directories; the outputs must not
        text = (f"exit {done.returncode}\n" + done.stdout + "".join(errors)).replace(
            str(csv), "data.csv")
        (args.out / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"{name}: exit {done.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
