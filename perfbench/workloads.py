"""The three benchmark workloads: fit-mix, study and cli.

Each workload is a closed loop with one client.  ``setup`` builds every input
from the seed; ``ops`` lists the operations of one round, each of class
``light`` or ``heavy`` (the two end-to-end throughputs).  The benchmark repeats
the round; every round does identical work, so per-round counts repeat exactly.
An operation checks its own output and returns the number of failed units.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGMA_U2 = 0.25


@dataclass
class Op:
    label: str
    cls: str  # "light" or "heavy"
    units: int  # fits, replicates or processes completed per call
    run: Callable[["Notes"], int]  # returns failed units; raises on failure


class Notes:
    """Per-round values that only the operations can see (cell failures, CLI stderr)."""

    def __init__(self):
        self.sums: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def values(self) -> dict[str, float]:
        out = dict(self.sums)
        out.update({k: statistics.median(v) for k, v in self.samples.items()})
        return out


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def draw(family: str, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Responses and surrogates (sigma_u^2 = 0.25) for one family's true model."""
    x = rng.standard_normal(n)
    z = x + rng.normal(0.0, math.sqrt(SIGMA_U2), n)
    eps = rng.standard_normal(n)
    if family == "linear":
        y = 1.0 + 2.0 * x + eps
    elif family == "exponential":
        y = np.exp(x) + eps
    elif family == "sine":
        y = np.sin(x) + eps
    elif family == "poisson":
        y = rng.poisson(np.exp(x)).astype(float)
    elif family in ("lpre", "lare"):
        y = np.exp(x + 0.5 * eps - 0.125)
    elif family == "logistic":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.5 + x)))).astype(float)
    elif family == "generic":
        y = 1.0 + 2.0 / (1.0 + np.exp(2.0 * (x - 0.2))) + 0.3 * eps
    else:  # quantile, expectile, walsh: y = x + eps
        y = x + eps
    return y, z


# true parameters of ``draw``, flat layout (intercept first)
TRUTH = {"linear": [1.0, 2.0], "logistic": [0.5, 1.0], "generic": [1.0, 2.0, 2.0, 0.2]}


def sshape_model():
    """The CLI's built-in S-curve b0 + b1 / (1 + exp(b2 (x - b3)))."""
    from simexfree import MeanFunction, ModelSpec

    def fn(x, th):
        return th[0] + th[1] / (1.0 + np.exp(th[2] * (x[:, 0] - th[3])))

    return ModelSpec(family="generic", mean_fn=MeanFunction(fn=fn, n_params=4))


def sshape_start(ds) -> np.ndarray:
    """Data-driven S-curve start, as the CLI computes it for ``--model sshape``."""
    order = np.argsort(ds.z[:, 0])
    k = max(1, ds.n // 10)
    left = float(np.mean(ds.y[order[:k]]))
    right = float(np.mean(ds.y[order[-k:]]))
    return np.array([right, left - right, 1.0, float(np.median(ds.z[:, 0]))])


def model_for(family: str, tau: float | None = None):
    from simexfree import ModelSpec

    if family == "generic":
        return sshape_model()
    return ModelSpec(family=family, tau=tau)


def _tag(family: str, tau: float | None) -> str:
    return family if tau is None else f"{family}_t{round(100 * tau)}"


# --------------------------------------------------------------------------
# fit-mix
# --------------------------------------------------------------------------

# (family, tau, n, class); the class is the family's nominal path, so a
# fallback never moves a fit between the two throughputs
FIT_ITEMS = [
    *[
        (fam, tau, n, "light")
        for fam, tau in (
            ("linear", None), ("exponential", None), ("sine", None),
            ("poisson", None), ("lpre", None), ("expectile", 0.5),
        )
        for n in (500, 5000)
    ],
    *[
        (fam, tau, n, "heavy")
        for fam, tau in (("quantile", 0.5), ("expectile", 0.3), ("lare", None))
        for n in (500, 5000)
    ],
    ("logistic", None, 500, "heavy"),
    ("walsh", None, 200, "heavy"),
    ("generic", None, 500, "heavy"),
]
FIT_LABELS = [f"{_tag(f, t)}.n{n}" for f, t, n, _ in FIT_ITEMS]
DATASETS_PER_ITEM = {"light": 16, "heavy": 2}


class FitMix:
    name = "fit-mix"
    min_rounds = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        from simexfree import (
            Dataset, EstimateConfig, TargetContext, linear_closed_form, target_gradient,
        )

        ext = importlib.import_module("simexfree.extrapolate")
        self._ops = []
        for i, (fam, tau, n, cls) in enumerate(FIT_ITEMS):
            model = model_for(fam, tau)
            label = FIT_LABELS[i]
            k_max = max(1, round(DATASETS_PER_ITEM[cls] * self.scale))
            for k in range(k_max):
                y, z = draw(fam, n, _rng(self.seed, i, k))
                ds = Dataset(y=y, z=z, sigma_u=SIGMA_U2)
                cfg = EstimateConfig(start=sshape_start(ds)) if fam == "generic" else None
                ref = linear_closed_form(ds, -1.0, True) if fam == "linear" else None
                self._ops.append(
                    Op(f"{label}#{k}", cls, 1, _fit(ext, model, ds, cfg, ref))
                )
        # warm-up, so lazy initialisation is not timed: one small fit per
        # family; the generic fit costs a second at any n, so it gets one
        # objective and one gradient evaluation instead
        # (warm-up inputs do not depend on the seed, so set-up time does not
        # vary with the seed's data)
        for i, (fam, tau) in enumerate(dict.fromkeys((f, t) for f, t, _, _ in FIT_ITEMS)):
            y, z = draw(fam, 50 if fam == "walsh" else 100, _rng(0, 1000, i))
            ds = Dataset(y=y, z=z, sigma_u=SIGMA_U2)
            model = model_for(fam, tau)
            if fam == "generic":
                ctx = TargetContext(dataset=ds, model=model, lam=0.5)
                target_gradient(ctx, sshape_start(ds))
            else:
                ext.ex_estimate(model, ds)

    def ops(self) -> list[Op]:
        return self._ops

    def close(self) -> None:
        pass


def _fit(ext, model, ds, cfg, ref):
    def run(notes: Notes) -> int:
        flat = ext.ex_estimate(model, ds, cfg).theta_hat.flat_vector
        if not np.all(np.isfinite(flat)):
            return 1
        if ref is not None and np.max(np.abs(flat - ref)) > 1e-8 * (1.0 + np.max(np.abs(ref))):
            return 1
        return 0

    return run


# --------------------------------------------------------------------------
# study
# --------------------------------------------------------------------------

# acceptance 11 bounds the mean |classical - simulation-free| by 0.05 over 100
# replicates; a round has CLASSICAL_REPS, so the check allows three times
# that bound (per-replicate differences reach 0.11 on healthy code)
AGREEMENT_BOUND = 0.15
STUDY_REPS = 20
MISSPEC_REPS = 20
CLASSICAL_REPS = 2


def study_cells():
    """(cell name, scenario) for the table1 grid and the bivariate cell."""
    from simexfree.montecarlo import bivariate_exponential_scenarios, exponential_scenarios

    cells = [
        (f"exp_n{sc.n}_s{sc.sigma_u[0, 0]:g}", sc)
        for sc in exponential_scenarios((0.5, 0.25, 0.1), (200, 500, 800))
    ]
    biv = bivariate_exponential_scenarios((0.1,), (800,))[0]
    return cells + [("biv_n800_s0.1", biv)]


STUDY_CELLS = [
    *[f"exp_n{n}_s{s:g}" for s in (0.5, 0.25, 0.1) for n in (200, 500, 800)],
    "biv_n800_s0.1", "misspec_n2000", "misspec_n8000", "classical_n500_s0.25",
]


class Study:
    name = "study"
    min_rounds = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        from simexfree import EstimateConfig, ModelSpec
        from simexfree.montecarlo import Scenario

        mc = importlib.import_module("simexfree.montecarlo")
        reps = max(2, round(STUDY_REPS * self.scale))
        mreps = max(2, round(MISSPEC_REPS * self.scale))
        ops = []
        for i, (name, sc) in enumerate(study_cells()):
            ops.append(Op(name, "light", reps, _cell(mc, sc, reps, self.seed * 100 + i)))
        for n in (2000, 8000):
            ops.append(Op(f"misspec_n{n}", "light", 2 * mreps, _misspec(mc, n, mreps, self.seed)))
        # classical SIMEX and its simulation-free twin see the same datasets
        # (same seed, same cell index); rational, as in acceptance 11
        twin = dict(
            model=ModelSpec(family="exponential"), theta0=[1.0], n=500,
            sigma_u=[[0.25]], config=EstimateConfig(kind="rational"), simex_b=100,
        )
        classical = Scenario(name="classical", estimator="classical", **twin)
        ex = Scenario(name="ex", estimator="ex", **twin)
        shared: dict[str, np.ndarray] = {}
        cseed = self.seed * 100 + 99
        ops.append(Op("classical_n500_s0.25", "heavy", CLASSICAL_REPS,
                      _cell(mc, classical, CLASSICAL_REPS, cseed, keep=shared)))
        ops.append(Op("ex_twin_n500_s0.25", "light", CLASSICAL_REPS,
                      _twin(mc, ex, CLASSICAL_REPS, cseed, shared)))
        self._ops = ops
        # warm-up: each estimator once, classical with two pseudo-data sets;
        # fixed inputs, as for fit-mix
        mc.run_study([Scenario(name="w", estimator="ex", **twin)], 2, seed=0)
        mc.run_study(
            [Scenario(name="w", estimator="classical", **dict(twin, simex_b=2))], 2, seed=0
        )

    def ops(self) -> list[Op]:
        return self._ops

    def close(self) -> None:
        pass


def _cell(mc, sc, reps, seed, keep=None):
    def run(notes: Notes) -> int:
        if keep is not None:
            keep.clear()
        cell = mc.run_study([sc], reps, seed=seed, keep_estimates=True)[0]
        notes.add("montecarlo.rep_failures", cell.failures)
        if not np.all(np.isfinite(cell.estimates)):
            return reps
        if keep is not None:
            keep["estimates"] = cell.estimates
        return cell.failures

    return run


def _twin(mc, sc, reps, seed, shared):
    def run(notes: Notes) -> int:
        cell = mc.run_study([sc], reps, seed=seed, keep_estimates=True)[0]
        notes.add("montecarlo.rep_failures", cell.failures)
        other = shared.get("estimates")
        if other is None or cell.failures or other.shape != cell.estimates.shape:
            return reps
        if float(np.mean(np.abs(other - cell.estimates))) >= AGREEMENT_BOUND:
            return reps
        return 0

    return run


def _misspec(mc, n, reps, seed):
    def run(notes: Notes) -> int:
        report = mc.misspecification_study(seed=seed, n_values=(n,), replications=reps)
        return 0 if all(math.isfinite(c.mean) for c in report.cells) else 2 * reps

    return run


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

CLI_N = 5000
_ESTIMATED = re.compile(r"estimated in ([0-9.]+)s")


class Cli:
    name = "cli"
    # p75 of process time needs at least 40 processes (10 beyond it)
    min_rounds = 8

    def __init__(self, seed: int, scale: float = 1.0, workdir: str = "."):
        self.seed = seed
        self.min_rounds = max(1, round(self.min_rounds * scale))
        self.workdir = workdir
        self.src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def _argv(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "simexfree.cli", *args]

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        return env

    def setup(self) -> None:
        from simexfree import (
            EstimateConfig, ModelSpec, ReplicatePairs, estimate_sigma_u_from_replicates,
            ex_estimate, load_dataset,
        )

        os.makedirs(self.workdir, exist_ok=True)
        ops = []
        for i, (fam, tau) in enumerate((("linear", None), ("poisson", None), ("quantile", 0.5))):
            y, z = draw(fam, CLI_N, _rng(self.seed, 2000, i))
            path = os.path.join(self.workdir, f"{fam}.csv")
            np.savetxt(path, np.column_stack([y, z]), fmt="%.17g", delimiter=",",
                       header="y,z", comments="")
            ds = load_dataset(path, response="y", covariates=["z"], sigma_u=[[SIGMA_U2]])
            model = ModelSpec(family=fam, tau=tau)
            ref = ex_estimate(model, ds, EstimateConfig()).theta_hat.flat_vector
            args = ["estimate", "--model", fam, "--input", path, "--covariates", "z",
                    "--sigma-u", str(SIGMA_U2)]
            if tau is not None:
                args += ["--tau", str(tau)]
            ops.append(Op(f"estimate_{fam}", "heavy", 1, self._estimate(args, ref)))
        rng = _rng(self.seed, 2100)
        x = rng.standard_normal(CLI_N)
        za = x + rng.normal(0.0, 0.5, CLI_N)
        zb = x + rng.normal(0.0, 0.5, CLI_N)
        path = os.path.join(self.workdir, "replicates.csv")
        np.savetxt(path, np.column_stack([za, zb]), fmt="%.17g", delimiter=",",
                   header="za,zb", comments="")
        ref = estimate_sigma_u_from_replicates(ReplicatePairs(z1=za, z2=zb))
        ops.append(Op("sigma_u", "light", 1, self._sigma_u(path, ref)))
        path, rows = self._study_json(rng)
        ops.append(Op("table", "light", 1, self._table(path, rows)))
        self._ops = ops
        self._csvs = [os.path.join(self.workdir, f"{f}.csv") for f in ("linear", "poisson", "quantile")]

    def _study_json(self, rng):
        cells = [
            {
                "name": f"exponential n={n} su2={s2:g}", "n": n, "sigma_u2": s2,
                "estimator": "ex", "mean": [float(1 + 0.05 * rng.standard_normal())],
                "bias": [float(0.05 * rng.standard_normal())],
                "variance": [float(rng.uniform(0.001, 0.05))],
                "mse": [float(rng.uniform(0.001, 0.05))], "replications": 500,
                "failures": 0,
            }
            for s2 in (0.5, 0.25, 0.1) for n in (200, 300, 500, 800)
        ]
        path = os.path.join(self.workdir, "study.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"preset": "table1", "seed": self.seed, "cells": cells}, fh)
        return path, cells

    def _process(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run(argv, capture_output=True, text=True, env=self._env(),
                              cwd=self.workdir, timeout=120)

    def _estimate(self, args, ref):
        argv = self._argv(*args)

        def run(notes: Notes) -> int:
            t0 = time.perf_counter()
            proc = self._process(argv)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                return 1
            m = _ESTIMATED.search(proc.stderr)
            if m:
                notes.sample("cli.estimate_s", float(m.group(1)))
                notes.sample("cli.overhead_s", wall - float(m.group(1)))
            th = json.loads(proc.stdout)["theta_hat"]
            flat = np.array(([th["intercept"]] if "intercept" in th else []) + th["coefficients"])
            ok = flat.shape == ref.shape and np.allclose(flat, ref, rtol=1e-9, atol=1e-12)
            return 0 if ok else 1

        return run

    def _sigma_u(self, path, ref):
        argv = self._argv("sigma-u", "--input", path, "--replicates", "za,zb")

        def run(notes: Notes) -> int:
            proc = self._process(argv)
            if proc.returncode != 0:
                return 1
            got = np.array(json.loads(proc.stdout)["sigma_u"])
            return 0 if got.shape == ref.shape and np.allclose(got, ref, rtol=1e-9) else 1

        return run

    def _table(self, path, rows):
        argv = self._argv("table", "--input", path)
        header = ",".join(sorted({k for c in rows for k in c}))

        def run(notes: Notes) -> int:
            proc = self._process(argv)
            lines = proc.stdout.splitlines()
            ok = proc.returncode == 0 and len(lines) == 1 + len(rows) and lines[0] == header
            return 0 if ok else 1

        return run

    def probe(self, notes: Notes) -> None:
        """Traced rounds only: import time of a bare CLI process, CSV loading in-process."""
        from simexfree import load_dataset

        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import simexfree.cli"],
                              env=self._env(), cwd=self.workdir, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("import simexfree.cli failed")
        notes.sample("cli.import_s_p50", time.perf_counter() - t0)
        for path in self._csvs:
            t0 = time.perf_counter()
            load_dataset(path, response="y", covariates=["z"], sigma_u=[[SIGMA_U2]])
            notes.sample("data.load_dataset_ms", 1e3 * (time.perf_counter() - t0))

    def ops(self) -> list[Op]:
        return self._ops

    def close(self) -> None:
        for name in ("linear.csv", "poisson.csv", "quantile.csv", "replicates.csv", "study.json"):
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.remove(path)
        if os.path.isdir(self.workdir) and not os.listdir(self.workdir):
            os.rmdir(self.workdir)


WORKLOADS = {"fit-mix": FitMix, "study": Study, "cli": Cli}
