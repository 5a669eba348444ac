"""Print the kernel values, mean-function calls, curvature values and
quasi-Newton iterations of every fit-mix fit.

Each dataset of the benchmark's fit-mix workload (``perfbench/workloads.py``)
at the given seed is fitted once by ``ex_estimate``, as the workload fits
it.  Kernel values are counted by wrapping each ``Family.kernel`` in
``targets.FAMILIES`` (one value per row of theta, so a gradient by central
differences of the objective counts its 2q values).  Mean-function calls
are the generic family's calls of its ``mean_fn``, counted by wrapping
``targets._mean_values``, through which every call goes: a value makes one
per design chunk, and a gradient from the mean function's own central
differences 2q more per chunk, which the kernel values do not show.
Curvature values are counted by wrapping the ``grad.hessian`` of each
kernel call that offers one, one per row of
theta that has a Hessian each time it is called, that is, each Hessian the
solvers finish at an accepted point (a set-by-set stack's NaN row, a set
whose loss offers no curvature there, is not counted).  Iterations are
those of the quasi-Newton solves (``minimize`` with that method, and
``minimize_batch``), Newton steps included, and not of the simplex.
``it/pt`` is the mean of the iterations per grid point at lambda > 0, over
the fits that took the grid path, and ``it/step`` the mean of the
iterations per step of the direct path's continuation down to lambda = -1
(``extrapolate._continue``), over the fits that took the direct path ("-"
where none did).  The linear family's direct path is a closed form and
takes no continuation.  The counts do not depend on the machine and repeat
exactly for a seed.  One line per fit, then one line per item and a total:

    fit                  path          kernel  mean_fn   curv  qn_iters  it/pt  it/step

and last the steps and iterations of every continuation, on either path
(a fit whose branch collapses falls back to the grid after its steps).

With ``--classical`` it prints, in place of the fits, the counts of the
study workload's classical SIMEX operation at the seed, as the workload
builds it (R = 2 replicates of an exponential, n = 500, rational fit with
B = 100 pseudo-data sets per noise level): kernel calls, kernel values,
curvature values, quasi-Newton iterations, ``minimize_batch`` runs and
mean-function calls, one line each.  Its
iterations include those of the scalar grid fits on the observed data,
whose lambda = 0 point is the naive fit; the rational extrapolant's fit
takes no quasi-Newton iterations (it searches its pole by golden section).
Then, one line per exit status, the pseudo-data solves that ended with it:
one per set (4,000 at R = 2, 20 noise levels and B = 100), plus one more
for each retried set, whose first solve did not converge.

Two trees are compared by running this script against each:

    python tools/kernel_counts.py --seed 1
    python tools/kernel_counts.py --seed 1 --src PARENT/src

Usage: python tools/kernel_counts.py [--seed N] [--src SRC] [--classical]
       (SRC defaults to src/ beside this script)
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

COUNTS = {"calls": "kernel calls", "kernel": "kernel values", "curv": "curvature values",
          "iters": "qn_iters", "batches": "minimize_batch runs", "mean_fn": "mean_fn calls"}


@contextmanager
def counting():
    """Count kernel calls and values, curvature values, quasi-Newton
    iterations, ``minimize_batch`` runs and mean-function calls of the
    library while the block runs; yields the dict of counts, which the
    block may reset.  Its list ``steps`` holds the iterations of each
    continuation step, summed over the step's rows, and its Counter
    ``pseudo`` the exit status of each row of every classical SIMEX solve
    on pseudo-data."""
    from simexfree import simex, targets
    from simexfree import extrapolate as ext

    counts = dict.fromkeys(COUNTS, 0)
    counts["steps"] = []
    counts["pseudo"] = Counter()

    def counted_kernel(kernel):
        def run(ctx, theta):
            rows = np.shape(theta)[0] if np.ndim(theta) == 2 else 1
            counts["calls"] += 1
            counts["kernel"] += rows
            value, grad = kernel(ctx, theta)
            second = getattr(grad, "hessian", None)
            if second is not None:
                def counted_second():
                    h = second()
                    counts["curv"] += 1 if h.ndim == 2 else int(np.sum(~np.isnan(h[:, 0, 0])))
                    return h

                grad.hessian = counted_second
            return value, grad

        return run

    minimize, minimize_batch = ext.minimize, ext.minimize_batch

    def counted_minimize(f, grad=None, options=None, hess=None):
        # a tree without curvature takes no hess
        res = minimize(f, grad, options) if hess is None else minimize(f, grad, options, hess)
        if options is None or options.method == "quasi-newton":
            counts["iters"] += int(res.iters)
        return res

    def counted_batch(fg, options):
        res = minimize_batch(fg, options)
        counts["iters"] += int(np.sum(res.iters))
        counts["batches"] += 1
        return res

    continuation = ext._continue

    def counted_continue(solve, *rest):
        def step(rows, lam, starts):
            before = counts["iters"]
            res = solve(rows, lam, starts)
            counts["steps"].append(counts["iters"] - before)
            return res

        return continuation(step, *rest)

    mean_values = targets._mean_values

    def counted_mean(fn, x, theta):
        counts["mean_fn"] += 1
        return mean_values(fn, x, theta)

    row_solver = simex.row_solver

    def counted_rows(model, dataset, cfg, z=None, y=None):
        solve = row_solver(model, dataset, cfg, z, y)
        if z is None:  # the simulation-free grid on the observed data
            return solve

        def run(rows, lam, starts):
            res = solve(rows, lam, starts)
            counts["pseudo"].update(np.atleast_1d(res.status).tolist())
            return res

        return run

    families = dict(targets.FAMILIES)
    for name, record in families.items():
        targets.FAMILIES[name] = replace(record, kernel=counted_kernel(record.kernel))
    ext.minimize, ext.minimize_batch = counted_minimize, counted_batch
    ext._continue = counted_continue
    targets._mean_values = counted_mean
    simex.row_solver = counted_rows
    try:
        yield counts
    finally:
        targets.FAMILIES.update(families)
        ext.minimize, ext.minimize_batch = minimize, minimize_batch
        ext._continue = continuation
        targets._mean_values = mean_values
        simex.row_solver = row_solver


def count_fits(seed: int) -> list[tuple[str, str, str, int, int, int, int, list[int], list[int]]]:
    """(item, fit, path, kernel values, mean-function calls, curvature
    values, quasi-Newton iterations, iterations of each grid point at
    lambda > 0, iterations of each continuation step) per fit."""
    from perfbench.workloads import (
        DATASETS_PER_ITEM, FIT_ITEMS, FIT_LABELS, SIGMA_U2, _rng, draw, model_for, sshape_start,
    )
    from simexfree import Dataset, EstimateConfig
    from simexfree import extrapolate as ext

    rows = []
    with counting() as counts:
        for i, (fam, tau, n, cls) in enumerate(FIT_ITEMS):
            model = model_for(fam, tau)
            for k in range(DATASETS_PER_ITEM[cls]):
                y, z = draw(fam, n, _rng(seed, i, k))
                ds = Dataset(y=y, z=z, sigma_u=SIGMA_U2)
                cfg = EstimateConfig(start=sshape_start(ds)) if fam == "generic" else None
                counts.update(kernel=0, curv=0, iters=0, mean_fn=0, steps=[])
                res = ext.ex_estimate(model, ds, cfg)
                grid = [] if res.grid is None else res.grid.diagnostics[1:]
                points = [int(d.iters) for d in grid]
                rows.append((FIT_LABELS[i], f"{FIT_LABELS[i]}#{k}", res.path, counts["kernel"],
                             counts["mean_fn"], counts["curv"], counts["iters"], points,
                             counts["steps"]))
    return rows


def per_point(points: list[int]) -> str:
    """The mean of ``points``, the iterations of grid points or of
    continuation steps, or "-"."""
    return f"{sum(points) / len(points):.2f}" if points else "-"


def count_classical(seed: int) -> dict[str, int]:
    """The counts of the study workload's classical cell at ``seed``: the
    ``classical_n500_s0.25`` operation of ``perfbench.workloads.Study``,
    run once after the workload's set-up and warm-up, which are not
    counted."""
    from perfbench.workloads import Notes, Study

    study = Study(seed)
    study.setup()
    (op,) = [op for op in study.ops() if op.label == "classical_n500_s0.25"]
    with counting() as counts:
        if op.run(Notes()):
            raise SystemExit(f"the classical cell failed its check at seed {seed}")
    return counts


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=here.parent / "src")
    parser.add_argument("--classical", action="store_true",
                        help="count the study workload's classical SIMEX cell instead")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(here.parent)]
    if args.classical:
        counts = count_classical(args.seed)
        for key, label in COUNTS.items():
            print(f"{label:<18} {counts[key]:>8}")
        for status, solves in sorted(counts["pseudo"].items()):
            print(f"{'pseudo ' + status:<18} {solves:>8}")
        return 0
    rows = count_fits(args.seed)
    line = "{:<22} {:<13} {:>8} {:>8} {:>6} {:>9} {:>6} {:>8}"
    print(line.format("fit", "path", "kernel", "mean_fn", "curv", "qn_iters", "it/pt", "it/step"))
    for _, fit, path, *numbers, points, steps in rows:
        print(line.format(fit, path, *numbers, per_point(points),
                          per_point(steps if path == "direct" else [])))
    print()

    def summed(label, mine):
        totals = (sum(r[c] for r in mine) for c in (3, 4, 5, 6))
        points = [it for r in mine for it in r[7]]
        steps = [it for r in mine if r[2] == "direct" for it in r[8]]
        print(line.format(label, f"{len(mine)} fits", *totals, per_point(points), per_point(steps)))

    for item in dict.fromkeys(r[0] for r in rows):
        summed(item, [r for r in rows if r[0] == item])
    summed("total", rows)
    steps = [it for r in rows for it in r[8]]
    print(f"\ncontinuation: {len(steps)} steps, {sum(steps)} qn_iters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
