"""Time one family's kernel per call in two source trees, in alternating
pairs: the objective layer of the benchmark, at any n and lambda.

Each tree's ``src/simexfree`` is imported under a package name of its own,
as ``tools/ab_ops.py`` does, and each (n, lambda) cell draws one data set
with ``draw`` of ``perfbench/workloads.py`` (sigma_u^2 = 0.25; read, never
edited), which both trees then evaluate at the same theta: the true
parameter of ``draw``, 1 per slope where ``workloads.TRUTH`` names none.
Three calls are timed per cell, each as a solver makes it:

    value      the family's kernel, ``FAMILIES[F].kernel(ctx, theta)``
    +grad      the kernel and its gradient callable
    +hess      the kernel, its gradient and ``grad.hessian``, on each side
               whose family states its curvature at that lambda ("-" on a
               side that does not, with no ratio)

A solver calls what ``targets.solver_kernel`` gives (the kernel's body,
without the public entry point's check of theta and error state), inside
the one numpy error state of its solve, with theta checked once at its
start.  So each side's timing loop runs in one ``np.errstate(over=
"ignore", invalid="ignore")``, on what that side's solver calls: its
family kernel itself in a tree without ``solver_kernel``, which pays for
any error state that kernel enters per call.

With ``--solve`` each cell times, in place of the three calls, one
one-row solve, ``extrapolate.minimize_target(ctx, start)``: at lambda = 0
from the family start (the S-curve start of ``workloads.sshape_start`` for
generic), and otherwise from that tree's lambda = 0 minimizer.  Each row
then also prints the iterations of A's and B's solve.

With ``--stack B`` each cell times one stacked call on B sets of
classical pseudo-data in place of the data set itself: set b's
surrogates are z + sqrt(lambda) U_b, U_b ~ N(0, sigma_u^2) (one draw per
set at the cell's seed), and the kernel evaluates the stack at lambda = 0
with theta repeated per set, as each group of classical SIMEX refits does.
Lambda is then the pseudo-data's noise level, and a negative one is
skipped.  Generic takes no stack.

Each timing is the mean of enough calls to last about 20 ms, measured
after one untimed call per side.  N pairs are taken per row, A first in
even pairs and B first in odd ones.  Each row prints A's and B's median
microseconds per call, the median of the per-pair ratios A / B (above 1
when B is faster) and the pairs that B wins.  A lambda that the family
refuses (a negative one for a grid-only family) is skipped with a note.

Usage: python tools/kernel_us.py A_TREE B_TREE [--family F] [--tau T]
                                 [--n 500,5000] [--lam 0,-0.5,0.5]
                                 [--pairs N] [--seed S] [--stack B | --solve]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_ops import PACKAGE, bound, import_tree, load_workloads  # noqa: E402

UNIT_SECONDS = 0.02


class Side:
    """One tree's kernel, with a context per (n, lambda) cell."""

    def __init__(self, tree: Path, tag: str, workloads, family: str, tau):
        self.name = f"{PACKAGE}_{tag}"
        self.pkg = import_tree(tree, self.name)
        self.workloads = workloads
        with bound(self.name):
            self.model = workloads.model_for(family, tau)
        # the kernel as a solver calls it: a tree without solver_kernel calls
        # the family kernel itself
        body = getattr(self.pkg.targets, "solver_kernel", lambda model: model.record.kernel)
        self.kernel = body(self.model)

    def context(self, y, z, lam, zs=None):
        """The cell's context, on the stacked surrogates ``zs`` when given,
        or None where the family refuses lam."""
        pkg = self.pkg
        ds = pkg.Dataset(y=y, z=z, sigma_u=self.workloads.SIGMA_U2)
        try:
            return pkg.TargetContext(dataset=ds, model=self.model, lam=lam, z=zs)
        except pkg.ConfigError:
            return None

    def curved(self, ctx, theta) -> bool:
        """Whether the kernel states its curvature at this context."""
        with bound(self.name), np.errstate(over="ignore", invalid="ignore"):
            return hasattr(self.kernel(ctx, theta)[1], "hessian")

    def start(self, ctx):
        """The cell's solve start: the family start at lambda = 0, and the
        lambda = 0 minimizer otherwise."""
        pkg, ds = self.pkg, ctx.dataset
        with bound(self.name):
            if self.model.family == "generic":
                start = self.workloads.sshape_start(ds)
            else:
                start = pkg.EstimateConfig().start_for(self.model, ds)
            if ctx.lam == 0.0:
                return start
            naive = pkg.TargetContext(dataset=ds, model=self.model, lam=0.0)
            return pkg.extrapolate.minimize_target(naive, start).theta_hat


def call(kind: str, side: Side, ctx, theta):
    """One timed unit: the kernel, then its gradient and Hessian as asked,
    or with ``kind`` "solve" one ``minimize_target`` from ``theta``."""
    kernel = side.kernel
    if kind == "solve":
        return lambda: side.pkg.extrapolate.minimize_target(ctx, theta)
    if kind == "value":
        return lambda: kernel(ctx, theta)
    if kind == "+grad":
        return lambda: kernel(ctx, theta)[1]()
    return lambda: (g := kernel(ctx, theta)[1], g(), g.hessian())


def per_call(side: Side, fn, loops: int) -> float:
    # one error state for the whole loop, as a solve has one
    with bound(side.name), np.errstate(over="ignore", invalid="ignore"):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        return (time.perf_counter() - t0) / loops


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_tree", type=Path)
    parser.add_argument("b_tree", type=Path)
    parser.add_argument("--family", default="sine")
    parser.add_argument("--tau", type=float, default=None)
    parser.add_argument("--n", default="500,5000", help="comma-separated sizes")
    parser.add_argument("--lam", default="0,-0.5,0.5", help="comma-separated noise levels")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--stack", type=int, default=0, metavar="B",
                        help="time B sets of pseudo-data at lambda = 0 per call")
    parser.add_argument("--solve", action="store_true",
                        help="time one one-row minimize_target per cell")
    args = parser.parse_args(argv[1:])
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.stack < 0 or (args.stack and args.family == "generic"):
        parser.error("--stack takes B >= 1 and a family other than generic")
    if args.stack and args.solve:
        parser.error("--stack and --solve exclude each other")
    workloads = load_workloads("us")
    sides = [Side(tree, tag, workloads, args.family, args.tau)
             for tree, tag in ((args.a_tree, "a"), (args.b_tree, "b"))]
    theta = np.array(workloads.TRUTH.get(args.family, [1.0]))
    print(f"{args.family}{'' if args.tau is None else f' tau={args.tau}'}: "
          f"us per call, {args.pairs} pairs, seed {args.seed}, theta {theta.tolist()}")
    if args.stack:
        print(f"stacks of {args.stack} pseudo-data sets z + sqrt(lam) U at lambda = 0")
        theta = np.tile(theta, (args.stack, 1))
    print(f"A {args.a_tree}\nB {args.b_tree}")
    print(f"{'n':>6} {'lam':>6} {'call':>6} {'A us':>10} {'B us':>10} {'A/B':>7} {'B wins':>7}")
    for n in (int(v) for v in args.n.split(",")):
        y, z = workloads.draw(args.family, n, np.random.default_rng([args.seed, n]))
        if args.stack:
            noise = np.sqrt(workloads.SIGMA_U2) * np.random.default_rng(
                [args.seed, n, args.stack]).standard_normal((args.stack, n, 1))
        for lam in (float(v) for v in args.lam.split(",")):
            if not args.stack:
                contexts = [side.context(y, z, lam) for side in sides]
            elif lam < 0.0:
                print(f"{n:>6} {lam:>6g} pseudo-data take lambda >= 0")
                continue
            else:
                zs = z.reshape(n, 1) + np.sqrt(lam) * noise
                contexts = [side.context(y, z, 0.0, zs) for side in sides]
            if any(ctx is None for ctx in contexts):
                print(f"{n:>6} {lam:>6g} {args.family} refuses this lambda")
                continue
            starts = [side.start(ctx) for side, ctx in zip(sides, contexts)] if args.solve else None
            for kind in ("solve",) if args.solve else ("value", "+grad", "+hess"):
                # "+hess" on each side whose kernel states its curvature there
                timed = [kind != "+hess" or side.curved(ctx, theta)
                         for side, ctx in zip(sides, contexts)]
                if not any(timed):
                    continue
                fns = [call(kind, side, ctx, starts[i] if starts else theta)
                       for i, (side, ctx) in enumerate(zip(sides, contexts))]
                js = [j for j in (0, 1) if timed[j]]
                for j in js:
                    per_call(sides[j], fns[j], 1)  # lazy set-up and caches, untimed
                loops = max(1, round(UNIT_SECONDS / per_call(sides[js[0]], fns[js[0]], 3)))
                times = ([], [])
                for i in range(args.pairs):
                    for j in js if i % 2 == 0 else js[::-1]:
                        times[j].append(per_call(sides[j], fns[j], loops))
                a, b = times
                medians = [f"{1e6 * statistics.median(t):>10.1f}" if t else f"{'-':>10}"
                           for t in times]
                ratio, wins = f"{'-':>7}", f"{'-':>7}"
                if a and b:
                    ratio = f"{statistics.median(ta / tb for ta, tb in zip(a, b)):>7.3f}"
                    wins = f"{sum(tb < ta for ta, tb in zip(a, b)):>4}/{args.pairs}"
                iters = ""
                if kind == "solve":
                    with np.errstate(over="ignore", invalid="ignore"):
                        iters = "  iters {} / {}".format(*(fn().iters for fn in fns))
                print(f"{n:>6} {lam:>6g} {kind:>6} {medians[0]} {medians[1]} {ratio} "
                      f"{wins}{iters}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
