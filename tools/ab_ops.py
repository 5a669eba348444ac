"""Time one benchmark operation of two source trees against each other, in
one process, in alternating pairs.

Each tree's ``src/simexfree`` is imported under a package name of its own
(``simexfree_a`` and ``simexfree_b``), and ``perfbench/workloads.py`` beside
this script is loaded once per tree and bound to that tree's package: while
a workload sets up or runs an operation, ``simexfree`` and its submodules in
``sys.modules`` are that tree's.  The file is read, never edited, so both
trees run the same benchmark code on the same inputs.

The operations whose label starts with PREFIX (for example ``classical`` on
the study workload) make up one timed unit.  After one untimed run on each
side, the script times N pairs, A first in even pairs and B first in odd
ones.  It prints each side's median and quartiles in ms, the median of the
per-pair ratios A / B (above 1 when B is faster) and the fraction of pairs
that B wins, ties counting for neither side, as the rule for claiming a
gain asks (at least ten pairs; B wins at least nine in ten, and the medians
differ by more than the distance between A's quartiles).

Usage: python tools/ab_ops.py A_TREE B_TREE --workload W --op PREFIX
                              [--pairs N] [--seed S]
       (W is fit-mix or study: the cli workload runs other processes)
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "simexfree"
WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def import_tree(tree: Path, name: str):
    """The package ``tree/src/simexfree`` imported as ``name``, with its
    submodules as ``name.<module>``."""
    pkg = tree / "src" / PACKAGE
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(tag: str):
    """A fresh copy of ``perfbench/workloads.py``, as module ``workloads_<tag>``."""
    spec = importlib.util.spec_from_file_location(f"workloads_{tag}", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@contextmanager
def bound(name: str):
    """``simexfree`` and its submodules in ``sys.modules`` are those of the
    package ``name`` while the block runs."""
    aliases = {PACKAGE + key[len(name):]: mod for key, mod in list(sys.modules.items())
               if key == name or key.startswith(name + ".")}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        yield
    finally:
        for key, mod in saved.items():
            if mod is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = mod


class Side:
    """One tree's copy of the workload and its matching operations."""

    def __init__(self, tree: Path, tag: str, workload: str, prefix: str, seed: int):
        self.name = f"{PACKAGE}_{tag}"
        import_tree(tree, self.name)
        self.workloads = load_workloads(tag)
        with bound(self.name):
            self.workload = self.workloads.WORKLOADS[workload](seed)
            self.workload.setup()
        self.ops = [op for op in self.workload.ops() if op.label.startswith(prefix)]
        if not self.ops:
            raise SystemExit(f"no {workload} operation starts with {prefix!r}")
        self.times: list[float] = []
        self.failed = 0

    def run(self) -> float:
        """Seconds of one run of the matching operations."""
        notes = self.workloads.Notes()
        with bound(self.name):
            t0 = time.perf_counter()
            for op in self.ops:
                self.failed += op.run(notes)
            return time.perf_counter() - t0


def summary(times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4)
    return f"median {1e3 * med:9.2f} ms   quartiles {1e3 * q1:9.2f} .. {1e3 * q3:9.2f} ms"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_tree", type=Path)
    parser.add_argument("b_tree", type=Path)
    parser.add_argument("--workload", required=True, choices=("fit-mix", "study"))
    parser.add_argument("--op", required=True, help="label prefix of the operations")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv[1:])
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = [Side(tree, tag, args.workload, args.op, args.seed)
             for tree, tag in ((args.a_tree, "a"), (args.b_tree, "b"))]
    if [op.label for op in sides[0].ops] != [op.label for op in sides[1].ops]:
        raise SystemExit("the trees' workloads list different operations")
    for side in sides:
        side.run()  # lazy set-up and caches, untimed
        side.failed = 0
    a, b = sides
    for i in range(args.pairs):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            side.times.append(side.run())
    ratios = [ta / tb for ta, tb in zip(a.times, b.times)]
    wins = sum(tb < ta for ta, tb in zip(a.times, b.times))
    # fit-mix labels end in "#k", one per data set of an item
    items = Counter(op.label.split("#")[0] for op in a.ops)
    labels = ", ".join(name if k == 1 else f"{name} x{k}" for name, k in items.items())
    print(f"{args.workload} {labels}: {args.pairs} pairs, seed {args.seed}")
    print(f"A {args.a_tree}: {summary(a.times)}   failed units {a.failed}")
    print(f"B {args.b_tree}: {summary(b.times)}   failed units {b.failed}")
    print(f"A / B per pair: median {statistics.median(ratios):.3f}   "
          f"B wins {wins}/{args.pairs} ({wins / args.pairs:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
