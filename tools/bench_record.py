"""Write ``BENCH_<TAG>.json``: the evaluation counts and the code size of
one source tree, as data that the next tree's file can be diffed against.

For the tree at SRC (``src/`` beside this script by default) the file holds:

- ``environment``: the Python, numpy and scipy versions, the CPU model and
  the CPUs this process may run on;
- ``fit_mix``: what ``tools/kernel_counts.py --seed S`` prints, per item of
  the benchmark's fit mix and over every fit (``items``: fits, kernel
  values, mean-function calls, curvature values, quasi-Newton iterations,
  and the mean iterations per grid point at lambda > 0 and per
  continuation step, null where there are none), the totals of every
  continuation (``continuation``) and the exit status of every
  quasi-Newton solve (``status``);
- ``classical``: what ``tools/kernel_counts.py --classical --seed S``
  prints, the counts of the study workload's classical SIMEX cell and the
  exit statuses of its pseudo-data solves (``pseudo``) and start grids
  (``starts``);
- ``code_lines``: raw and code lines per module under SRC and their total,
  as ``tools/code_lines.py`` counts them.

Every field but ``environment`` is a count that does not depend on the
machine and repeats exactly for a seed, so two trees' files at one seed
differ only where the trees do.  No field is a timing.  The counts come
from those tools' functions, run in this process against SRC (the
benchmark's workloads are read from ``perfbench/`` beside this script).

Usage: python tools/bench_record.py --tag TAG [--src SRC] [--seed S] [--out DIR]
       (DIR defaults to the repository root)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def environment() -> dict:
    """The interpreter, the numpy and scipy versions, the CPU model and the
    CPUs this process may run on."""
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu or platform.processor(),
            "affinity": affinity}


def fit_mix(seed: int) -> dict:
    """The counts of ``tools/kernel_counts.py --seed SEED``."""
    import kernel_counts

    rows, statuses = kernel_counts.count_fits(seed)
    steps = [it for r in rows for it in r[8]]
    return {"items": kernel_counts.item_totals(rows),
            "continuation": {"steps": len(steps), "qn_iters": sum(steps)},
            "status": dict(sorted(statuses.items()))}


def classical(seed: int) -> dict:
    """The counts of ``tools/kernel_counts.py --classical --seed SEED``."""
    import kernel_counts

    counts = kernel_counts.count_classical(seed)
    record = {key: counts[key] for key in kernel_counts.COUNTS}
    for name in ("pseudo", "starts"):
        record[name] = dict(sorted(counts[name].items()))
    return record


def module_lines(src: Path) -> dict:
    """Raw and code lines of every module under ``src``, and their total."""
    import code_lines

    record, raw_total, code_total = {}, 0, 0
    for path in sorted(src.rglob("*.py")):
        raw, code = code_lines.count(path.read_text(encoding="utf-8"))
        record[path.relative_to(src).as_posix()] = {"raw": raw, "code": code}
        raw_total += raw
        code_total += code
    record["total"] = {"raw": raw_total, "code": code_total}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--src", type=Path, default=HERE.parent / "src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE.parent)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    # the package under SRC, the tools beside this script, and perfbench
    sys.path[:0] = [str(src), str(HERE), str(HERE.parent)]
    data = {"tag": args.tag, "seed": args.seed, "environment": environment(),
            "fit_mix": fit_mix(args.seed), "classical": classical(args.seed),
            "code_lines": module_lines(src)}
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
