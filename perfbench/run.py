#!/usr/bin/env python3
"""simexfree benchmark: end-to-end throughput per workload, per-layer numbers when traced.

Run from the repository root:

    python3 perfbench/run.py --workload fit-mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced rounds and prints the per-layer metrics, including the tracing
overhead.  ``--workload all`` runs every workload both ways, one process each.
The last line of standard output is one JSON object; the lines before it
name each metric in the workload's own terms.  The benchmark pins itself to
one CPU, and its times are reference seconds (see ``Reference``).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
MICRO_LAMBDA = 0.5
# machine-speed reference (see Reference); REF_NOMINAL_S is the kernel's
# median time on a 2-core Xeon at 2.0 GHz
REF_NOMINAL_S = 0.00106
REF_KERNEL = """
import sys, time


def kernel():
    acc = 0
    for i in range(10000):
        acc += i * i % 7
    return acc


kernel()
for _ in sys.stdin:
    t0 = time.perf_counter()
    kernel()
    print(time.perf_counter() - t0, flush=True)
"""

# workload -> (light name, heavy name, unit) in the workload's own terms
OWN_NAMES = {
    "fit-mix": ("fit_direct_per_s", "fit_grid_per_s", "fits/s"),
    "study": ("study_ex_reps_per_s", "study_classical_reps_per_s", "replicates/s"),
    "cli": ("cli_other_per_s", "cli_estimate_per_s", "processes/s"),
}

_MICRO_FAMILIES = [
    ("linear", None), ("exponential", None), ("sine", None), ("poisson", None),
    ("logistic", None), ("lpre", None), ("lare", None), ("quantile", 0.5),
    ("expectile", 0.3),
]


def _micro_items():
    items = [(f, t, n) for f, t in _MICRO_FAMILIES for n in (500, 5000)]
    return items + [("walsh", None, 500), ("generic", None, 500)]


def layer_metrics():
    """(name, unit, better) of every per-layer metric, in output order."""
    from workloads import FIT_LABELS, STUDY_CELLS

    out = []
    for kind in ("value", "grad"):
        out += [(f"targets.{kind}_us.{f}.n{n}", "us", "lower") for f, _, n in _micro_items()]
    out += [
        ("targets.value_calls", "count", "lower"), ("targets.grad_calls", "count", "lower"),
        ("targets.self_s", "s", "lower"),
        ("optimize.minimize_calls", "count", "lower"), ("optimize.iters", "count", "lower"),
        ("optimize.fev_per_minimize", "count", "lower"), ("optimize.self_s", "s", "lower"),
        ("optimize.not_converged", "count", "lower"),
    ]
    out += [(f"extrapolate.fit_ms.{label}", "ms", "lower") for label in FIT_LABELS]
    out += [
        ("extrapolate.direct_s", "s", "lower"), ("extrapolate.grid_s", "s", "lower"),
        ("extrapolate.fit_extrapolant_s", "s", "lower"), ("extrapolate.fallbacks", "count", "lower"),
        ("simex.fit_s", "s", "lower"), ("simex.solves", "count", "lower"),
        ("simex.retries", "count", "lower"), ("simex.pseudo_data_s", "s", "lower"),
        ("montecarlo.simulate_dataset_s", "s", "lower"),
    ]
    out += [(f"montecarlo.cell_s.{c}", "s", "lower") for c in STUDY_CELLS]
    out += [
        ("montecarlo.rep_failures", "count", "lower"),
        ("data.dataset_us", "us", "lower"), ("data.load_dataset_ms", "ms", "lower"),
        ("gaussian.normal_cdf_calls", "count", "lower"), ("gaussian.normal_cdf_s", "s", "lower"),
        ("cli.import_s_p50", "s", "lower"), ("cli.estimate_s", "s", "lower"),
        ("cli.overhead_s", "s", "lower"),
        ("trace.overhead_light_pct", "%", "lower"), ("trace.overhead_heavy_pct", "%", "lower"),
    ]
    return out


def _per_call_us(fn, min_calls=7, min_seconds=0.05, max_calls=200) -> float:
    fn()
    times = []
    end = time.perf_counter() + min_seconds
    while len(times) < min_calls or (time.perf_counter() < end and len(times) < max_calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def microbench(seed: int) -> dict[str, float]:
    """Per-call objective and gradient cost at lambda = 0.5, each family and size."""
    import numpy as np
    from simexfree import Dataset, TargetContext, target_gradient, target_value
    from workloads import TRUTH, SIGMA_U2, _rng, draw, model_for

    out = {}
    for i, (fam, tau, n) in enumerate(_micro_items()):
        y, z = draw(fam, n, _rng(seed, 3000, i))
        ctx = TargetContext(dataset=Dataset(y=y, z=z, sigma_u=SIGMA_U2),
                            model=model_for(fam, tau), lam=MICRO_LAMBDA)
        theta = np.array(TRUTH.get(fam, [1.0]))
        out[f"targets.value_us.{fam}.n{n}"] = _per_call_us(lambda: target_value(ctx, theta))
        out[f"targets.grad_us.{fam}.n{n}"] = _per_call_us(lambda: target_gradient(ctx, theta))
    return out


def cli_layer(seed: int, scale: float) -> dict[str, float]:
    """CLI layer numbers for the in-process workloads' traced runs.

    Runs the cli workload's ``estimate`` processes and its probe (a bare
    ``import simexfree.cli`` process and in-process ``load_dataset``) a few
    times, untimed by the rounds, so these layers are measured on every
    workload of BENCHMARK.json.
    """
    from workloads import Cli, Notes

    cli = Cli(seed, scale, workdir=os.path.join(WORKDIR, f"cli-layer-{os.getpid()}"))
    notes = Notes()
    try:
        cli.setup()
        for _ in range(max(1, round(3 * scale))):
            for op in cli.ops():
                if op.cls == "heavy" and op.run(notes):
                    raise RuntimeError(f"CLI check failed: {op.label}")
            cli.probe(notes)
    finally:
        cli.close()
    return notes.values()


class Reference:
    """Machine speed, so that times stay comparable while the machine drifts.

    The benchmark shares its machine.  On a fixed kernel, each of its CPUs
    flips between a fast and a slow state (about 1.5 and 2.6 ms) within a
    second or two, independently of the other CPU.  So the benchmark runs on
    one CPU (see ``pin_to_one_cpu``), and a separate process on that CPU times
    a pure-Python kernel (about 1 ms) right before and after each timed
    interval, while the benchmark process waits.  The sample shares no heap
    and no threads with the program.  The interval is converted to reference
    seconds: its wall seconds times REF_NOMINAL_S over the mean of the two
    samples.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, "-c", REF_KERNEL], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=60)

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def factor(self) -> float:
        """Reference seconds per wall second between the last two samples."""
        return 2.0 * REF_NOMINAL_S / (self.samples[-2] + self.samples[-1])


def pin_to_one_cpu() -> int:
    """Run this process, and every thread and process it starts, on one CPU.

    Called before numpy is imported, so OpenBLAS sees one CPU and starts no
    worker threads that could slow the reference kernel.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Round:
    def __init__(self, traced: bool):
        from workloads import Notes

        self.traced = traced
        self.complete = False
        self.times: dict[str, float] = {}  # reference seconds per operation label
        self.notes = Notes()
        self.attempted = 0
        self.failed = 0
        self.layers: dict[str, float] = {}


def measure(workload, seconds: float, trace: bool, ref: Reference):
    """Repeat the workload's round until ``seconds`` have passed.

    With tracing, odd rounds are traced; at least one round of each kind
    completes.  The first round always completes.  A reference sample is
    taken before and after every operation, and each operation's time is
    converted with those two samples.
    """
    from tracing import Tracer

    min_rounds = max(workload.min_rounds, 2 if trace else 1)
    ops = workload.ops()
    rounds: list[Round] = []
    last_tracer = None
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        must_finish = len(rounds) < min_rounds
        rnd = Round(traced=trace and len(rounds) % 2 == 1)
        tracer = Tracer() if rnd.traced else None
        with tracer.installed() if tracer else nullcontext():
            label = None
            for op in ops:
                if not must_finish and time.perf_counter() >= deadline:
                    break
                _settle(rnd, label, ref)
                t0 = time.perf_counter()
                try:
                    failed = op.run(rnd.notes)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failed = op.units
                rnd.times[op.label] = time.perf_counter() - t0
                label = op.label
                rnd.attempted += op.units
                rnd.failed += failed
                if failed:
                    print(f"check failed: {op.label} ({failed}/{op.units})", file=sys.stderr)
            else:
                rnd.complete = True
            _settle(rnd, label, ref)
            if tracer and rnd.complete and hasattr(workload, "probe"):
                workload.probe(rnd.notes)
        if tracer and rnd.complete:
            rnd.layers = {**tracer.summary(), **rnd.notes.values()}
            last_tracer = tracer
        rounds.append(rnd)
    return rounds, last_tracer


def _settle(rnd: Round, label: str | None, ref: Reference) -> None:
    """Take a reference sample; convert the time of the operation just run, if any."""
    ref.sample()
    if label is not None:
        rnd.times[label] *= ref.factor()


def throughput(ops, rounds, cls: str) -> float:
    """Units per second of one class: each operation's median time over the rounds."""
    units = 0
    seconds = 0.0
    for op in ops:
        if op.cls != cls:
            continue
        times = [r.times[op.label] for r in rounds if op.label in r.times]
        if times:
            units += op.units
            seconds += statistics.median(times)
    return units / seconds if seconds > 0 else 0.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "openblas_threads": _openblas_threads(numpy),
        "seed": seed,
        "src_lines": lines,
    }


def _openblas_threads(numpy):
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def new_workload(name: str, seed: int, scale: float):
    from workloads import WORKLOADS

    kwargs = {"workdir": os.path.join(WORKDIR, f"{name}-{os.getpid()}")} if name == "cli" else {}
    return WORKLOADS[name](seed, scale, **kwargs)


def setup_once(name: str, seed: int, scale: float) -> None:
    """One set-up and clean-up; the body of each timed set-up process."""
    workload = new_workload(name, seed, scale)
    try:
        workload.setup()
    finally:
        workload.close()


def time_setup(name: str, seed: int, scale: float) -> float:
    """Seconds of one fresh process that imports simexfree and sets the workload up.

    A user pays the interpreter start, the imports, data generation and the
    warm-up in every new process, so each timed set-up is a new process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (HERE, SRC, env.get("PYTHONPATH"))))
    code = "import sys, run; run.setup_once(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, name, str(seed), str(scale)],
                   env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Set up and measure one workload; returns the result object and prints the report."""
    workload = new_workload(name, seed, scale)
    setups = []
    with Reference() as ref:
        try:
            if not trace:
                ref.sample()
                for _ in range(SETUP_REPEATS):
                    wall = time_setup(name, seed, scale)
                    ref.sample()
                    setups.append(wall * ref.factor())
            workload.setup()
            micro = microbench(seed) if trace else {}
            if trace and name != "cli":
                micro.update(cli_layer(seed, scale))
            rounds, tracer = measure(workload, seconds, trace, ref)
        finally:
            workload.close()
    ops = workload.ops()
    plain = [r for r in rounds if not r.traced]
    light, heavy = throughput(ops, plain, "light"), throughput(ops, plain, "heavy")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    own_light, own_heavy, own_unit = OWN_NAMES[name]
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          f"rounds {len(rounds)}")
    print(f"# env {json.dumps(environment(seed))}")
    print(f"# reference kernel: median {1e3 * statistics.median(ref.samples):.3f} ms over "
          f"{len(ref.samples)} samples (nominal {1e3 * REF_NOMINAL_S:.3f} ms); "
          f"times below are reference seconds")
    if setups:
        print(f"setup_s {statistics.median(setups):.4f} s, median of {SETUP_REPEATS} new processes")
    print(f"{own_light} {light:.4f} {own_unit}")
    print(f"{own_heavy} {heavy:.4f} {own_unit}")
    if name == "cli":
        procs = [t for r in plain for t in r.times.values()]
        q = statistics.quantiles(procs, n=4) if len(procs) > 1 else procs * 3
        print(f"cli_s_p50 {q[1]:.4f} s ({len(procs)} processes)")
        print(f"cli_s_p75 {q[2]:.4f} s ({len(procs)} processes)")
    print(f"fail_frac {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    rss_who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024.0
    print(f"peak_rss_mb {rss_mb:.2f} MB")
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "light_per_s": (light, "1/s"),
            "heavy_per_s": (heavy, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = _layer_values(name, ops, rounds, micro, light, heavy)
        if tracer is not None:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"spans-{name}-seed{seed}.tsv")
            tracer.write_spans(path)
            print(f"# spans of the last traced round: {os.path.relpath(path, ROOT)}")
        for key, (value, unit) in metrics.items():
            print(f"{key} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _layer_values(name, ops, rounds, micro, light, heavy):
    from workloads import FIT_LABELS, STUDY_CELLS

    traced = [r for r in rounds if r.traced and r.complete]
    per_round: dict[str, list[float]] = {}
    for r in traced:
        for k, v in r.layers.items():
            per_round.setdefault(k, []).append(v)
    values = {k: statistics.median(v) for k, v in per_round.items()}
    values.update(micro)
    # per-operation times come from the untraced rounds, so span wrappers
    # (more of them in the finite-difference families) do not skew them
    plain = [r for r in rounds if not r.traced]
    if name == "fit-mix":
        for label in FIT_LABELS:
            times = [t for r in plain for k, t in r.times.items() if k.split("#")[0] == label]
            values[f"extrapolate.fit_ms.{label}"] = 1e3 * statistics.median(times)
    if name == "study":
        for cell in STUDY_CELLS:
            times = [r.times[cell] for r in plain if cell in r.times]
            values[f"montecarlo.cell_s.{cell}"] = statistics.median(times)
    t_light = throughput(ops, traced, "light")
    t_heavy = throughput(ops, traced, "heavy")
    values["trace.overhead_light_pct"] = 100.0 * (light - t_light) / light if light else 0.0
    values["trace.overhead_heavy_pct"] = 100.0 * (heavy - t_heavy) / heavy if heavy else 0.0
    return {k: (float(values.get(k, 0.0)), unit) for k, unit, _ in layer_metrics()}


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced, each in its own process."""
    summary = {}
    for name in OWN_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: workload {name} trace {trace} exited with {proc.returncode}",
                      file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit-mix", "study", "cli", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "simexfree", "__init__.py")):
        print(f"error: no simexfree sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    cpu = pin_to_one_cpu()
    print(f"# pinned to CPU {cpu}")
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
