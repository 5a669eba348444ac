"""Span tracing of simexfree's layers, recorded from outside the library.

Public functions are wrapped in the module that calls them (``from ... import``
binds a name per module, so ``simexfree.extrapolate.target_value`` is patched,
not only ``simexfree.targets.target_value``).  Each call records a span: name,
start, end and the index of the enclosing span.  Spans stay in memory until the
traced round ends; the round is then reduced to per-layer numbers.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module whose global is replaced, attribute, span name)
PATCHES = (
    ("simexfree.extrapolate", "target_value", "targets.value"),
    ("simexfree.extrapolate", "target_gradient", "targets.grad"),
    ("simexfree.optimize", "finite_difference_gradient", "targets.fd_grad"),
    ("simexfree.extrapolate", "minimize", "optimize.minimize"),
    ("simexfree.extrapolate", "ex_estimate", "extrapolate.ex_estimate"),
    ("simexfree.montecarlo", "ex_estimate", "extrapolate.ex_estimate"),
    ("simexfree.extrapolate", "direct_estimate", "extrapolate.direct"),
    ("simexfree.extrapolate", "grid_estimate", "extrapolate.grid"),
    ("simexfree.extrapolate", "fit_extrapolant", "extrapolate.fit_extrapolant"),
    ("simexfree.simex", "fit_extrapolant", "extrapolate.fit_extrapolant"),
    ("simexfree.montecarlo", "classical_simex", "simex.fit"),
    ("simexfree.simex", "minimize_target", "simex.solve"),
    ("simexfree.simex", "pseudo_data", "simex.pseudo_data"),
    ("simexfree.montecarlo", "simulate_dataset", "montecarlo.simulate_dataset"),
    ("simexfree.targets", "normal_cdf", "gaussian.normal_cdf"),
)

_TARGET_SPANS = ("targets.value", "targets.grad", "targets.fd_grad")


class Tracer:
    """In-memory span recorder plus the few result-derived counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.iters = 0
        self.not_converged = 0
        self.fallbacks = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, kwargs, out)
            return out

        return traced

    def _observe(self, name, args, kwargs, out):
        if name == "optimize.minimize":
            self.iters += out.iters
            self.not_converged += not out.converged
        elif name == "extrapolate.ex_estimate":
            model = args[0]
            cfg = args[2] if len(args) > 2 else kwargs.get("config")
            forced = cfg is not None and cfg.force_grid
            if model.pluggable and not forced and out.path == "extrapolated":
                self.fallbacks += 1

    @contextmanager
    def installed(self):
        """Patch every traced call site, restoring the originals on exit."""
        from simexfree.data import Dataset

        saved = []
        try:
            for mod_name, attr, span in PATCHES:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(span, orig))
            # Dataset is built in data, montecarlo, simex and the benchmark
            # itself; its validation (including eigh) lives in __post_init__
            orig_post = Dataset.__post_init__
            saved.append((Dataset, "__post_init__", orig_post))
            Dataset.__post_init__ = self.wrap("data.dataset", orig_post)
            yield self
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def summary(self) -> dict[str, float]:
        """Reduce the recorded spans to per-layer counts and seconds."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[i]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        value_calls = calls["targets.value"]
        minimize_calls = calls["optimize.minimize"]
        datasets = calls["data.dataset"]
        return {
            "targets.value_calls": value_calls,
            "targets.grad_calls": calls["targets.grad"] + calls["targets.fd_grad"],
            "targets.self_s": sum(self_s[s] for s in _TARGET_SPANS),
            "optimize.minimize_calls": minimize_calls,
            "optimize.iters": self.iters,
            "optimize.fev_per_minimize": value_calls / minimize_calls if minimize_calls else 0.0,
            "optimize.self_s": self_s["optimize.minimize"],
            "optimize.not_converged": self.not_converged,
            "extrapolate.direct_s": total["extrapolate.direct"],
            "extrapolate.grid_s": total["extrapolate.grid"],
            "extrapolate.fit_extrapolant_s": total["extrapolate.fit_extrapolant"],
            "extrapolate.fallbacks": self.fallbacks,
            "simex.fit_s": total["simex.fit"],
            "simex.solves": calls["simex.solve"],
            "simex.retries": calls["simex.solve"] - calls["simex.pseudo_data"],
            "simex.pseudo_data_s": total["simex.pseudo_data"],
            "montecarlo.simulate_dataset_s": total["montecarlo.simulate_dataset"],
            "data.dataset_us": 1e6 * total["data.dataset"] / datasets if datasets else 0.0,
            "gaussian.normal_cdf_calls": calls["gaussian.normal_cdf"],
            "gaussian.normal_cdf_s": total["gaussian.normal_cdf"],
        }

    def write_spans(self, path) -> None:
        """Write the spans as tab-separated rows: index, parent, name, start, end."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )
