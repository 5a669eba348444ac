"""Command-line front end: estimate from CSV, run studies, estimate sigma_u.

Exit codes: 0 success, 1 input error, 2 estimation failure, 3 configuration
error.  Flags override values from an optional JSON config file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from .data import (
    Dataset,
    ReplicatePairs,
    _column,
    _parse_table,
    estimate_sigma_u_from_replicates,
    load_dataset,
)
from .errors import ConfigError, DataError, EstimationError, SimexfreeError
from .extrapolate import EXTRAPOLANT_KINDS, LambdaGrid, ex_estimate, naive_estimate
from .montecarlo import (
    bivariate_exponential_scenarios,
    exponential_scenarios,
    misspecification_study,
    quantile_lines_study,
    quantile_scenario,
    run_study,
)
from .simex import SimexConfig, classical_simex
from .targets import FAMILIES, MeanFunction, ModelSpec, Theta

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ESTIMATION = 2
EXIT_CONFIG = 3

CLI_FAMILIES = tuple(f for f in FAMILIES if f != "generic") + ("sshape",)


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _sshape_model() -> ModelSpec:
    """Built-in S-shaped mean b0 + b1 / (1 + exp(b2 (x - b3))), one covariate."""

    def fn(x, th):
        return th[0] + th[1] / (1.0 + np.exp(th[2] * (x[:, 0] - th[3])))

    return ModelSpec(family="generic", mean_fn=MeanFunction(fn=fn, n_params=4))


def _sshape_start(ds: Dataset) -> np.ndarray:
    """Data-driven start for the S-curve: plateau means, unit steepness,
    midpoint at the median covariate."""
    order = np.argsort(ds.z[:, 0])
    k = max(1, ds.n // 10)
    left = float(np.mean(ds.y[order[:k]]))
    right = float(np.mean(ds.y[order[-k:]]))
    mid = float(np.median(ds.z[:, 0]))
    return np.array([right, left - right, 1.0, mid])


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array(
            [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
        )
    except ValueError:
        raise ConfigError(f"could not parse numeric list {text!r}") from None


def _parse_sigma(text: str) -> np.ndarray:
    vals = _parse_floats(text)
    p = int(round(len(vals) ** 0.5))
    if p * p != len(vals):
        raise ConfigError(
            f"--sigma-u needs a row-major square matrix; got {len(vals)} values"
        )
    return vals.reshape(p, p)


def _parse_grid(text: str) -> LambdaGrid:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("grid range must be start:stop:count")
        return LambdaGrid(np.linspace(float(parts[0]), float(parts[1]), int(parts[2])))
    return LambdaGrid(_parse_floats(text))


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(";"):
        cols = [c.strip() for c in chunk.split(",") if c.strip()]
        if len(cols) != 2:
            raise ConfigError(f"replicate columns come in pairs 'a,b'; got {chunk!r}")
        pairs.append((cols[0], cols[1]))
    return pairs


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(value, bool) or value is None:
        rows.append((prefix, str(value)))
    elif isinstance(value, (int, float)):
        rows.append((prefix, float(value)))
    else:
        rows.append((prefix, str(value)))


def _format_number(x, digits: int) -> str:
    # digits >= 17 switches to the shortest round-trip representation
    if digits >= 17:
        return repr(float(x))
    return f"{float(x):.{digits}g}"


def _write_payload(payload: dict, out, fmt: str, digits: int):
    if fmt == "json":
        text = json.dumps(payload, indent=2, default=_jsonable) + "\n"
    else:
        rows = []
        _flatten("", json.loads(json.dumps(payload, default=_jsonable)), rows)
        lines = ["name,value"]
        for name, val in rows:
            if isinstance(val, float):
                lines.append(f"{name},{_format_number(val, digits)}")
            else:
                lines.append(f"{name},{val}")
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _theta_payload(theta: Theta) -> dict:
    out = {"coefficients": theta.coefficients.tolist()}
    if theta.intercept is not None:
        out["intercept"] = theta.intercept
    return out


def build_parser(defaults: dict | None = None) -> _Parser:
    """The CLI parser; ``defaults`` (keyed by option dest) override the
    built-in defaults of every subcommand."""
    parser = _Parser(prog="simexfree", description=__doc__)
    parser.add_argument("--config", help="JSON file of defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a model from a CSV/TSV file")
    est.add_argument("--model", required=True, choices=CLI_FAMILIES)
    est.add_argument("--tau", type=float, help="level for quantile/expectile")
    est.add_argument("--no-intercept", action="store_true",
                     help="drop the intercept (linear/logistic)")
    est.add_argument("--input", required=True)
    est.add_argument("--response", default="y")
    est.add_argument("--covariates", help="comma-separated covariate columns")
    est.add_argument("--sigma-u", help="row-major error covariance, e.g. '0.25'")
    est.add_argument("--sigma-u-from",
                     help="replicate column pairs 'za,zb[;z2a,z2b]'")
    est.add_argument("--estimator", default="ex", choices=("ex", "classical", "naive"))
    est.add_argument("--force-grid", action="store_true",
                     help="use the grid path even for pluggable families")
    est.add_argument("--grid", default="0:2:21",
                     help="'start:stop:count' or explicit comma list")
    est.add_argument("--extrapolant", default="quadratic", choices=EXTRAPOLANT_KINDS)
    est.add_argument("--b", type=int, default=100, help="classical replicate count")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--start", help="comma-separated optimizer start")
    est.add_argument("--nodes", type=int, default=30)
    est.add_argument("--out")
    est.add_argument("--format", default=None, choices=("json", "csv"))
    est.add_argument("--digits", type=int, default=6)

    sim = sub.add_parser("simulate", help="run a simulation study preset")
    sim.add_argument("--preset", required=True,
                     choices=("table1", "table23", "quantile", "misspec"))
    sim.add_argument("--reps", type=int, default=None,
                     help="replications (default: 500 for the table presets, "
                          "1 for quantile, 300 for misspec)")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--estimator", default=None, choices=("ex", "classical", "naive"),
                     help="estimator of the table presets (default: ex); the "
                          "quantile and misspec presets fix their own")
    sim.add_argument("--out")
    sim.add_argument("--format", default=None, choices=("json", "csv"))
    sim.add_argument("--digits", type=int, default=6)

    sig = sub.add_parser("sigma-u", help="estimate sigma_u from replicate columns")
    sig.add_argument("--input", required=True)
    sig.add_argument("--replicates", required=True,
                     help="replicate column pairs 'za,zb[;z2a,z2b]'")
    sig.add_argument("--out")
    sig.add_argument("--format", default=None, choices=("json", "csv"))
    sig.add_argument("--digits", type=int, default=6)

    tab = sub.add_parser("table", help="render a JSON study result as CSV")
    tab.add_argument("--input", required=True)
    tab.add_argument("--out")
    tab.add_argument("--digits", type=int, default=3)
    for sp in (est, sim, sig, tab):
        sp.set_defaults(**(defaults or {}))
    return parser


def _infer_format(args) -> str:
    if args.format:
        return args.format
    if args.out and args.out.endswith(".csv"):
        return "csv"
    return "json"


def _load_input(args) -> Dataset:
    if (args.covariates is None) == (args.sigma_u_from is None):
        raise ConfigError("specify exactly one of --covariates or --sigma-u-from")
    if args.covariates is not None:
        if args.sigma_u is None:
            raise ConfigError("--covariates requires --sigma-u")
        cols = [c.strip() for c in args.covariates.split(",") if c.strip()]
        return load_dataset(
            args.input,
            response=args.response,
            covariates=cols,
            sigma_u=_parse_sigma(args.sigma_u),
        )
    return load_dataset(
        args.input,
        response=args.response,
        replicates=_parse_pairs(args.sigma_u_from),
        sigma_u="from-replicates",
    )


def _build_model(args) -> ModelSpec:
    if args.model == "sshape":
        return _sshape_model()
    fam = FAMILIES[args.model]
    if fam.tau and args.tau is None:
        raise ConfigError(f"--model {args.model} requires --tau")
    return ModelSpec(
        family=args.model,
        tau=args.tau if fam.tau else None,
        intercept=not args.no_intercept if fam.intercept else None,
    )


def _cmd_estimate(args) -> int:
    model = _build_model(args)
    dataset = _load_input(args)
    start = _parse_floats(args.start) if args.start else None
    if args.model == "sshape" and start is None:
        start = _sshape_start(dataset)
    cfg = SimexConfig(
        grid=_parse_grid(args.grid),
        kind=args.extrapolant,
        force_grid=args.force_grid,
        nodes=args.nodes,
        start=start,
        b=args.b,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    if args.estimator == "naive":
        res_min = naive_estimate(model, dataset, cfg)
        theta = Theta.from_flat(res_min.theta_hat, model.has_intercept)
        payload = {
            "estimator": "naive",
            "theta_hat": _theta_payload(theta),
            "value": res_min.value,
            "iters": res_min.iters,
        }
    elif args.estimator == "classical":
        res = classical_simex(model, dataset, cfg)
        payload = _estimate_payload(res)
        payload["estimator"] = "classical"
        payload["mc_se"] = res.mc_se.tolist()
    else:
        res = ex_estimate(model, dataset, cfg)
        payload = _estimate_payload(res)
        payload["estimator"] = "ex"
    payload["n"] = dataset.n
    payload["p"] = dataset.p
    payload["sigma_u"] = dataset.sigma_u.tolist()
    print(f"estimated in {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    _write_payload(payload, args.out, _infer_format(args), args.digits)
    return EXIT_OK


def _estimate_payload(res) -> dict:
    payload = {
        "theta_hat": _theta_payload(res.theta_hat),
        "path": res.path,
        "naive": _theta_payload(res.naive),
    }
    if res.kind is not None:
        payload["extrapolant_kind"] = res.kind
    if res.grid is not None:
        payload["grid"] = {
            "lambda": res.grid.grid.values.tolist(),
            "theta": np.asarray(res.grid.thetas).tolist(),
        }
    if res.extrapolant is not None:
        payload["extrapolant"] = {
            "kind": res.extrapolant.kind,
            "gamma_hat": res.extrapolant.gamma_hat.tolist(),
            "rss": res.extrapolant.rss.tolist(),
        }
    return payload


def _cmd_simulate(args) -> int:
    fmt = _infer_format(args)
    if args.preset in ("quantile", "misspec") and args.estimator is not None:
        raise ConfigError(
            f"--preset {args.preset} fixes its own estimators; drop --estimator"
        )
    if args.preset == "quantile":
        sc = quantile_scenario(n=300, sigma_u=0.1)
        rows = quantile_lines_study(
            sc, seed=args.seed, replications=args.reps or 1
        )
        payload = {
            "preset": "quantile",
            "seed": args.seed,
            "rows": [asdict(r) for r in rows],
        }
        _write_payload(payload, args.out, fmt, args.digits)
        return EXIT_OK
    if args.preset == "misspec":
        rep = misspecification_study(seed=args.seed, replications=args.reps or 300)
        payload = {
            "preset": "misspec",
            "seed": args.seed,
            "theta0": rep.theta0,
            "sigma_u2": rep.sigma_u2,
            "cells": [asdict(c) for c in rep.cells],
        }
        _write_payload(payload, args.out, fmt, args.digits)
        return EXIT_OK
    estimator = args.estimator or "ex"
    if args.preset == "table1":
        scenarios = exponential_scenarios(estimator=estimator)
    else:
        scenarios = bivariate_exponential_scenarios(estimator=estimator)
    reps = args.reps or 500
    cells = run_study(scenarios, replications=reps, seed=args.seed)
    for c in cells:
        print(
            f"{c.scenario.name}: {c.seconds:.2f}s ({c.failures} failures)",
            file=sys.stderr,
        )
    payload = {
        "preset": args.preset,
        "seed": args.seed,
        "replications": reps,
        "cells": [
            {
                "name": c.scenario.name,
                "n": c.scenario.n,
                "sigma_u2": float(c.scenario.sigma_u[0, 0]),
                "estimator": c.scenario.estimator,
                "mean": c.summary.mean.tolist(),
                "bias": c.summary.bias.tolist(),
                "variance": c.summary.variance.tolist(),
                "mse": c.summary.mse.tolist(),
                "replications": c.replications,
                "failures": c.failures,
            }
            for c in cells
        ],
    }
    _write_payload(payload, args.out, fmt, args.digits)
    return EXIT_OK


def _cmd_sigma_u(args) -> int:
    header, table = _parse_table(args.input)
    pairs = _parse_pairs(args.replicates)
    z1 = np.column_stack([_column(header, table, a) for a, _ in pairs])
    z2 = np.column_stack([_column(header, table, b) for _, b in pairs])
    sigma = estimate_sigma_u_from_replicates(ReplicatePairs(z1=z1, z2=z2))
    payload = {"sigma_u": sigma.tolist(), "p": sigma.shape[0]}
    _write_payload(payload, args.out, _infer_format(args), args.digits)
    return EXIT_OK


def _cmd_table(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cells = payload.get("cells")
    if cells is None:
        raise DataError("input JSON has no 'cells' record")
    cols = sorted({k for c in cells for k in c})
    lines = [",".join(cols)]
    for c in cells:
        parts = []
        for k in cols:
            v = c.get(k, "")
            # fixed decimal places, matching conventional summary tables
            if isinstance(v, float):
                parts.append(f"{v:.{args.digits}f}")
            elif isinstance(v, list):
                parts.append(";".join(f"{x:.{args.digits}f}" for x in v))
            else:
                parts.append(str(v))
        lines.append(",".join(parts))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a ``--config`` JSON file supplies the subcommand defaults,
    keyed by flag name (``sigma-u`` or ``sigma_u``), and flags override it.
    Keys that name no option of the chosen subcommand are ignored."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    defaults = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise _ArgumentError("--config file must hold a JSON object")
        # the subcommand itself comes from argv only
        defaults = {k.replace("-", "_"): v for k, v in loaded.items() if k != "command"}
    return build_parser(defaults).parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: bad --config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sigma-u":
            return _cmd_sigma_u(args)
        return _cmd_table(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except SimexfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
