"""Command-line front end: simulate | estimate | infer | verify.

Structured output is JSON with deterministic formatting (17 significant
digits, infinities as the string "inf"); posterior grids go to CSV with
columns W, density, cumulative.  Exit codes: 0 success, 1 domain or
numerical error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .data import Observation, load_observation, summarize
from .distributions import GriddedDist, PointMass
from .estimators import (good_toulmin_rb, good_turing_classic, good_turing_rb,
                         harmonic_mean, ipw_fixed_n, ipw_poisson,
                         rb_exact, rb_poisson_lambda, rb_poisson_weights,
                         rb_z_equation)
from .inference import infer_bayes, infer_mixed, infer_profile
from .likelihoods import ModelParams
from .moments import moment_match
from .simulate import simulate_explicit, simulate_model, toy_physics_dataset


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return json.dumps("inf" if v > 0 else "-inf")
    if math.isnan(v):
        return json.dumps("nan")
    return format(v, ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: fixed float formatting, insertion key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _fmt(obj)


def _emit(obj, path: str | None) -> None:
    text = render_json(obj) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    if args.model == "gamma-poisson":
        params = ModelParams(args.alpha, args.b, args.lam)
        x = np.full(args.domain_size, 1.0 / args.domain_size)
        ds = simulate_model(x, params, args.order, rng_seed=args.seed)
    elif args.model == "explicit":
        if not args.infile:
            raise ValueError("--model explicit requires --in with a dataset JSON")
        with open(args.infile) as fh:
            src = json.load(fh)
        p = np.asarray(src["p"], dtype=float)
        x = np.asarray(src["x"], dtype=float) if "x" in src else None
        ds = simulate_explicit(p, n=args.n, rate=args.rate,
                               rng_seed=args.seed, x=x)
    elif args.model == "toy-physics":
        temps = [float(t) for t in args.temps.split(",")]
        toy = toy_physics_dataset(args.n_states, temps, coupling=args.coupling,
                                  rng_seed=args.seed)
        n = args.n if args.n is not None else max(
            8, int(4 * toy.z_exact ** 2 / float(np.sum(toy.dataset.p ** 2))))
        ds = simulate_explicit(toy.dataset.p, n=n, rng_seed=args.seed + 1,
                               x=toy.dataset.x)
    else:
        raise ValueError(f"unknown model {args.model!r}")
    _emit(ds.to_json(), args.out)
    return 0


# ---------------------------------------------------------------------------
# estimate


def _load_h(args, obs: Observation) -> dict[int, float]:
    if not args.h_file:
        raise ValueError("harmonic mean requires --h-file")
    with open(args.h_file) as fh:
        hv = json.load(fh)
    h = np.asarray(hv["h"] if isinstance(hv, dict) else hv, dtype=float)
    return {int(i): float(h[int(i)]) for i in obs.indices}


def _cmd_estimate(args) -> int:
    obs = load_observation(args.infile)
    v = obs.v
    diagnostics: dict = {}
    if args.method == "ipw-fixed":
        res = ipw_fixed_n(obs)
    elif args.method == "ipw-poisson":
        res = ipw_poisson(obs)
    elif args.method in ("rb-exact", "rb-poisson"):
        weights = rb_exact(obs) if args.method == "rb-exact" else rb_poisson_weights(obs)
        res = rb_z_equation(obs, weights, variant=args.variant, pi=args.pi)
    elif args.method == "gt":
        gt = good_turing_classic(obs)
        out = {"method": "gt", "Z": gt.z, "W": gt.w, "W_over_Z": gt.w_over_z,
               "diagnostics": {}}
        _emit(out, args.out)
        return 0
    elif args.method == "gt-rb":
        gtr = good_turing_rb(obs)
        out = {"method": "gt-rb", "Z": gtr.z, "W": gtr.w,
               "W_over_Z": gtr.w_over_z, "diagnostics": {}}
        _emit(out, args.out)
        return 0
    elif args.method == "gtoulmin":
        lam = rb_poisson_lambda(obs)
        w_over_z = good_toulmin_rb(obs, lam)
        z = math.inf if w_over_z >= 1.0 else v / (1.0 - w_over_z)
        out = {"method": "gtoulmin", "Z": z,
               "W": z - v if math.isfinite(z) else math.inf,
               "W_over_Z": w_over_z,
               "diagnostics": {"lambda": lam, "note": "Z derived from W/Z and V"}}
        _emit(out, args.out)
        return 0
    elif args.method == "hm":
        h = _load_h(args, obs)
        if args.big_h is None:
            raise ValueError("harmonic mean requires --H")
        res = harmonic_mean(obs, h, args.big_h, mode=args.hm_mode, pi=args.pi)
    else:
        raise ValueError(f"unknown method {args.method!r}")

    z = res.value
    diagnostics.update(res.diagnostics)
    if math.isfinite(z):
        w = z - v
        w_over_z = 1.0 - v / z if z > 0 else math.nan
    else:
        w, w_over_z = math.inf, 1.0
    out = {"method": args.method, "Z": z, "W": w, "W_over_Z": w_over_z,
           "diagnostics": diagnostics}
    _emit(out, args.out)
    return 0


# ---------------------------------------------------------------------------
# infer


def _grid_for_csv(dist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the posterior CSV: the profile's own grid, the point mass,
    or a Beta-prime law (one atom or the Bayes mixture) at 201 quantiles."""
    if isinstance(dist, GriddedDist):
        return dist.w_grid, dist.density, dist.cdf
    if isinstance(dist, PointMass):
        w = np.array([dist.value])
        return w, np.array([math.inf]), np.array([1.0])
    qs = np.linspace(1e-4, 1.0 - 1e-4, 201)
    grid = dist.quantile(qs)
    # levels whose quantile underflows to the same W keep their first row
    keep = np.concatenate([[True], np.diff(grid) > 0])
    grid, qs = grid[keep], qs[keep]
    return grid, np.exp(dist.log_pdf(np.maximum(grid, 1e-300))), qs


def _cmd_infer(args) -> int:
    obs = load_observation(args.infile)
    stats = summarize(obs)
    if args.method == "bayes":
        report = infer_bayes(obs, stats)
    elif args.method == "profile":
        report = infer_profile(obs, stats, grid_points=args.grid_points)
    elif args.method == "mixed":
        report = infer_mixed(obs, stats, base=args.base)
    elif args.method in ("mle", "moment-match"):
        strategy = "MLE" if args.method == "mle" else args.strategy
        res = moment_match(obs, stats, strategy)
        out = {"method": args.method, "strategy": strategy,
               "status": res.diagnostics.get("status", "ok"),
               "params": (None if res.params is None else
                          {"alpha": res.params.alpha, "b": res.params.b,
                           "lambda": res.params.lam}),
               "residuals": list(np.atleast_1d(res.residuals)),
               "mean_W": res.w_dist.mean if res.w_dist is not None else None,
               "diagnostics": {key: val for key, val in res.diagnostics.items()
                               if isinstance(val, (int, float, str, bool, list))}}
        _emit(out, args.out_json)
        return 0
    else:
        raise ValueError(f"unknown method {args.method!r}")

    w = report.w_dist
    quantiles = {str(q): w.quantile(q / 100.0) for q in (5, 25, 50, 75, 95)}
    mean_w_over_z = (report.w_over_z_dist.mean
                     if not isinstance(report.w_over_z_dist, PointMass)
                     else report.w_over_z_dist.value)
    out = {"method": report.method, "alpha": report.alpha_summary,
           "mean_W": w.mean, "mean_W_over_Z": mean_w_over_z,
           "quantiles": quantiles, "singular_case": report.singular_case}
    for key, val in report.diagnostics.items():
        if isinstance(val, (int, float, str, bool)):
            out.setdefault("diagnostics", {})[key] = val
    _emit(out, args.out_json)

    if args.out_csv:
        grid, dens, cum = _grid_for_csv(w)
        with open(args.out_csv, "w") as fh:
            fh.write("W,density,cumulative\n")
            for gw, gd, gc in zip(grid, dens, cum):
                fh.write(f"{_csv_num(gw)},{_csv_num(gd)},{_csv_num(gc)}\n")
    return 0


def _csv_num(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    from .verify import run_verification

    results = run_verification(fast=not args.full, seed=args.seed)
    width = max(len(name) for name, _, _ in results)
    ok_all = True
    for name, passed, error in results:
        ok_all &= passed
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}"
              + (f"  ({error})" if error else ""))
    print(f"{'overall':<{width}}  {'PASS' if ok_all else 'FAIL'}")
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="missmass",
        description="Missing mass / partition function estimation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    sim.add_argument("--model", default="gamma-poisson",
                     choices=["gamma-poisson", "explicit", "toy-physics"])
    sim.add_argument("--order", default="p-c",
                     choices=["p-c", "z-dirichlet", "c-p"])
    sim.add_argument("--alpha", type=float, default=2.0)
    sim.add_argument("--b", type=float, default=1.0)
    sim.add_argument("--lambda", dest="lam", type=float, default=5.0)
    sim.add_argument("--domain-size", type=int, default=50)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--in", dest="infile", help="dataset JSON with p (explicit model)")
    sim.add_argument("--n", type=int, help="fixed sample size (explicit / toy)")
    sim.add_argument("--rate", type=float, help="Poisson rate (explicit model)")
    sim.add_argument("--n-states", type=int, default=4096)
    sim.add_argument("--temps", default="3.0,1.0,0.5")
    sim.add_argument("--coupling", type=float, default=1.0)
    sim.add_argument("--out", help="output path (default stdout)")
    sim.set_defaults(fn=_cmd_simulate)

    est = sub.add_parser("estimate", help="point estimates of Z and W")
    est.add_argument("--in", dest="infile", required=True,
                     help="observation or dataset JSON")
    est.add_argument("--method", required=True,
                     choices=["ipw-fixed", "ipw-poisson", "rb-exact",
                              "rb-poisson", "gt", "gt-rb", "gtoulmin", "hm"])
    est.add_argument("--pi", default="poisson", choices=["poisson", "fixed-n"])
    est.add_argument("--variant", default="V_over_Z",
                     choices=["V_over_Z", "M_over_Z"])
    est.add_argument("--h-file", help="JSON array (or {'h': [...]}) over the domain")
    est.add_argument("--H", dest="big_h", type=float, help="known total of h")
    est.add_argument("--hm-mode", default="ipw_nonlinear",
                     choices=["classic", "rb_linear", "ipw_nonlinear"])
    est.add_argument("--out", help="output path (default stdout)")
    est.set_defaults(fn=_cmd_estimate)

    inf = sub.add_parser("infer", help="posterior laws for W, Z, W/Z")
    inf.add_argument("--in", dest="infile", required=True)
    inf.add_argument("--method", required=True,
                     choices=["bayes", "profile", "mixed", "mle", "moment-match"])
    inf.add_argument("--base", default="L5", choices=["L5", "L9"])
    inf.add_argument("--strategy", default="C", choices=["A", "B", "C", "MLE"])
    inf.add_argument("--grid-points", type=int, default=201,
                     help="W grid size of the profile route (bayes and "
                          "mixed are closed-form laws and use no grid)")
    inf.add_argument("--out-csv", help="posterior grid CSV (W, density, cumulative)")
    inf.add_argument("--out-json", help="summary JSON path (default stdout)")
    inf.set_defaults(fn=_cmd_infer)

    ver = sub.add_parser("verify", help="run the oracle suites")
    ver.add_argument("--full", action="store_true",
                     help="full-size suites (slower)")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
