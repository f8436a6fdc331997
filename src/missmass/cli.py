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
from .distributions import PointMass, cdf_table
from .estimators import (_good_toulmin, _poisson_rate, _result, good_turing_classic,
                         good_turing_rb, harmonic_mean, ipw_fixed_n, ipw_poisson,
                         rb_exact, rb_poisson_weights, rb_z_equation)
from .inference import infer_bayes, infer_mixed, infer_profile
from .likelihoods import ModelParams
from .moments import moment_match
from .simulate import (effective_states, simulate_explicit, simulate_model,
                       toy_physics_dataset)


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
    else:  # toy-physics
        temps = [float(t) for t in args.temps.split(",")]
        toy = toy_physics_dataset(args.n_states, temps, coupling=args.coupling,
                                  rng_seed=args.seed)
        n = args.n if args.n is not None else max(
            8, int(4 * effective_states(toy.dataset.p)))
        ds = simulate_explicit(toy.dataset.p, n=n, rng_seed=args.seed + 1,
                               x=toy.dataset.x)
    _emit(ds.to_json(), args.out)
    return 0


# ---------------------------------------------------------------------------
# estimate


# subcommand -> flag -> (dest, default, the methods that read it) for the
# options only some methods read.  Their parser default is None, so that
# one given to a method that does not read it is refused, not ignored.
METHOD_OPTIONS = {
    "estimate": {
        "--pi": ("pi", "poisson", ("rb-exact", "rb-poisson", "hm")),
        "--variant": ("variant", "V_over_Z", ("rb-exact", "rb-poisson")),
        "--h-file": ("h_file", None, ("hm",)),
        "--H": ("big_h", None, ("hm",)),
        "--hm-mode": ("hm_mode", "ipw_nonlinear", ("hm",)),
    },
    "infer": {
        "--base": ("base", "L5", ("mixed",)),
        "--strategy": ("strategy", "C", ("moment-match",)),
        "--out-csv": ("out_csv", None, ("bayes", "profile", "mixed")),
    },
}


def _option(args, flag: str):
    """The value of a METHOD_OPTIONS flag: as given, else its default."""
    dest, default, _ = METHOD_OPTIONS[args.command][flag]
    value = getattr(args, dest)
    return default if value is None else value


def _hm(obs: Observation, args):
    if not args.h_file or args.big_h is None:
        raise ValueError("harmonic mean requires --h-file and --H")
    with open(args.h_file) as fh:
        hv = json.load(fh)
    try:
        h = np.asarray(hv.get("h") if isinstance(hv, dict) else hv, dtype=float)
    except (TypeError, ValueError):
        h = None
    if h is None or h.shape != (obs.domain_size,):
        raise ValueError(f"--h-file needs {obs.domain_size} numbers, as [...] or {{\"h\": [...]}}")
    mode, pi = _option(args, "--hm-mode"), _option(args, "--pi")
    weights = None
    if mode == "rb_linear":
        weights = (rb_exact if pi == "fixed-n" else rb_poisson_weights)(obs)
    return harmonic_mean(obs, {int(i): float(h[i]) for i in obs.indices}, args.big_h,
                         mode=mode, weights=weights, pi=pi)


def _gtoulmin(obs: Observation, args):
    # lambda p from the rate in scaled units, finite where lambda = N / Z overflows
    ipw, lam, p, _ = _poisson_rate(obs)
    return _result(obs, "good-toulmin-rb",
                   {"lambda": obs.n / ipw.value, "note": "Z derived from W/Z and V"},
                   w_over_z=_good_toulmin(obs, lam, p))


def _rb(weights):
    return lambda obs, args: rb_z_equation(obs, weights(obs), _option(args, "--variant"),
                                           _option(args, "--pi"))


# method name -> (observation, parsed arguments) -> EstimateResult
ESTIMATES = {
    "ipw-fixed": lambda obs, args: ipw_fixed_n(obs),
    "ipw-poisson": lambda obs, args: ipw_poisson(obs),
    "rb-exact": _rb(rb_exact),
    "rb-poisson": _rb(rb_poisson_weights),
    "gt": lambda obs, args: good_turing_classic(obs),
    "gt-rb": lambda obs, args: good_turing_rb(obs),
    "gtoulmin": _gtoulmin,
    "hm": _hm,
}


def _cmd_estimate(args) -> int:
    res = ESTIMATES[args.method](load_observation(args.infile), args)
    _emit({"method": args.method, "Z": res.value, "W": res.w, "W_over_Z": res.w_over_z,
           "diagnostics": res.diagnostics}, args.out)
    return 0


# ---------------------------------------------------------------------------
# infer


# the posterior CSV holds rows of the law's CDF table between these
# levels, with CDF steps of at most _CSV_STEP
_CSV_LEVELS = (1e-4, 1.0 - 1e-4)
_CSV_STEP = 1.0 / 200.0


def _csv_rows(view) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (W, density, cumulative) of the posterior CSV: the point mass,
    or the W view of a law of u = log(W / scale) (a Beta atom, the Bayes
    mixture or the profile law) at W = scale e^u for the rows u of the
    law's CDF table (cdf_table), each cumulative the view's CDF at that W.
    Rows whose W underflows to 0 or repeats the W of the row before are
    dropped."""
    if isinstance(view, PointMass):
        return np.array([view.value]), np.array([math.inf]), np.array([1.0])
    u, cdf, density = cdf_table(view.law, _CSV_STEP, _CSV_LEVELS)
    w = view.scale * np.exp(u)
    keep = np.diff(w, prepend=0.0) > 0.0
    u, w, cdf, density = u[keep], w[keep], cdf[keep], density[keep]
    # the view's CDF at W reads u back as log(W / scale): the table's value
    # wherever that is the row's u, one more CDF pass on the other rows
    off = np.log(w / view.scale) != u
    cdf[off] = view.cdf(w[off])
    return w, density / w, cdf


def _cmd_infer(args) -> int:
    obs = load_observation(args.infile)
    stats = summarize(obs)
    if args.method == "bayes":
        report = infer_bayes(obs, stats)
    elif args.method == "profile":
        report = infer_profile(obs, stats)
    elif args.method == "mixed":
        report = infer_mixed(obs, stats, base=_option(args, "--base"))
    else:  # mle, moment-match
        strategy = "MLE" if args.method == "mle" else _option(args, "--strategy")
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

    w = report.w_dist
    percents = (5, 25, 50, 75, 95)
    quantiles = dict(zip(map(str, percents),
                         w.quantile(np.array(percents) / 100.0).tolist()))
    out = {"method": report.method, "alpha": report.alpha_summary,
           "mean_W": w.mean, "mean_W_over_Z": report.w_over_z_dist.mean,
           "quantiles": quantiles, "singular_case": report.singular_case}
    for key, val in report.diagnostics.items():
        if isinstance(val, (int, float, str, bool)):
            out.setdefault("diagnostics", {})[key] = val
    _emit(out, args.out_json)

    if args.out_csv:
        grid, dens, cum = _csv_rows(w)
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
    est.add_argument("--method", required=True, choices=list(ESTIMATES))
    est.add_argument("--pi", choices=["poisson", "fixed-n"],
                     help="inclusion probabilities (default poisson; rb-*, hm)")
    est.add_argument("--variant", choices=["V_over_Z", "M_over_Z"],
                     help="Rao-Blackwell Z equation (default V_over_Z; rb-*)")
    est.add_argument("--h-file", help="JSON array (or {'h': [...]}) over the domain (hm)")
    est.add_argument("--H", dest="big_h", type=float, help="known total of h (hm)")
    est.add_argument("--hm-mode", choices=["classic", "rb_linear", "ipw_nonlinear"],
                     help="harmonic mean form (default ipw_nonlinear; hm); rb_linear "
                     "weighs by rb-exact under --pi fixed-n, else by rb-poisson")
    est.add_argument("--out", help="output path (default stdout)")
    est.set_defaults(fn=_cmd_estimate)

    inf = sub.add_parser("infer", help="posterior laws for W, Z, W/Z")
    inf.add_argument("--in", dest="infile", required=True)
    inf.add_argument("--method", required=True,
                     choices=["bayes", "profile", "mixed", "mle", "moment-match"])
    inf.add_argument("--base", choices=["L5", "L9"],
                     help="marginal likelihood (default L5; mixed)")
    inf.add_argument("--strategy", choices=["A", "B", "C", "MLE"],
                     help="moment strategy (default C; moment-match)")
    inf.add_argument("--out-csv", help="posterior grid CSV (W, density, cumulative; "
                     "bayes, profile, mixed)")
    inf.add_argument("--out-json", help="summary JSON path (default stdout)")
    inf.set_defaults(fn=_cmd_infer)

    ver = sub.add_parser("verify", help="run the oracle suites")
    ver.add_argument("--full", action="store_true",
                     help="run each check at its acceptance criterion's size (slower)")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag, (dest, _, readers) in METHOD_OPTIONS.get(args.command, {}).items():
        if getattr(args, dest) is not None and args.method not in readers:
            print(f"error: {flag} is read only by --method {', '.join(readers)}, "
                  f"not by {args.method}", file=sys.stderr)
            return 2
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
