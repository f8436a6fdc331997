"""The benchmark's workloads: inputs built from a workload seed, the fixed
request list of one pass, and the output checks of every request.

One request is one ``missmass.cli.main(argv)`` call or one library
entry-point call; the route class of a request picks the latency metric it
feeds.  Requests look functions up on the package at call time, so the
traced run sees the rebound (traced) names.

* ``fixtures-cli``: the CLI matrix in-process on the shipped fixtures, plus
  one ``verify`` call.
* ``wide-posterior``: library calls on Gamma-Poisson draws over a domain of
  20 000 points.
* ``calibration-mc``: a Monte Carlo study through public functions only:
  Gamma-Poisson replicates at expected N = 10 and 40, and toy-physics
  replicates with an enumerated ground truth.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)
FIXTURES = ("all_singletons", "dataset_model_draw", "delta_s_zero",
            "full_coverage", "gt_example", "regular_large", "regular_small",
            "single_point")

# returned by a request that does not apply to its input (an empty draw, or
# rb_exact beyond its size cap); it is neither timed nor counted
SKIP = object()


class CheckError(Exception):
    """A request's output broke one of the benchmark's checks."""


@dataclass
class Request:
    name: str
    route: str
    call: Callable[[], object]
    check: Callable[[object], None]
    input: str = ""


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit per-request seed derived from the workload seed."""
    return int(np.random.SeedSequence((seed, *key)).generate_state(1)[0])


def _close(a: float, b: float, rel: float, what: str) -> None:
    if not abs(a - b) <= rel * max(abs(a), abs(b)):
        raise CheckError(f"{what}: {a!r} != {b!r} (rel tol {rel:g})")


def _nondecreasing(qs, what: str) -> None:
    if not all(math.isfinite(q) and q >= 0.0 for q in qs):
        raise CheckError(f"{what}: quantiles not finite and >= 0: {qs}")
    if any(b < a for a, b in zip(qs, qs[1:])):
        raise CheckError(f"{what}: quantiles decrease: {qs}")


def beta_prime_quantiles(alpha: float, facts: dict, levels=QUANTILES) -> list[float]:
    """Closed-form mixed-route quantiles W = V s / (1 - s),
    s ~ Beta(alpha Y, alpha X + N)."""
    from scipy.special import betaincinv

    s = betaincinv(alpha * facts["Y"], alpha * facts["X"] + facts["N"],
                   np.asarray(levels))
    return list(facts["V"] * s / (1.0 - s))


def _check_mixed(alpha: float, qs, facts: dict, levels, what: str) -> None:
    for q, ref in zip(qs, beta_prime_quantiles(alpha, facts, levels)):
        _close(q, float(ref), 1e-9, f"{what} vs closed-form Beta-prime")


# ---------------------------------------------------------------------------
# library request records


def infer_record(report, levels=QUANTILES) -> dict:
    w, z = report.w_dist, report.z_dist
    rec = {"singular": report.singular_case, "alpha": report.alpha_summary,
           "q": [w.quantile(q) for q in levels],
           "zq": [z.quantile(q) for q in levels]}
    for key, val in report.diagnostics.items():
        if isinstance(val, (int, float, str, bool)):
            rec[key] = val
    return rec


def moment_record(res) -> dict:
    p = res.params
    return {"status": res.diagnostics.get("status", "ok"),
            "params": None if p is None else [p.alpha, p.b, p.lam],
            "residuals": [float(r) for r in np.atleast_1d(res.residuals)],
            "mean_W": None if res.w_dist is None else res.w_dist.mean}


def check_infer(rec: dict, facts: dict, what: str) -> None:
    _nondecreasing(rec["q"], what)
    for w, z in zip(rec["q"], rec["zq"]):
        _close(z, facts["V"] + w, 1e-12, f"{what}: Z quantile != V + W quantile")
    if rec["singular"] is not None:
        raise CheckError(f"{what}: unexpected singular case {rec['singular']}")


def check_moment(rec: dict, what: str) -> None:
    if rec["status"] not in ("ok", "boundary", "no-root", "lambda_zero"):
        raise CheckError(f"{what}: unknown status {rec['status']!r}")
    if rec["status"] == "ok":
        if not all(math.isfinite(v) and v > 0 for v in rec["params"]):
            raise CheckError(f"{what}: parameters not positive: {rec['params']}")
        if not (math.isfinite(rec["mean_W"]) and rec["mean_W"] >= 0):
            raise CheckError(f"{what}: mean W {rec['mean_W']!r}")


def check_z(z: float, w: float, v: float, rel: float, what: str) -> None:
    if math.isinf(z):
        if not math.isinf(w):
            raise CheckError(f"{what}: Z infinite but W = {w!r}")
        return
    if not (math.isfinite(z) and z >= 0 and math.isfinite(w)):
        raise CheckError(f"{what}: Z = {z!r}, W = {w!r}")
    _close(z, v + w, rel, f"{what}: Z != V + W")


def estimator_requests(mm, state: dict, tag: str, exact: bool,
                       anchor: dict | None = None) -> list[Request]:
    """The point estimators on one observation, read from ``state``; with
    ``anchor`` (h, summing to 1 over the domain) also the harmonic mean."""

    def obs():
        return state.get("obs", SKIP)

    def z_only(method):
        def call():
            o = obs()
            return o if o is SKIP else {"Z": getattr(mm, method)(o).value}
        return call

    def check_finite(rec):
        if not (math.isinf(rec["Z"]) or rec["Z"] > 0):
            raise CheckError(f"Z = {rec['Z']!r}")

    def gt():
        o = obs()
        if o is SKIP:
            return o
        r = mm.good_turing_classic(o)
        return {"Z": r.z, "W": r.w, "W_over_Z": r.w_over_z}

    def gt_rb():
        o = obs()
        if o is SKIP:
            return o
        r = mm.good_turing_rb(o)
        return {"Z": r.z, "W": r.w, "W_over_Z": r.w_over_z}

    def check_gt(rec):
        check_z(rec["Z"], rec["W"], facts_of(state)["V"], 1e-8, "good-turing")

    def gtoulmin():
        o = obs()
        if o is SKIP:
            return o
        return {"W_over_Z": mm.good_toulmin_rb(o, mm.rb_poisson_lambda(o))}

    def check_ratio(rec):
        if not 0.0 <= rec["W_over_Z"] <= 1.0:
            raise CheckError(f"W/Z = {rec['W_over_Z']!r}")

    def rb(weights_fn, capped):
        def call():
            o = obs()
            if o is SKIP or (capped and (o.n > 64 or o.m > 32)):
                return SKIP
            weights = getattr(mm, weights_fn)(o)
            return {"Z": mm.rb_z_equation(o, weights).value,
                    "v_sum": math.fsum(weights.v.values())}
        return call

    def check_rb(rec):
        _close(rec["v_sum"], facts_of(state)["N"], 1e-9, "sum of v(i) != N")
        check_finite(rec)

    reqs = [Request(f"{tag}:ipw-fixed", "estimate", z_only("ipw_fixed_n"), check_finite),
            Request(f"{tag}:ipw-poisson", "estimate", z_only("ipw_poisson"), check_finite),
            Request(f"{tag}:gt", "estimate", gt, check_gt),
            Request(f"{tag}:gt-rb", "estimate", gt_rb, check_gt),
            Request(f"{tag}:gtoulmin", "estimate", gtoulmin, check_ratio),
            Request(f"{tag}:rb-poisson", "estimate", rb("rb_poisson_weights", False),
                    check_rb)]
    if exact:
        reqs.append(Request(f"{tag}:rb-exact", "estimate", rb("rb_exact", True),
                            check_rb))
    if anchor is not None:
        def hm():
            return {"Z": mm.harmonic_mean(state["obs"], anchor, 1.0).value}
        reqs.append(Request(f"{tag}:hm", "estimate", hm, check_finite))
    return reqs


def mixed_requests(mm, state: dict, tag: str, levels=QUANTILES) -> list[Request]:
    """infer_mixed on L5 and L9, and the plain MLE, on ``state['obs']``."""

    def mixed(base):
        def call():
            if "obs" not in state:
                return SKIP
            rep = mm.infer_mixed(state["obs"], state["stats"], base)
            return infer_record(rep, levels)

        def check(rec):
            what = f"mixed {base}"
            _nondecreasing(rec["q"], what)
            for w, z in zip(rec["q"], rec["zq"]):
                _close(z, facts_of(state)["V"] + w, 1e-12, f"{what}: Z != V + W")
            if rec["singular"] is None:
                _check_mixed(rec["alpha"], rec["q"], facts_of(state), levels, what)
            if base == "L5" and "z" in state:
                # a simulated replicate: does the outer interval cover the true W?
                w_true = state["z"] - facts_of(state)["V"]
                state["covered"] = rec["q"][0] <= w_true <= rec["q"][-1]
        return call, check

    def mle():
        if "obs" not in state:
            return SKIP
        return moment_record(mm.moment_match(state["obs"], state["stats"], "MLE"))

    l5, l5_check = mixed("L5")
    l9, l9_check = mixed("L9")
    return [Request(f"{tag}:mixed-L5", "mixed", l5, l5_check),
            Request(f"{tag}:mixed-L9", "mixed", l9, l9_check),
            Request(f"{tag}:mle", "mixed", mle, lambda rec: check_moment(rec, "mle"))]


def observation_facts(x, indices, p_obs, counts) -> dict:
    """(x on S, N, M, V, U, X, Y) of an observation, computed by the
    benchmark from the raw arrays."""
    x_s = np.asarray(x, float)[np.asarray(indices, int)]
    p = np.asarray(p_obs, float)
    x_sum = math.fsum(x_s)
    return {"x_s": x_s, "N": int(np.sum(counts)), "M": len(p), "V": math.fsum(p),
            "U": float(np.dot(x_s, np.log(p))), "X": x_sum, "Y": max(0.0, 1.0 - x_sum)}


def facts_of(state: dict) -> dict:
    """The facts of ``state['obs']``, computed once, outside any timing."""
    if "facts" not in state:
        o = state["obs"]
        state["facts"] = observation_facts(o.x, o.indices, o.p_obs, o.counts)
    return state["facts"]


# ---------------------------------------------------------------------------
# fixtures-cli

ESTIMATE_ARGS = {
    "ipw-fixed": ["--method", "ipw-fixed"],
    "ipw-poisson": ["--method", "ipw-poisson"],
    "rb-exact": ["--method", "rb-exact"],
    "rb-exact-fixed-n-M": ["--method", "rb-exact", "--pi", "fixed-n",
                           "--variant", "M_over_Z"],
    "rb-poisson": ["--method", "rb-poisson"],
    "gt": ["--method", "gt"],
    "gt-rb": ["--method", "gt-rb"],
    "gtoulmin": ["--method", "gtoulmin"],
    "hm": ["--method", "hm"],
}
INFER_ARGS = {
    "bayes": ("bayes", ["--method", "bayes"]),
    "profile": ("profile", ["--method", "profile"]),
    "mixed-L5": ("mixed", ["--method", "mixed"]),
    "mixed-L9": ("mixed", ["--method", "mixed", "--base", "L9"]),
    "mle": ("mixed", ["--method", "mle"]),
    "moment-A": ("moment", ["--method", "moment-match", "--strategy", "A"]),
    "moment-B": ("moment", ["--method", "moment-match", "--strategy", "B"]),
    "moment-C": ("moment", ["--method", "moment-match", "--strategy", "C"]),
}
# Bayes and profile cost 2-8 s per regular fixture, moment B/C about 1 s.
# They run on the two fixtures the Bayes reference is checked on and on the
# singular fixtures; every other command runs on all eight fixtures.  This
# keeps one pass near 25 s, inside one 30 s run.
SLOW_ROUTE_FIXTURES = {
    "bayes": ("gt_example", "regular_small", "delta_s_zero", "full_coverage",
              "single_point"),
    "profile": ("gt_example", "regular_small", "delta_s_zero", "full_coverage",
                "single_point"),
    "moment-B": ("gt_example", "regular_small", "delta_s_zero", "full_coverage",
                 "single_point", "all_singletons"),
    "moment-C": ("gt_example", "regular_small", "delta_s_zero", "full_coverage",
                 "single_point", "all_singletons"),
}
# The estimate and mixed commands take milliseconds; each is sent this many
# times per pass, so that their medians rest on a few hundred samples.
CHEAP_COPIES = 8
# the documented singular verdicts: DeltaS = 0 collapses every posterior to
# the point mass Y V / X, Y = 0 pins W = 0, and M = N sends the
# self-consistent point estimators to +inf
SINGULAR = {"delta_s_zero": "DeltaS_zero", "single_point": "DeltaS_zero",
            "full_coverage": "Y_zero"}
INFINITE_WHEN_ALL_SINGLETONS = ("ipw-fixed", "ipw-poisson", "rb-exact",
                                "rb-exact-fixed-n-M", "rb-poisson", "gt",
                                "gt-rb", "gtoulmin")


def _cli_number(v) -> float:
    return math.inf if v == "inf" else (math.nan if v == "nan" else float(v))


def fixture_facts(path: str) -> dict:
    """Facts of a fixture file (observation or full dataset JSON)."""
    with open(path) as fh:
        obj = json.load(fh)
    if "entries" in obj:
        entries = obj["entries"]
        return observation_facts(obj["x"], [e["i"] for e in entries],
                                 [e["p"] for e in entries], [e["c"] for e in entries])
    c = np.asarray(obj["c"], int)
    idx = np.nonzero(c >= 1)[0]
    return observation_facts(obj["x"], idx, np.asarray(obj["p"], float)[idx], c[idx])


class FixturesCli:
    name = "fixtures-cli"

    def __init__(self, mm, root: str, seed: int, workdir: str):
        import missmass.cli  # noqa: F401  (the CLI module is part of set-up)

        self.mm = mm
        self.seed = seed
        self.paths = {f: os.path.join(root, "fixtures", f + ".json") for f in FIXTURES}
        # the harmonic-mean anchor h = x over the domain, so H = 1
        self.h_paths = {}
        for f, path in self.paths.items():
            with open(path) as fh:
                x = json.load(fh)["x"]
            self.h_paths[f] = os.path.join(workdir, f"h_{f}.json")
            with open(self.h_paths[f], "w") as fh:
                json.dump({"h": x}, fh)
        self.facts: dict[str, dict] = {}
        self.bayes_refs: dict = {}

    def prepare_checks(self) -> None:
        """Fixture statistics and Bayes references; not part of set-up."""
        from reference import BayesReference

        for f, path in self.paths.items():
            self.facts[f] = fixture_facts(path)
        for f in SLOW_ROUTE_FIXTURES["bayes"]:
            if f not in SINGULAR:
                self.bayes_refs[f] = BayesReference(self.facts[f])

    def _cli(self, argv: list[str]):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.mm.cli.main(argv)
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        return call

    def requests(self, pass_index: int) -> list[Request]:
        reqs = []
        for f in FIXTURES:
            for cmd, args in ESTIMATE_ARGS.items():
                argv = ["estimate", "--in", self.paths[f]] + args
                if cmd == "hm":
                    argv += ["--h-file", self.h_paths[f], "--H", "1"]
                reqs += self._copies(f"estimate:{cmd}:{f}", "estimate", argv,
                                     self._estimate_check(cmd, f), f)
            for cmd, (route, args) in INFER_ARGS.items():
                if cmd in SLOW_ROUTE_FIXTURES and f not in SLOW_ROUTE_FIXTURES[cmd]:
                    continue
                if (cmd in ("bayes", "profile", "mixed-L5", "mixed-L9") and f in SINGULAR) \
                        or (cmd == "mle" and SINGULAR.get(f) == "DeltaS_zero"):
                    # answered up front by the singular verdict, in microseconds;
                    # kept out of the route latencies
                    route = "singular"
                reqs += self._copies(f"infer:{cmd}:{f}", route,
                                     ["infer", "--in", self.paths[f]] + args,
                                     self._infer_check(cmd, f), f)
        reqs.append(Request("verify", "verify", self._cli(["verify"]),
                            self._verify_check))
        # the seed fixes the order in which the matrix is sent
        order = np.random.default_rng(derive_seed(self.seed, pass_index)).permutation(len(reqs))
        return [reqs[i] for i in order]

    def _copies(self, name, route, argv, check, fixture) -> list[Request]:
        copies = CHEAP_COPIES if route in ("estimate", "mixed") else 1
        return [Request(f"{name}#{k}", route, self._cli(argv), check, fixture)
                for k in range(copies)]

    @staticmethod
    def _parse(rec: dict) -> dict:
        if rec["rc"] != 0:
            raise CheckError(f"exit code {rec['rc']}: {rec['stderr'].strip()[:200]}")
        try:
            return json.loads(rec["stdout"])
        except json.JSONDecodeError as exc:
            raise CheckError(f"stdout is not JSON: {exc}") from None

    def _estimate_check(self, cmd: str, f: str):
        def check(rec):
            out = self._parse(rec)
            facts = self.facts[f]
            z, w = _cli_number(out["Z"]), _cli_number(out["W"])
            if facts["M"] == facts["N"] and cmd in INFINITE_WHEN_ALL_SINGLETONS:
                if not (math.isinf(z) and math.isinf(w) and out["W_over_Z"] == 1):
                    raise CheckError(f"M = N must give Z = W = inf, got {out}")
                return
            check_z(z, w, facts["V"], 1e-8, cmd)
        return check

    def _infer_check(self, cmd: str, f: str):
        def check(rec):
            out = self._parse(rec)
            facts = self.facts[f]
            if cmd in ("mle", "moment-A", "moment-B", "moment-C"):
                params = out["params"]
                check_moment({"status": out["status"],
                              "params": None if params is None else
                              [params["alpha"], params["b"], params["lambda"]],
                              "mean_W": None if out["mean_W"] is None
                              else _cli_number(out["mean_W"])}, cmd)
                if cmd == "mle" and SINGULAR.get(f) == "DeltaS_zero" \
                        and out["status"] != "boundary":
                    raise CheckError(f"DeltaS = 0 must put the MLE on the boundary: {out}")
                if cmd in ("moment-B", "moment-C") and facts["M"] == facts["N"] \
                        and out["status"] != "lambda_zero":
                    raise CheckError(f"M = N must give lambda_zero: {out}")
                return
            qs = [_cli_number(out["quantiles"][k]) for k in ("5", "25", "50", "75", "95")]
            _nondecreasing(qs, cmd)
            verdict = SINGULAR.get(f)
            if out["singular_case"] != verdict:
                raise CheckError(f"singular case {out['singular_case']!r}, expected {verdict!r}")
            if verdict is not None:
                point = 0.0 if verdict == "Y_zero" else facts["Y"] * facts["V"] / facts["X"]
                for q in qs:
                    _close(q, point, 1e-12, f"{verdict} point mass")
                return
            if cmd.startswith("mixed"):
                _check_mixed(_cli_number(out["alpha"]), qs, facts, QUANTILES, cmd)
        return check

    @staticmethod
    def _verify_check(rec):
        if rec["rc"] != 0 or not rec["stdout"].rstrip().endswith("PASS"):
            raise CheckError(f"verify failed: {rec['stdout'][-300:]}")

    def bayes_inputs(self, rec: dict, req: Request):
        """(reference, quantiles, mass_check) of a checked Bayes request."""
        ref = self.bayes_refs.get(req.input)
        if ref is None:
            return None
        out = json.loads(rec["stdout"])
        qs = [_cli_number(out["quantiles"][k]) for k in ("5", "25", "50", "75", "95")]
        return ref, qs, out["diagnostics"]["mass_check"]


# ---------------------------------------------------------------------------
# wide-posterior


class WidePosterior:
    """Gamma-Poisson draws over D = 20 000 points at (alpha, b, lambda) =
    (2000, 1, 0.1), which gives M and N near 190.  Bayes, profile and the
    moment strategies run on the first draw; the mixed route, the MLE and
    the point estimators (rb_exact aside: it refuses N > 64) on all 48, so
    their medians average over draws."""

    name = "wide-posterior"
    domain = 20_000
    draws = 48

    def __init__(self, mm, root: str, seed: int, workdir: str):
        self.mm = mm
        x = np.full(self.domain, 1.0 / self.domain)
        params = mm.ModelParams(2000.0, 1.0, 0.1)
        # the harmonic-mean anchor h = x, so H = 1
        self.h = {i: float(x[i]) for i in range(self.domain)}
        self.states = []
        for k in range(self.draws):
            ds = mm.simulate_model(x, params, "p-c", rng_seed=derive_seed(seed, k))
            obs = ds.observe()
            self.states.append({"obs": obs, "stats": mm.summarize(obs)})
        self.bayes_refs: dict = {}

    def prepare_checks(self) -> None:
        from reference import BayesReference

        self.bayes_refs["draw0"] = BayesReference(facts_of(self.states[0]))

    def requests(self, pass_index: int) -> list[Request]:
        mm, state = self.mm, self.states[0]

        def route(fn_name):
            def call():
                return infer_record(getattr(mm, fn_name)(state["obs"], state["stats"]))
            return call

        def moment(strategy):
            def call():
                return moment_record(mm.moment_match(state["obs"], state["stats"], strategy))
            return call

        def check(what):
            return lambda rec: check_infer(rec, facts_of(state), what)

        reqs = [Request("bayes:draw0", "bayes", route("infer_bayes"), check("bayes"), "draw0"),
                Request("profile:draw0", "profile", route("infer_profile"), check("profile")),
                *(Request(f"moment-{s}:draw0", "moment", moment(s),
                          lambda rec, s=s: check_moment(rec, f"moment {s}"))
                  for s in "ABC")]
        for k, st in enumerate(self.states):
            reqs += mixed_requests(mm, st, f"draw{k}")
            reqs += estimator_requests(mm, st, f"draw{k}", exact=False, anchor=self.h)
        return reqs

    def bayes_inputs(self, rec: dict, req: Request):
        return self.bayes_refs[req.input], rec["q"], rec["mass_check"]


# ---------------------------------------------------------------------------
# calibration-mc


class CalibrationMc:
    """Gamma-Poisson replicates at (alpha, b, lambda) = (2, 1, 5) and
    (2, 1, 20) with a uniform x on 50 points (expected N = 10 and 40), plus
    toy-physics replicates with an enumerated partition function."""

    name = "calibration-mc"
    lambdas = (5.0, 20.0)
    replicates = 100          # per lambda and pass
    toy_replicates = 24       # per pass
    toy_gammas = (0.0, 0.5, 1.0)
    toy_tolerance = 0.15
    # The gamma = 0.5 mixture returns the lower edge of its residual valley
    # and sits 6-38% below the enumerated Z, depending on the Ising field
    # (24% on this field at the parent commit).  Its error is reported as
    # toy_z_err rather than failed, so the other checks stay a gate.
    toy_reported_only = ("mixture-0.5",)

    def __init__(self, mm, root: str, seed: int, workdir: str):
        self.mm = mm
        self.seed = seed
        self.x = np.full(50, 1.0 / 50)
        self.params = [mm.ModelParams(2.0, 1.0, lam) for lam in self.lambdas]
        self.toy = mm.toy_physics_dataset(4096, [3.0, 1.0, 0.5])
        self.toy_n = int(4 * mm.simulate.effective_states(self.toy.dataset.p))
        self.toy_h = self.toy.r[:, 0] * self.toy.w[0]
        self.toy_big_h = float(self.toy.r_totals[0] * self.toy.w[0])

    def prepare_checks(self) -> None:
        pass

    def requests(self, pass_index: int) -> list[Request]:
        mm = self.mm
        reqs: list[Request] = []
        self.replicate_states: list[dict] = []
        for j, params in enumerate(self.params):
            for r in range(self.replicates):
                state: dict = {"lambda": self.lambdas[j]}
                self.replicate_states.append(state)
                tag = f"gp{j}.{r}"
                reqs.append(Request(f"{tag}:simulate", "simulate",
                                    self._simulate(state, params,
                                                   derive_seed(self.seed, pass_index, j, r)),
                                    lambda rec: None))
                reqs.append(Request(f"{tag}:summarize", "summarize",
                                    self._summarize(state), lambda rec: None))
                reqs += mixed_requests(mm, state, tag, levels=(0.05, 0.95))
                reqs += estimator_requests(mm, state, tag, exact=True)
        self.toy_states = []
        for r in range(self.toy_replicates):
            state = {}
            self.toy_states.append(state)
            tag = f"toy.{r}"
            reqs.append(Request(f"{tag}:simulate", "simulate",
                                self._toy_simulate(state, derive_seed(self.seed, pass_index, 7, r)),
                                lambda rec: None))
            for gamma in self.toy_gammas:
                reqs.append(Request(f"{tag}:mixture-{gamma:g}", "toy",
                                    self._toy_mixture(state, gamma), lambda rec: None))
            reqs.append(Request(f"{tag}:hm", "toy", self._toy_hm(state), lambda rec: None))
        return reqs

    def _simulate(self, state, params, seed):
        def call():
            ds = self.mm.simulate_model(self.x, params, "p-c", rng_seed=seed)
            state["z"] = ds.z
            if int(ds.c.sum()) == 0:
                state["empty"] = True
                return {"empty": True}
            state["dataset"] = ds
            return {"N": int(ds.c.sum()), "Z": ds.z}
        return call

    def _summarize(self, state):
        def call():
            if state.get("empty"):
                return SKIP
            obs = state["dataset"].observe()
            stats = self.mm.summarize(obs)
            state.update(obs=obs, stats=stats)
            return {"V": stats.V, "M": stats.M, "N": stats.N}
        return call

    def _toy_simulate(self, state, seed):
        def call():
            toy = self.toy
            ds = self.mm.simulate_explicit(toy.dataset.p, n=self.toy_n, rng_seed=seed,
                                           x=toy.dataset.x)
            obs = ds.observe()
            state.update(obs=obs, r=toy.r[obs.indices],
                         h={int(i): float(self.toy_h[i]) for i in obs.indices})
            return {"M": obs.m}
        return call

    def _toy_mixture(self, state, gamma):
        def call():
            res = self.mm.mixture_estimate(state["obs"], state["r"], self.toy.w, gamma,
                                           h=state["h"], H=self.toy_big_h)
            state[f"mixture-{gamma:g}"] = res.z.value
            return {"Z": res.z.value}
        return call

    def _toy_hm(self, state):
        def call():
            z = self.mm.harmonic_mean(state["obs"], state["h"], self.toy_big_h).value
            state["hm"] = z
            return {"Z": z}
        return call

    def pass_summary(self) -> tuple[dict, list[str]]:
        """Coverage counts and the toy-physics median check of one pass."""
        covered = {lam: [0, 0] for lam in self.lambdas}
        empty = 0
        for state in self.replicate_states:
            if state.get("empty"):
                empty += 1
            elif "covered" in state:
                covered[state["lambda"]][0] += int(state["covered"])
                covered[state["lambda"]][1] += 1
        failed_toy, toy_err = [], {}
        for key in [f"mixture-{g:g}" for g in self.toy_gammas] + ["hm"]:
            values = [s[key] for s in self.toy_states if key in s]
            med = float(np.median(values)) if values else math.nan
            toy_err[key] = abs(med / self.toy.z_exact - 1.0)
            if key not in self.toy_reported_only and not toy_err[key] <= self.toy_tolerance:
                failed_toy.append(key)
        return {"covered": covered, "empty": empty, "toy_z_err": toy_err}, failed_toy


WORKLOADS = {w.name: w for w in (FixturesCli, WidePosterior, CalibrationMc)}
