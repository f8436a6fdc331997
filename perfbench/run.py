"""missmass benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.

--trace 0 sets up the workload five times in fresh interpreters (set-up
time), then runs whole passes of the workload's fixed request list, back to
back, while another pass still fits in S seconds.  Every output is checked
after its pass.  It prints a full report (every metric that applies, tail
percentiles, failures) and, as the last line, the end-to-end metrics.

--trace 1 runs one pass untraced and the same pass again with spans around
every public function of every package module, checks that both passes give
bit-identical outputs and that the layer self times add up to the traced
wall time, writes the spans to .perfbench_out/, and prints the per-layer
metrics on the last line.

Times are reported at a reference host speed, measured by a probe that
runs alongside the requests (speed.py); the raw medians are on the report
line.  The last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Exit code 0 when a result is printed; 2 when the checkout has
no package to benchmark; 1 when set-up fails.
"""

from __future__ import annotations

import os
import sys

# pin BLAS / OpenMP pools before numpy loads; the batch simulators' own pool
# stays at its default of one worker
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MISSMASS_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

# end-to-end metrics printed on the last line; every workload has each of them
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("mixed_ms", "ms"),
              ("estimate_ms", "ms"), ("peak_rss_mb", "MB"))
# latency metrics of the full report: (metric, route class, unit scale, unit)
ROUTE_MEDIANS = (("bayes_s", "bayes", 1.0, "s"), ("profile_s", "profile", 1.0, "s"),
                 ("moment_s", "moment", 1.0, "s"), ("mixed_ms", "mixed", 1e3, "ms"),
                 ("estimate_ms", "estimate", 1e3, "ms"), ("verify_s", "verify", 1.0, "s"))
ROUTE_TAILS = (("mixed_tail_ms", "mixed"), ("estimate_tail_ms", "estimate"))


def import_package():
    src = ROOT / "src"
    if not (src / "missmass" / "__init__.py").is_file():
        print(f"error: no package at {src / 'missmass'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import missmass

    if Path(missmass.__file__).resolve().parent != (src / "missmass").resolve():
        print(f"error: imported missmass from {missmass.__file__}", file=sys.stderr)
        sys.exit(2)
    return missmass


def tail(values: list[float]):
    """(value, percentile, samples) at the highest percentile with at least
    ten samples beyond it; None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n, n


def run_pass(requests, skip, tracer=None, sampler=None):
    """Send the requests one after another.

    Returns ([(request, t0, t1, seconds, record, error)], (t_start, t_end,
    wall seconds), root span index).  Requests that return ``skip`` are
    dropped.  With a sampler, seconds exclude the time its probes took.
    """
    timed = []
    root = None
    if tracer is not None:
        root = tracer.open(tracer.intern("bench.pass"))
        req_id = tracer.intern("bench.request")
    spent = (lambda: sampler.spent) if sampler is not None else (lambda: 0.0)
    t_pass, s_pass = time.perf_counter(), spent()
    for req in requests:
        if tracer is not None:
            span = tracer.open(req_id)
        s0 = spent()
        t0 = time.perf_counter()
        try:
            record, error = req.call(), None
        except Exception as exc:  # a failed request is counted, not fatal
            record, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        if record is not skip:
            timed.append((req, t0, t1, t1 - t0 - (spent() - s0), record, error))
    t_end = time.perf_counter()
    wall = t_end - t_pass - (spent() - s_pass)
    if tracer is not None:
        tracer.close(root)
    return timed, (t_pass, t_end, wall), root


def normalized(timed, span, sampler):
    """Per-request seconds and the pass wall time at the reference speed
    (raw when there is no sampler)."""
    def norm(t0, t1, raw):
        return raw if sampler is None else sampler.normalize(t0, t1, raw)
    results = [(req, norm(t0, t1, raw), raw, record, error)
               for req, t0, t1, raw, record, error in timed]
    return results, norm(*span)


class Tally:
    """Latencies, failures and accuracy figures accumulated over passes."""

    def __init__(self, workload, quantiles):
        self.workload = workload
        self.quantiles = quantiles
        self.latency = defaultdict(list)
        self.raw_latency = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.bayes_q_err: dict[str, float] = {}
        self.mass_check_err = 0.0
        self.covered = defaultdict(lambda: [0, 0])
        self.empty_draws = 0
        self.toy_z_err: dict[str, float] = {}

    def absorb(self, results, check_error) -> None:
        errors = {}
        for req, _, _, record, error in results:
            if error is None:
                try:
                    req.check(record)
                except check_error as exc:
                    error = str(exc)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            errors[req.name] = error
            if error is None and req.route == "bayes":
                found = self.workload.bayes_inputs(record, req)
                if found is not None:
                    ref, qs, mass_check = found
                    err = max(abs(f - q) for f, q in zip(ref.cdf(qs), self.quantiles))
                    self.bayes_q_err[req.input] = max(self.bayes_q_err.get(req.input, 0.0),
                                                      float(err))
                    self.mass_check_err = max(self.mass_check_err, abs(mass_check - 1.0))
        if hasattr(self.workload, "pass_summary"):
            summary, failed_keys = self.workload.pass_summary()
            for lam, (hits, used) in summary["covered"].items():
                self.covered[lam][0] += hits
                self.covered[lam][1] += used
            self.empty_draws += summary["empty"]
            for key, err in summary["toy_z_err"].items():
                self.toy_z_err[key] = max(self.toy_z_err.get(key, 0.0), err)
            for req, *_ in results:
                key = req.name.rsplit(":", 1)[-1]
                if req.route == "toy" and key in failed_keys and errors[req.name] is None:
                    errors[req.name] = f"toy-physics median {key} off the enumerated Z by > 15%"
        for req, seconds, raw, _, _ in results:
            self.attempted += 1
            self.latency[req.route].append(seconds)
            self.raw_latency[req.route].append(raw)
            if errors[req.name] is not None:
                self.failures.append(f"{req.name}: {errors[req.name]}")


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from interpreter start to 'ready' in fresh set-up processes:
    (at the reference speed, raw).  Each process probes the host speed right
    after it is ready."""
    from speed import PROBE_REF_S

    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe_line = proc.stdout.readline()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            print(f"error: set-up process failed ({proc.returncode}): {err[-500:]}",
                  file=sys.stderr)
            sys.exit(1)
        raw.append(elapsed)
        times.append(elapsed * PROBE_REF_S / float(probe_line))
    return times, raw


def fixture_references(workload) -> dict:
    """Bayes references on gt_example and regular_small, for the self-check."""
    from reference import BayesReference
    from workloads import fixture_facts

    refs = getattr(workload, "bayes_refs", {})
    return {name: refs.get(name) or BayesReference(
                fixture_facts(str(ROOT / "fixtures" / f"{name}.json")))
            for name in ("gt_example", "regular_small")}


def digest(results) -> list:
    return [(req.name, repr(record), error) for req, _, _, record, error in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print 'ready' and exit")
    args = parser.parse_args(argv)

    mm = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = workloads.WORKLOADS[args.workload](mm, str(ROOT), args.seed, workdir)
        if args.setup_only:
            from speed import probe_median

            print("ready", flush=True)
            print(probe_median(), flush=True)
            return 0
        return measure(args, mm, wl, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def measure(args, mm, wl, workloads) -> int:
    from reference import self_check

    wl.prepare_checks()
    self_check_err = {}
    if args.workload in ("fixtures-cli", "wide-posterior"):
        self_check_err = self_check(fixture_references(wl))
    correct = all(err <= 1e-6 for err in self_check_err.values())
    tally = Tally(wl, workloads.QUANTILES)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "reference_self_check": self_check_err}
    if args.trace:
        metrics = traced_run(args, mm, wl, workloads, tally, report)
        correct &= report["bit_identical"] and report["self_times_add_up"]
    else:
        metrics = untraced_run(args, wl, workloads, tally, report)
    correct &= not tally.failures
    report["failures"] = tally.failures[:20]
    print(json.dumps(report))
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


def untraced_run(args, wl, workloads, tally: Tally, report: dict) -> dict:
    from speed import SpeedSampler

    setup, setup_raw = measure_setup(args.workload, args.seed)
    walls, walls_raw = [], []
    t_start = time.perf_counter()
    while True:
        with SpeedSampler() as sampler:
            timed, span, _ = run_pass(wl.requests(len(walls)), workloads.SKIP,
                                      sampler=sampler)
        results, wall = normalized(timed, span, sampler)
        walls.append(wall)
        walls_raw.append(span[2])
        tally.absorb(results, workloads.CheckError)
        if time.perf_counter() - t_start + statistics.median(walls_raw) > args.seconds:
            break
    lat = tally.latency
    full = {"setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s")}
    for metric, route, scale, unit in ROUTE_MEDIANS:
        if lat[route]:
            full[metric] = (statistics.median(lat[route]) * scale, unit)
    tails = {}
    for metric, route in ROUTE_TAILS:
        found = tail(lat[route])
        if found is not None:
            full[metric] = (found[0] * 1e3, "ms")
            tails[metric] = {"percentile": found[1], "samples": found[2]}
    full["fail_share"] = (len(tally.failures) / max(tally.attempted, 1), "ratio")
    if tally.bayes_q_err:
        full["bayes_q_err"] = (max(tally.bayes_q_err.values()), "prob")
        full["mass_check_err"] = (tally.mass_check_err, "ratio")
    if tally.covered:
        hits = sum(h for h, _ in tally.covered.values())
        used = sum(u for _, u in tally.covered.values())
        full["coverage_gap"] = (abs(hits / used - 0.90), "prob")
        report["coverage"] = {str(lam): h / u for lam, (h, u) in tally.covered.items()}
        report["coverage_replicates"] = used
        report["empty_draws"] = tally.empty_draws
        report["toy_z_err"] = tally.toy_z_err
    full["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = {"setup_s": statistics.median(setup_raw), "wall_s": statistics.median(walls_raw)}
    for metric, route, scale, _ in ROUTE_MEDIANS:
        if tally.raw_latency[route]:
            raw[metric] = statistics.median(tally.raw_latency[route]) * scale
    report.update(passes=len(walls), pass_walls_s=walls, pass_walls_raw_s=walls_raw,
                  setup_runs_s=setup, setup_runs_raw_s=setup_raw, raw_medians=raw,
                  requests={route: len(v) for route, v in lat.items()},
                  tails=tails, bayes_q_err_by_input=tally.bayes_q_err,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in full.items()})
    missing = [name for name, _ in END_TO_END if name not in full]
    if missing:
        raise RuntimeError(f"workload {args.workload} lacks end-to-end metrics {missing}")
    return {name: {"value": full[name][0], "unit": unit} for name, unit in END_TO_END}


def traced_run(args, mm, wl, workloads, tally: Tally, report: dict) -> dict:
    from speed import SpeedSampler
    from tracing import PER_LAYER_METRICS, Tracer

    with SpeedSampler() as sampler:
        timed, span, _ = run_pass(wl.requests(0), workloads.SKIP, sampler=sampler)
    plain, wall_plain = normalized(timed, span, sampler)
    tally.absorb(plain, workloads.CheckError)
    sampler = SpeedSampler()
    tracer = Tracer(clock=lambda: time.perf_counter() - sampler.spent)
    with sampler:
        tracer.install(mm)
        try:
            timed, span, root = run_pass(wl.requests(0), workloads.SKIP, tracer, sampler)
        finally:
            tracer.uninstall()
    traced, wall_traced = normalized(timed, span, sampler)
    tally.absorb(traced, workloads.CheckError)
    # span times leave the probe out; scale them to the reference speed
    layers = tracer.layer_metrics(root, wall_plain, scale=wall_traced / span[2])
    root_s = tracer.end[root] - tracer.start[root]
    accounted = tracer.accounted(root)
    report["bit_identical"] = digest(plain) == digest(traced)
    report["self_times_add_up"] = abs(accounted - root_s) <= 1e-6 * root_s
    report["untraced_wall_s"] = wall_plain
    report["accounted_s"] = accounted
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["layer_metrics"] = layers
    return {name: {"value": float(layers[name]), "unit": unit}
            for name, unit in PER_LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main())
