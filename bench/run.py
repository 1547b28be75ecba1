"""Benchmark of the wallisprod package, measured from outside through its public calls.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The package is imported from ``src/`` as it
is.  The benchmark is one process with no threads and a closed loop: each op
starts only after the previous one returned.  Work that must start cold runs
in fresh interpreters, one at a time.  Workloads (see ``workloads.py``):

* ``exact_cold``: a fresh interpreter per pass builds every exact coefficient
  family and measures exact convergence orders;
* ``numeric_warm``: after the coefficient caches are primed, a seeded mix of
  single special-function, closed-form and expansion calls;
* ``oracle_scan``: brute-force products with n from 10^5 to 10^6, the
  Wallis sequence at 10^6, the bounds scan and float convergence checks;
* ``cli_cold``: a seeded mix of fresh ``python -m wallisprod.cli`` processes.

With ``--trace 0`` the run repeats passes over the op list for ``--seconds``
seconds and reports the end-to-end metrics:

* ``setup_s``: median time to ready over fresh set-ups: interpreter start
  plus import (exact_cold, every pass), import plus cache priming
  (numeric_warm), import (oracle_scan), interpreter start plus import of the
  CLI module (cli_cold);
* ``pass_s``: one pass over the op list, as the sum of each op's median
  latency (the raw pass wall times are in the metadata);
* ``op_p50_ms`` and ``op_tail_ms``: percentiles of the per-op median
  latencies; the tail is the highest percentile with ten ops beyond it;
* ``fail_ratio``: failed op runs over attempted op runs;
* ``peak_rss_mib``: peak RSS of the process doing the work (for cli_cold the
  largest child);
* ``min_digits``: the least -log10(relative error) over ops that passed.

With ``--trace 1`` it records spans around every call on one pass of each
workload and reports the per-layer metrics, plus the tracing overhead: the
difference in pass time between traced and untraced passes of the chosen
workload.  Every output is checked (``checks.py``) after the timed passes.
The last line of stdout is the result as JSON; the line before it holds the
run's metadata.  Spans are written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import monotonic_ns, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

PY = sys.executable
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 10
CLI_PROBES = 3
NUMERIC_PROFILE_S = 1.0
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
WORKLOADS = ("exact_cold", "numeric_warm", "oracle_scan", "cli_cold")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(argv: list[str]) -> tuple[int, str, str, int]:
    """Run a child to completion; returns exit code, stdout, stderr and wall ns."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = monotonic_ns()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"child timed out: {argv[1:]}") from None
    return proc.returncode, out, err, monotonic_ns() - start


def _child_json(argv: list[str]) -> tuple[dict, int]:
    code, out, err, wall = spawn(argv)
    if code != 0:
        raise HarnessError(f"{argv[1:3]} exited {code}: {err.strip()[-800:]}")
    return json.loads(out), wall


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and a.args == b.args
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


class Ledger:
    """First output of every op, how often the op ran, and whether a later run differed."""

    def __init__(self, n: int) -> None:
        self.first: list = [None] * n
        self.runs = [0] * n
        self.changed = [False] * n

    def add(self, i: int, out) -> None:
        if self.runs[i] == 0:
            self.first[i] = out
        elif not _same(self.first[i], out):
            self.changed[i] = True
        self.runs[i] += 1


def _import_library():
    sys.path.insert(0, SRC)
    import wallisprod
    if os.path.dirname(os.path.dirname(os.path.abspath(wallisprod.__file__))) != SRC:
        raise HarnessError(f"wallisprod imported from {wallisprod.__file__}, not {SRC}")
    return wallisprod


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed, self.tiny = seed, tiny
        self.ops = workloads.GENERATORS[self.name](seed, tiny)
        self.ledger = Ledger(len(self.ops))
        self.setup_ns: list[int] = []
        self.extra = []  # (failure detail or None, runs) of probe ops outside the op list

    def probe_setup(self) -> None:
        """Add set-up samples taken outside the pass loop."""

    def start(self) -> None:
        """Get ready to run passes."""

    def one_pass(self, tracer=None) -> tuple[int, list[int]]:
        raise NotImplementedError

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def rss_samples(self) -> int:
        """How many processes the peak RSS is taken over."""
        return 1

    def profile(self, tracer) -> list[int]:
        """The traced passes that give this workload's per-layer metrics; returns their times."""
        self.start()
        return [self.one_pass(tracer)[0]]

    def check(self, W, i: int, out):
        """Verdict on the output of op ``i``."""
        raise NotImplementedError

    def verdicts(self, W) -> list:
        import checks
        out = [(checks.Verdict(detail is None, detail=detail or ""), runs)
               for detail, runs in self.extra]
        for i, (first, runs) in enumerate(zip(self.ledger.first, self.ledger.runs)):
            if runs:
                try:
                    verdict = self.check(W, i, first)
                except checks.PinMismatch as exc:
                    verdict = checks.Verdict(False, detail=f"reference coefficients: {exc}")
                if self.ledger.changed[i]:
                    verdict = checks.Verdict(False, detail="output changed between passes")
                out.append((verdict, runs))
        return out


class InProcess(Workload):
    """numeric_warm and oracle_scan: every op runs in this process."""

    W = None

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            d, _ = _child_json([PY, CHILD, "setup", self.name])
            self.setup_ns.append(d["import_ns"] + d["prime_ns"])

    def start(self) -> None:
        if self.W is not None:
            return
        t0 = perf_counter_ns()
        W = _import_library()
        if self.name == "numeric_warm":
            workloads.numeric_prime(W)
        self.setup_ns.append(perf_counter_ns() - t0)
        self.W = W
        self.prepared = workloads.prepare(W, self.ops)

    def one_pass(self, tracer=None):
        pass_ns, lat, outs = workloads.run_pass(self.prepared, tracer)
        for i, out in enumerate(outs):
            self.ledger.add(i, out)
        return pass_ns, lat

    def profile(self, tracer) -> list[int]:
        self.start()
        end = monotonic_ns() + NUMERIC_PROFILE_S * 1e9 if self.name == "numeric_warm" else 0
        times = [self.one_pass(tracer)[0]]
        while monotonic_ns() < end:
            times.append(self.one_pass(tracer)[0])
        return times

    def check(self, W, i, out):
        import checks
        return checks.check_op(W, self.ops[i][1], self.ops[i][2], out)


class NumericWarm(InProcess):
    name = "numeric_warm"


class OracleScan(InProcess):
    name = "oracle_scan"


class ExactCold(Workload):
    """Each pass is a fresh interpreter; its set-up is interpreter start plus import."""

    name = "exact_cold"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.rss: list[int] = []

    def one_pass(self, tracer=None):
        if tracer:
            tracer.start("exact_cold.process")
        argv = [PY, CHILD, "exact_cold", str(self.seed), str(int(self.tiny)),
                str(int(tracer is not None)), str(monotonic_ns())]
        d, _ = _child_json(argv)
        if tracer:
            tracer.merge(d["spans"], d["counts"])
            tracer.end()
        self.setup_ns.append(d["setup_ns"])
        self.rss.append(d["peak_rss_kib"])
        for i, result in enumerate(d["results"]):
            self.ledger.add(i, result)
        return d["pass_ns"], d["lat_ns"]

    def peak_rss_kib(self) -> int:
        return statistics.median(self.rss)

    def rss_samples(self) -> int:
        return len(self.rss)

    def check(self, W, i, out):
        import checks
        return checks.check_exact(W, self.ops[i][1], self.ops[i][2], out)


class CliCold(Workload):
    """Each op is a fresh ``python -m wallisprod.cli`` process."""

    name = "cli_cold"
    PROBES = {"cli.spawn": ["-c", "pass"], "cli.import": ["-c", "import wallisprod.cli"],
              "cli.startup": ["-m", "wallisprod.cli", "--help"]}

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.stderr = [""] * len(self.ops)  # of each op's first run

    def probe_setup(self) -> None:
        # ready = a fresh interpreter has imported the CLI module
        for _ in range(SETUP_PROBES):
            code, _, err, wall = spawn([PY, *self.PROBES["cli.import"]])
            if code:
                raise HarnessError(f"importing wallisprod.cli failed: {err.strip()[-800:]}")
            self.setup_ns.append(wall)

    def _probe(self, name: str, tracer) -> None:
        tracer.start(name)
        code, _, err, _ = spawn([PY, *self.PROBES[name]])
        tracer.end()
        self.extra.append((f"{name} exited {code}: {err.strip()[-300:]}" if code else None, 1))

    def one_pass(self, tracer=None):
        lat = []
        if tracer:
            tracer.start("pass")
        t0 = monotonic_ns()
        for i, (span, argv, _) in enumerate(self.ops):
            if tracer:
                tracer.start(span)
            code, out, err, wall = spawn([PY, "-m", "wallisprod.cli", *argv])
            if tracer:
                tracer.end()
            lat.append(wall)
            if self.ledger.runs[i] == 0:
                self.stderr[i] = err
            self.ledger.add(i, (code, out))
        pass_ns = monotonic_ns() - t0
        if tracer:
            tracer.end()
        return pass_ns, lat

    def profile(self, tracer) -> list[int]:
        for name in self.PROBES:
            for _ in range(CLI_PROBES):
                self._probe(name, tracer)
        tracer.start("verify.process")
        d, _ = _child_json([PY, CHILD, "verify_suites"])
        tracer.merge(d["spans"], {"verify.checks": sum(len(v) for v in d["results"].values())})
        tracer.end()
        for suite, passed in d["results"].items():
            self.extra.append((None if all(passed) else f"verify suite {suite} failed", 1))
        return [self.one_pass(tracer)[0]]

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def rss_samples(self) -> int:
        return SETUP_PROBES + sum(self.ledger.runs)

    def check(self, W, i, out):
        import checks
        code, stdout = out
        return checks.check_cli(W, self.ops[i][1], self.ops[i][2], code, stdout, self.stderr[i])


CLASSES = {c.name: c for c in (ExactCold, NumericWarm, OracleScan, CliCold)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest percentile of TAIL_GRID with at least 10 of ``n`` samples beyond it.

    The samples are per-op latencies, one per distinct op, so the percentile
    is the same on every run of a workload.
    """
    return next((p for p in TAIL_GRID if n * (1 - p / 100) >= 10), TAIL_GRID[-1])


def summarise(verdicts: list) -> dict:
    attempted = sum(runs for _, runs in verdicts)
    failed = sum(runs for v, runs in verdicts if not v.ok)
    defects = Counter()
    unknown = []
    for v, runs in verdicts:
        if not v.ok:
            defects[v.defect or "unexpected"] += runs
            if v.defect is None:
                unknown.append(v.detail)
    digits = [v.digits for v, _ in verdicts if v.ok and v.digits is not None]
    return {"attempted": attempted, "failed": failed, "defects": dict(defects),
            "unexpected": unknown[:10], "min_digits": min(digits) if digits else None,
            "digit_ops": len(digits)}


def input_sizes(ops: list[tuple]) -> dict:
    """Brute-force factors per pass and the highest coefficient index an op asks for."""
    factors, index = 0, 0
    for op in ops:
        call, args = op[1], op[2]
        if isinstance(call, list):  # a CLI op: (span, argv, expected exit code)
            opts = dict(zip(call, call[1:]))
            if "--order" in opts:
                index = max(index, int(opts["--order"]))
            if opts.get("--target") in ("wproduct", "rproduct", "wallis"):
                factors += int(opts["--n"])
            continue
        fn = call.split(".")[1]
        if fn in ("w_product", "r_product", "wallis_seq", "check_bounds"):
            factors += args[0]
        elif fn in ("bernoulli_number", "a_poly", "b_poly", "wallis_nu", "wallis_mu",
                    "wallis_nu_raw", "alpha_beta", "omega", "omega_alt"):
            index = max(index, args[0])
        elif fn.startswith("eval_") and fn != "eval_bipoly":
            index = max(index, args[-1])
    return {"factors_per_pass": factors, "max_coeff_index": index}


def end_to_end(name: str, seed: int, seconds: float, tiny: bool = False) -> tuple[dict, dict]:
    wl = CLASSES[name](seed, tiny)
    wl.probe_setup()
    wl.start()
    passes, runs = [], [[] for _ in wl.ops]
    stop = monotonic_ns() + seconds * 1e9
    while True:
        pass_ns, op_ns = wl.one_pass()
        passes.append(pass_ns)
        for samples, ns in zip(runs, op_ns):
            samples.append(ns)
        if monotonic_ns() >= stop:
            break
    rss_kib = wl.peak_rss_kib()
    W = _import_library()
    summary = summarise(wl.verdicts(W))
    # Each op's latency is the median of its runs, which a burst of load on a
    # shared machine moves less than it moves the raw samples.
    lat = sorted(statistics.median(samples) for samples in runs)
    pct = tail_percentile(len(lat))
    metrics = {
        "setup_s": (statistics.median(wl.setup_ns) / 1e9, "s"),
        "pass_s": (sum(lat) / 1e9, "s"),
        "op_p50_ms": (percentile(lat, 50) / 1e6, "ms"),
        "op_tail_ms": (percentile(lat, pct) / 1e6, "ms"),
        "fail_ratio": (summary["failed"] / summary["attempted"], "ratio"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "min_digits": (summary["min_digits"], "digits"),
    }
    samples = {"setup_s": len(wl.setup_ns), "pass_s": len(lat), "op_p50_ms": len(lat),
               "op_tail_ms": len(lat), "fail_ratio": summary["attempted"],
               "peak_rss_mib": wl.rss_samples(), "min_digits": summary.pop("digit_ops")}
    meta = {"passes": len(passes), "runs_per_op": len(passes), "samples": samples,
            "pass_wall_s": [p / 1e9 for p in passes], "op_tail_percentile": pct,
            **input_sizes(wl.ops), **summary}
    return metrics, meta


def per_layer(spans: list[list], counts: Counter, overhead_s: float) -> dict:
    st = tracing.self_times(spans)

    def total_s(name):
        return sum(st[name]) / 1e9

    def p50(name, scale):
        return statistics.median(st[name]) / scale

    m = {"bernoulli.table_build_s": (total_s("bernoulli.table_build"), "s"),
         "bernoulli.entries": (counts["bernoulli.entries"], "count")}
    for c in ("a_poly", "b_poly", "wallis_nu", "wallis_mu", "wallis_nu_raw", "alpha_beta",
              "omega", "omega_alt"):
        m[f"coeffs.{c}.build_s"] = (total_s(f"coeffs.{c}.build"), "s")
    m["coeffs.a_poly.terms"] = (counts["coeffs.a_poly.terms"], "count")
    m["coeffs.rational_bits_max"] = (counts["coeffs.rational_bits_max"], "bits")
    for c in ("a_poly", "alpha_beta", "omega"):
        m[f"coeffs.{c}.warm_call_us"] = (p50(f"coeffs.{c}.warm", 1e3), "us")
    m["coeffs.eval_bipoly.call_us"] = (p50("coeffs.eval_bipoly", 1e3), "us")
    for span in ("ln_gamma.near", "ln_gamma.far_left", "digamma", "w_inf", "r_inf",
                 "w_closed.asym", "w_closed.rising", "r_closed.asym", "r_closed.rising"):
        m[f"special.{span}.p50_us"] = (p50(f"special.{span}", 1e3), "us")
    m["special.ln_gamma.shift_steps"] = (counts["special.ln_gamma.shift_steps"], "count")
    asym, rising = counts["special.closed.asym"], counts["special.closed.rising"]
    m["special.closed.asym_share"] = (asym / (asym + rising), "ratio")
    for fn in ("w_product", "r_product"):
        for kind in ("real", "complex"):
            span = f"products.{fn}.{kind}"
            m[f"{span}.ns_per_factor"] = (sum(st[span]) / counts[f"{span}.factors"], "ns")
    m["products.wallis_seq.ns_per_factor"] = (
        sum(st["products.wallis_seq"]) / counts["products.wallis_seq.factors"], "ns")
    m["products.factors"] = (counts["products.factors"], "count")
    for fn in ("w_expansion", "r_expansion", "wallis_mu", "wallis_nu_exp", "wallis_alpha_beta",
               "wallis_omega", "elezovic"):
        m[f"expansions.eval_{fn}.p50_us"] = (p50(f"expansions.eval_{fn}", 1e3), "us")
    m["expansions.wallis_error_exact.s"] = (total_s("expansions.wallis_error_exact"), "s")
    m["expansions.convergence_order.exact.s"] = (
        total_s("expansions.convergence_order.exact"), "s")
    m["expansions.check_bounds.ns_per_n"] = (
        sum(st["expansions.check_bounds"]) / counts["expansions.check_bounds.n"], "ns")
    m["expansions.convergence_order.float.s"] = (
        total_s("expansions.convergence_order.float"), "s")
    nan = counts["expansions.convergence_order.nan"]
    m["expansions.convergence_order.nan_share"] = (
        nan / counts["expansions.convergence_order.estimates"], "ratio")
    m["expansions.family_report.s"] = (total_s("expansions.family_report"), "s")
    for suite in ("bernoulli", "coeffs", "closedforms", "limits", "bounds"):
        m[f"verify.{suite}.s"] = (total_s(f"verify.{suite}"), "s")
    m["verify.checks"] = (counts["verify.checks"], "count")
    m["cli.spawn_s"] = (p50("cli.spawn", 1e9), "s")
    m["cli.import_s"] = (p50("cli.import", 1e9), "s")
    m["cli.startup_s"] = (p50("cli.startup", 1e9), "s")
    for cmd in ("verify", "coeffs", "eval", "constants"):
        m[f"cli.{cmd}.p50_ms"] = (p50(f"cli.{cmd}", 1e6), "ms")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def layer_counts(wl: Workload, tracer) -> None:
    """Counts of one pass taken from its inputs and outputs, at the spans they belong to."""
    for (span, call, args), out in zip(wl.ops, wl.ledger.first):
        if span.startswith("products."):
            tracer.count(f"{span}.factors", args[0])
            tracer.count("products.factors", args[0])
        elif span == "expansions.check_bounds":
            tracer.count("expansions.check_bounds.n", args[0])
        elif span.startswith("special.ln_gamma."):
            # ln_gamma shifts its argument up to Re z >= 12 one step at a time
            tracer.count("special.ln_gamma.shift_steps", max(0, math.ceil(12 - args[0].real)))
        elif span.startswith(("special.w_closed.", "special.r_closed.")):
            tracer.count(f"special.closed.{span.rsplit('.', 1)[1]}")
        elif span == "expansions.convergence_order.float" and isinstance(out, list):
            tracer.count("expansions.convergence_order.nan", sum(math.isnan(e) for e in out))
            tracer.count("expansions.convergence_order.estimates", len(out))


def traced(name: str, seed: int, seconds: float, tiny: bool = False) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    runs = {w: CLASSES[w](seed, tiny) for w in WORKLOADS}
    traced_ns = {}
    for w, wl in runs.items():
        traced_ns[w] = wl.profile(tracer)
        layer_counts(wl, tracer)
    # tracing overhead: untraced passes of the chosen workload against its
    # traced profile passes, then more of both in turn while time is left
    wl, with_trace, plain = runs[name], traced_ns[name], []
    stop = monotonic_ns() + seconds / 2 * 1e9
    while True:
        plain.append(wl.one_pass()[0])
        if monotonic_ns() >= stop:
            break
        with_trace.append(wl.one_pass(tracing.Tracer())[0])
    W = _import_library()
    summary = summarise([v for r in runs.values() for v in r.verdicts(W)])
    overhead = (statistics.median(with_trace) - statistics.median(plain)) / 1e9
    metrics = per_layer(tracer.spans, tracer.counts, overhead)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace-{name}-{seed}.json"), "w") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    meta = {"overhead_passes": {"untraced": len(plain), "traced": len(with_trace)},
            "spans": len(tracer.spans), **summary}
    return metrics, meta


# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _src_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wallisprod")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wallisprod", "__init__.py")):
        print(f"benchmark: no package at {SRC}/wallisprod", file=sys.stderr)
        return 2
    try:
        run = traced if args.trace else end_to_end
        metrics, meta = run(args.workload, args.seed, args.seconds)
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": _git_sha(), "src_sha256": _src_digest(), **meta}
    if any(value is None for value, _ in metrics.values()):
        print(f"benchmark: metric without a value: {metrics}", file=sys.stderr)
        return 1
    result = {"correct": "unexpected" not in meta["defects"], "attempted": meta["attempted"],
              "failed": meta["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
