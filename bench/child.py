"""Work that must start in a fresh interpreter; run by ``run.py``, one process at a time.

    python3 bench/child.py exact_cold <seed> <tiny> <trace> <spawn_ns>
    python3 bench/child.py setup <numeric_warm|oracle_scan>
    python3 bench/child.py verify_suites

``spawn_ns`` is the parent's ``time.monotonic_ns()`` just before it started
this process.  CLOCK_MONOTONIC is system-wide on Linux, so times measured
here are comparable with it.  The library is imported before anything else,
so the exact_cold set-up time holds only interpreter start and import, and
the ``setup`` probe times the import alone.  One JSON object is printed on
stdout.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
IMPORT_NS = time.monotonic_ns()
import wallisprod as W  # noqa: E402

READY_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(1, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _hex(x: int) -> str:
    return format(x, "x")  # no decimal str(): the int-to-str digit limit


def _digests(call: str, args: tuple, out):
    """Plain-data summary of an exact output, taken after the timed pass."""
    from digests import digest
    fn = call.split(".")[1]
    if fn == "bernoulli_number":  # the whole table up to the index asked for
        return [digest(W.bernoulli_number(k)) for k in range(args[0] + 1)]
    if fn in ("a_poly", "b_poly"):
        return digest(out)
    if fn == "wallis_error_exact":
        return [_hex(out.numerator), _hex(out.denominator)]
    if fn == "convergence_order":
        return [None if e != e else e for e in out]
    return [digest(v) for v in out.values]


def _bits(out) -> int:
    """Largest numerator or denominator bit length in an exact output."""
    vals = getattr(out, "values", None)
    if vals is None:
        vals = out.terms.values() if hasattr(out, "terms") else []
    flat = [x for v in vals for x in (v if isinstance(v, tuple) else (v,))]
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in flat),
               default=0)


def exact_cold(seed: int, tiny: bool, trace: bool, spawn_ns: int) -> dict:
    ops = workloads.exact_cold_ops(seed, tiny)
    tracer = tracing.Tracer() if trace else None
    prepared = workloads.prepare(W, ops)
    _, lat, outs = workloads.run_pass(prepared, tracer)
    done_ns = time.monotonic_ns()
    rss = _peak_rss_kib()
    results = []
    for (span, call, args), out in zip(ops, outs):
        if isinstance(out, Exception):
            results.append({"error": repr(out)})
            continue
        results.append({"out": _digests(call, args, out)})
    counts = {}
    if trace:
        counts["bernoulli.entries"] = ops[0][2][0] + 1
        counts["coeffs.a_poly.terms"] = sum(len(o.terms) for (s, _, _), o in zip(ops, outs)
                                            if s == "coeffs.a_poly.build")
        counts["coeffs.rational_bits_max"] = max(_bits(o) for (s, _, _), o in zip(ops, outs)
                                                 if s.startswith("coeffs.")
                                                 and not isinstance(o, Exception))
    return {"setup_ns": READY_NS - spawn_ns, "pass_ns": done_ns - spawn_ns, "lat_ns": lat,
            "peak_rss_kib": rss, "results": results,
            "spans": tracer.spans if tracer else [], "counts": counts}


def setup(workload: str) -> dict:
    # the import is already done; numeric_warm also primes the coefficient caches
    start = time.perf_counter_ns()
    if workload == "numeric_warm":
        workloads.numeric_prime(W)
    prime_ns = time.perf_counter_ns() - start
    return {"import_ns": READY_NS - IMPORT_NS, "prime_ns": prime_ns}


def verify_suites() -> dict:
    from wallisprod import verify
    tracer = tracing.Tracer()
    results = {}
    for name, suite in verify.SUITES.items():
        tracer.start(f"verify.{name}")
        checks = suite()
        tracer.end()
        results[name] = [c.passed for c in checks]
    return {"results": results, "spans": tracer.spans}


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "exact_cold":
        out = exact_cold(int(rest[0]), rest[1] == "1", rest[2] == "1", int(rest[3]))
    elif mode == "setup":
        out = setup(rest[0])
    elif mode == "verify_suites":
        out = verify_suites()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(out, sys.stdout)
