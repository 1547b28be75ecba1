"""Output checks against independent references, run outside the timed region.

Floating-point results are compared with mpmath at 40 or more digits:

* ``ln_gamma`` and ``digamma``: error relative to ``max(1, |value|)``, at most 1e-12;
* closed forms, limits and expansion evaluators: relative error of the value,
  at most ``tol * max(1, |log value|)``, because a value formed as ``exp(L)``
  inherits the absolute error of ``L``;
* products: the complex log ``log_abs + i*phase`` (phase mod 2 pi), whose
  error is the relative error of the value, at most ``1e-10 * max(1, |L|)``,
  and ``to_json_dict()`` must serialise as strict JSON.

Exact coefficients are compared with pinned per-entry digests (``pins.json``,
written by ``make_pins.py``).  A failed check is a failed op.  Failures that
match a known defect are tagged with its name; any other failure makes the
run incorrect.  Known defects:

* ``out_of_range``: the true value lies outside the range of normal doubles,
  so no double result can be right; the library raises ``OverflowError`` or
  returns an infinite, zero or subnormal value;
* ``json_infinity``: a product whose value overflows serialises ``Infinity``;
* ``int_str_limit``: ``coeffs --family alphabeta --order 10`` and above die on
  the 4300-digit int-to-str limit;
* ``exact_kernel_50_digits``: the exact error kernel carries pi and exp to
  about 50 digits, so errors below 1e-40 are off by more than 1e-9 relative.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp

from digests import digest

HERE = os.path.dirname(os.path.abspath(__file__))
LOG_MAX = 709.78   # log of the largest double
LOG_MIN = -708.39  # log of the smallest normal double
EXACT_FLOOR = 1e-40
MAX_DIGITS = 30.0
EPS = sys.float_info.epsilon
ELEZOVIC = (Fraction(-1, 4), Fraction(3, 256), Fraction(3, 2048), Fraction(-51, 16384),
            Fraction(-75, 65536), Fraction(2253, 1048576))
ELEZOVIC_POWERS = (1, 3, 4, 5, 6, 7)
SHIFTS = {"w_pq": 1.0, "r_pq": 0.5, "wallis_omega": 0.5, "elezovic": 0.625,
          "wallis_mu": 0.0, "wallis_nu_exp": 0.0}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float | None = None   # -log10 of the relative error, for float outputs
    defect: str | None = None     # name of the known defect a failure matches
    detail: str = ""


def digits_of(rel: float) -> float:
    return MAX_DIGITS if rel <= 10**-MAX_DIGITS else min(MAX_DIGITS, -math.log10(rel))


def _both(a: Verdict, b: Verdict) -> Verdict:
    """Verdict on an output with two checked values (an approximation and its oracle)."""
    if not a.ok:
        return a
    if not b.ok:
        return b
    return Verdict(True, min(a.digits, b.digits))


def _within(rel: float, tol: float, detail: str = "") -> Verdict:
    rel = float(rel)
    if rel <= tol:
        return Verdict(True, digits_of(rel))
    return Verdict(False, digits_of(rel), None, f"{detail} rel error {rel:.3e} > {tol:.1e}")


# ---------------------------------------------------------------------------
# Exact values: digests and pins
# ---------------------------------------------------------------------------

_PINS: dict | None = None


def pins() -> dict:
    global _PINS
    if _PINS is None:
        with open(os.path.join(HERE, "pins.json")) as fh:
            _PINS = json.load(fh)
    return _PINS


def check_digests(family: str, got: list[str]) -> Verdict:
    want = pins()[family][:len(got)]
    if len(want) < len(got):
        return Verdict(False, detail=f"no pins for {family} beyond {len(want)}")
    bad = [i + 1 for i, (g, w) in enumerate(zip(got, want)) if g != w]
    return Verdict(not bad, detail=f"{family} entries differ: {bad[:5]}" if bad else "")


# a library call's exact series -> the pinned family it must equal
SERIES_PINS = {"wallis_nu": "nu", "wallis_nu_raw": "nu", "wallis_mu": "mu", "omega": "omega",
               "omega_alt": "omega", "alpha_beta": "alpha_beta"}


# ---------------------------------------------------------------------------
# mpmath references
# ---------------------------------------------------------------------------

def _mpc(z) -> mp.mpc:
    return mp.mpc(complex(z))


def _roots(p, q):
    d = mp.sqrt(p * p - 4 * q)
    return (p + d) / 2, (p - d) / 2


def log_w_inf(p, q):
    p, q = _mpc(p), _mpc(q)
    mu, nu = _roots(p, q)
    return -p * mp.euler - mp.loggamma(1 + mu) - mp.loggamma(1 + nu)


def log_r_inf(p, q):
    p, q = _mpc(p), _mpc(q)
    mu, nu = _roots(p, q)
    return (-p * mp.log(2) - p * mp.euler / 2 + mp.log(mp.pi)
            - mp.loggamma(0.5 + mu / 2) - mp.loggamma(0.5 + nu / 2))


def log_w_n(n, p, q):
    """Complex log (up to 2 pi i) of prod_{j<=n} exp(-p/j)(1 + p/j + q/j^2)."""
    p, q = _mpc(p), _mpc(q)
    out = -p * mp.harmonic(n) - 2 * mp.loggamma(n + 1)
    for r in _roots(p, q):
        out += mp.loggamma(n + 1 + r) - mp.loggamma(1 + r)
    return out


def log_r_n(n, p, q):
    """Complex log of the odd-denominator product, from (d+mu)(d+nu)/d^2 with d = 2j-1."""
    p, q = _mpc(p), _mpc(q)
    half = mp.mpf(1) / 2
    odd_sum = (mp.digamma(n + half) - mp.digamma(half)) / 2
    out = -p * odd_sum - 2 * (mp.loggamma(n + half) - mp.loggamma(half))
    for r in _roots(p, q):
        out += mp.loggamma(n + half + r / 2) - mp.loggamma(half + r / 2)
    return out


def log_wallis(n):
    n = mp.mpf(n)
    return n * mp.log(16) + 4 * mp.loggamma(n + 1) - mp.loggamma(2 * n + 1) - mp.loggamma(2 * n + 2)


def _bipoly_mp(poly, p, q):
    p, q = _mpc(p), _mpc(q)
    terms = [mp.mpf(c.numerator) / c.denominator * p**i * q**j for (i, j), c in poly.terms.items()]
    return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


class PinMismatch(ValueError):
    """A coefficient a reference is built from differs from its pin."""


_CHECKED: set = set()


def pinned(family: str, values: list) -> list:
    """The library's exact ``values`` of a pinned family, checked against the pins once."""
    if (family, len(values)) not in _CHECKED:
        verdict = check_digests(family, [digest(v) for v in values])
        if not verdict.ok:
            raise PinMismatch(verdict.detail)
        _CHECKED.add((family, len(values)))
    return values


def log_pq_expansion(W, tag: str, n, p, q, order: int):
    """Log of the truncated W/R expansion, from the exact coefficient polynomials."""
    name, x, limit = (("a_poly", mp.mpf(n) + 1, log_w_inf) if tag == "w_pq"
                      else ("b_poly", mp.mpf(n) + mp.mpf(1) / 2, log_r_inf))
    polys = pinned(name, [getattr(W, name)(j) for j in range(1, order + 1)])
    s = mp.fsum(_bipoly_mp(poly, p, q)[0] / x**j for j, poly in enumerate(polys, 1))
    return limit(p, q) + s


def _frac(x) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def wallis_expansion(W, tag: str, n, order: int):
    """Truncated Wallis-sequence expansion at ``n`` in mpmath, from exact coefficients."""
    half_pi = mp.pi / 2
    n = mp.mpf(n)
    if tag == "wallis_mu":
        mu = pinned("mu", list(W.wallis_mu(order).values))
        return half_pi * (1 + mp.fsum(_frac(c) / n**j for j, c in enumerate(mu, 1)))
    if tag == "wallis_nu_exp":
        nu = pinned("nu", list(W.wallis_nu(order).values))
        return half_pi * mp.exp(mp.fsum(_frac(c) / n**j for j, c in enumerate(nu, 1)))
    if tag == "wallis_alpha_beta":
        ab = pinned("alpha_beta", list(W.alpha_beta(order).values))
        return half_pi * (1 + mp.fsum(_frac(a) / (n + _frac(b)) ** (2 * l - 1)
                                      for l, (a, b) in enumerate(ab, 1)))
    if tag == "wallis_omega":
        om = pinned("omega", list(W.omega(order).values))
        return half_pi * mp.exp(mp.fsum(_frac(w) / (n + mp.mpf(1) / 2) ** (2 * l - 1)
                                        for l, w in enumerate(om, 1)))
    if tag == "elezovic":
        return half_pi * (1 + mp.fsum(_frac(c) / (n + mp.mpf(5) / 8) ** e
                                      for c, e in zip(ELEZOVIC[:order], ELEZOVIC_POWERS)))
    raise ValueError(tag)


def _shift(W, tag: str, order: int) -> float:
    if tag == "wallis_alpha_beta":
        return float(pinned("alpha_beta", list(W.alpha_beta(order + 1).values))[order][1])
    return SHIFTS[tag]


# ---------------------------------------------------------------------------
# In-process ops
# ---------------------------------------------------------------------------

def _rel_to_log(out: complex, L) -> float:
    """Relative error of ``out`` against ``exp(L)``."""
    return float(abs(mp.exp(mp.log(_mpc(out)) - L) - 1))


def _value_in_log(out, L, tol: float, what: str) -> Verdict:
    if not LOG_MIN <= float(mp.re(L)) <= LOG_MAX:
        # no double holds the value to full precision, whatever came back
        return Verdict(False, None, "out_of_range",
                       f"{what}: {out!r} for log value {mp.nstr(L, 8)}")
    if isinstance(out, Exception):
        return Verdict(False, detail=f"{what}: raised {out!r}")
    if not cmath.isfinite(out) or out == 0:
        return Verdict(False, detail=f"{what}: {out!r}")
    return _within(_rel_to_log(out, L), tol * max(1.0, float(abs(L))), what)


def _wrap(x) -> float:
    return float(x - 2 * mp.pi * mp.nint(x / (2 * mp.pi)))


def check_product(res, L, real: bool) -> Verdict:
    """``real``: the parameters are real, so ``phase_or_sign`` is the sign."""
    if isinstance(res, Exception):
        return Verdict(False, detail=f"raised {res!r}")
    re_err = abs(res.log_abs - mp.re(L))
    if real:
        want = 1.0 if mp.cos(mp.im(L)) > 0 else -1.0
        err = float(re_err) if res.phase_or_sign == want else math.inf
    else:
        err = float(abs(mp.mpc(re_err, _wrap(res.phase_or_sign - mp.im(L)))))
    verdict = _within(err, 1e-10 * max(1.0, float(abs(L))), "log_abs/phase")
    if not verdict.ok:
        return verdict
    try:
        json.dumps(res.to_json_dict(), allow_nan=False)
    except ValueError:
        defect = "json_infinity" if mp.re(L) > LOG_MAX else None
        return Verdict(False, verdict.digits, defect, "to_json_dict is not strict JSON")
    return verdict


def _check_estimates(W, tag, order, params, ns, got) -> Verdict:
    """Convergence estimates against the same formula on mpmath errors; NaNs are skipped."""
    shift = _shift(W, tag, order)
    exact = tag not in ("w_pq", "r_pq")
    errors = [exact_error(W, tag, order, n) if exact else pq_error(W, tag, order, params, n)
              for n in ns]
    worst = 0.0
    for k, est in enumerate(got):
        (e1, w1), (e2, w2) = errors[k], errors[k + 1]
        if math.isnan(est):
            continue
        span = math.log((ns[k + 1] + shift) / (ns[k] + shift))
        ref = float(mp.log(e1 / e2)) / span
        rel = abs(est - ref) / abs(ref)
        if exact:
            tol = 1e-9
            if rel > tol and min(e1 / w1, e2 / w2) < EXACT_FLOOR:
                return Verdict(False, None, "exact_kernel_50_digits",
                               f"estimate {est:.4f} vs {ref:.4f} at n={ns[k]}..{ns[k + 1]}")
        else:
            # the library calls an error below 64 eps |value| noise; allow twice that
            tol = 128 * EPS * float(w1 / e1 + w2 / e2) / span / abs(ref) + 1e-9
        if rel > tol:
            return Verdict(False, detail=f"estimate {est} vs {ref} (n={ns[k]})")
        worst = max(worst, rel)
    return Verdict(True, digits_of(worst) if exact else None)


def pq_error(W, tag, order, params, n):
    """(|expansion - product|, |product|) for the W/R families in mpmath."""
    p, q = params
    L = (log_w_n if tag == "w_pq" else log_r_n)(n, p, q)
    exact = mp.exp(L)
    return abs(mp.exp(log_pq_expansion(W, tag, n, p, q, order)) - exact), abs(exact)


def exact_error(W, tag, order, n):
    """(|expansion - W_n|, W_n) for the Wallis-sequence families in mpmath."""
    with mp.workdps(100):
        wn = mp.exp(log_wallis(n))
        return abs(wallis_expansion(W, tag, n, order) - wn), wn


def check_exact_error(W, tag, order, n, got: Fraction) -> Verdict:
    with mp.workdps(100):
        err, wn = exact_error(W, tag, order, n)
        rel = float(abs(_frac(got) - err) / err)
        if rel <= 1e-9:
            return Verdict(True, digits_of(rel))
        defect = "exact_kernel_50_digits" if err / wn < EXACT_FLOOR else None
        return Verdict(False, None, defect, f"error {float(got):.3e} vs {float(err):.3e} at n={n}")


def check_op(W, call: str, args: tuple, out) -> Verdict:
    """Verdict on one in-process op, from its call name, plain-data args and output."""
    fn = call.split(".")[1]
    with mp.workdps(40):
        if isinstance(out, Exception) and fn not in ("w_inf", "r_inf", "w_closed", "r_closed"):
            return Verdict(False, detail=f"raised {out!r}")
        if fn in ("ln_gamma", "digamma"):
            ref = (mp.loggamma if fn == "ln_gamma" else mp.digamma)(_mpc(args[0]))
            return _within(abs(_mpc(out) - ref) / max(1, abs(ref)), 1e-12, fn)
        if fn in ("w_inf", "r_inf"):
            return _value_in_log(out, (log_w_inf if fn == "w_inf" else log_r_inf)(*args), 1e-11, fn)
        if fn in ("w_closed", "r_closed"):
            return _value_in_log(out, (log_w_n if fn == "w_closed" else log_r_n)(*args), 1e-11, fn)
        if fn in ("w_product", "r_product"):
            n, p, q = args
            return check_product(out, (log_w_n if fn == "w_product" else log_r_n)(n, p, q),
                                 p.imag == 0 and q.imag == 0)
        if fn in ("eval_w_expansion", "eval_r_expansion"):
            n, p, q, order = args
            tag = "w_pq" if fn == "eval_w_expansion" else "r_pq"
            return _value_in_log(out, log_pq_expansion(W, tag, n, p, q, order), 1e-11, fn)
        if fn.startswith("eval_wallis_") or fn == "eval_elezovic":
            tag = "elezovic" if fn == "eval_elezovic" else fn[len("eval_"):]
            ref = wallis_expansion(W, tag, args[0], args[1])
            return _within(abs(out / ref - 1), 1e-12, fn)
        if fn == "wallis_seq":
            return _within(abs(out / mp.exp(log_wallis(args[0])) - 1), 1e-12, fn)
        if fn == "check_bounds":
            ok = out.violations == 0 and out.tight_upper_n == 1
            return Verdict(ok, detail="" if ok else f"violations={out.violations} "
                                                    f"tight_upper_n={out.tight_upper_n}")
        if fn == "eval_bipoly":
            (_, j), p, q = args
            ref, scale = _bipoly_mp(pinned("a_poly", [W.a_poly(k) for k in range(1, j + 1)])[-1],
                                    p, q)
            return _within(abs(_mpc(out) - ref) / max(scale, mp.mpf(1e-300)), 1e-13, fn)
        if fn == "a_poly":
            ok = digest(out) == pins()["a_poly"][args[0] - 1]
            return Verdict(ok, detail="" if ok else f"a_poly({args[0]}) differs from its pin")
        if fn in ("alpha_beta", "omega"):
            return check_digests(fn, [digest(v) for v in out.values])
        if fn == "convergence_order":
            tag, order, params, ns = args
            return _check_estimates(W, tag, order, params, ns, out)
        if fn == "family_report":
            tag, order, params, n = args
            p, q = params
            L = (log_w_n if tag == "w_pq" else log_r_n)(n, p, q)
            approx = _value_in_log(out.approx, log_pq_expansion(W, tag, n, p, q, order), 1e-11,
                                   "approx")
            return _both(approx, _value_in_log(out.exact, L, 1e-10, "exact"))
    raise ValueError(f"no check for {call}")


def check_exact(W, call: str, args: tuple, result: dict) -> Verdict:
    """Verdict on one exact_cold op from the plain-data summary its process printed."""
    if "error" in result:
        return Verdict(False, detail=f"raised {result['error']}")
    out, fn = result["out"], call.split(".")[1]
    if fn == "bernoulli_number":
        return check_digests("bernoulli", out)
    if fn in ("a_poly", "b_poly"):
        ok = out == pins()[fn][args[0] - 1]
        return Verdict(ok, detail="" if ok else f"{fn}({args[0]}) differs from its pin")
    if fn in SERIES_PINS:
        return check_digests(SERIES_PINS[fn], out)
    tag, order = args[0], args[1]
    if fn == "wallis_error_exact":
        return check_exact_error(W, tag, order, args[2], Fraction(int(out[0], 16), int(out[1], 16)))
    if fn == "convergence_order":
        got = [math.nan if e is None else e for e in out]
        with mp.workdps(40):
            return _check_estimates(W, tag, order, None, args[3], got)
    raise ValueError(f"no check for {call}")


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON; NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _cli_params(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _parse_complex(text: str) -> complex:
    """Inverse of the ``a+bi`` literals the cli_cold generator writes."""
    if not text.endswith("i"):
        return complex(float(text), 0.0)
    body = text[:-1]
    cut = max(i for i, ch in enumerate(body) if ch in "+-" and i > 0 and body[i - 1] not in "eE")
    return complex(float(body[:cut]), float(body[cut:]))


def _true_log(target: str, n: int, p, q):
    return {"wclosed": log_w_n, "wproduct": log_w_n,
            "rclosed": log_r_n, "rproduct": log_r_n}[target](n, p, q)


def check_cli(W, argv: list[str], expected: int, code: int, stdout: str, stderr: str) -> Verdict:
    opts = _cli_params(argv)
    with mp.workdps(40):
        if code != expected:
            defect = None
            if argv[0] == "coeffs" and "Exceeds the limit" in stderr:
                defect = "int_str_limit"
            elif argv[0] == "eval" and "OverflowError" in stderr:
                p, q = _parse_complex(opts["p"]), _parse_complex(opts["q"])
                L = _true_log(opts["target"], int(opts["n"]), p, q)
                defect = "out_of_range" if mp.re(L) > LOG_MAX else None
            tail = stderr.strip().splitlines()[-1:] or [""]
            return Verdict(False, None, defect, f"exit {code}: {tail[0][:200]}")
        try:
            data = strict_json(stdout)
        except ValueError as exc:
            defect = None
            if opts.get("target") == "wproduct" and "Infinity" in stdout:
                p, q = _parse_complex(opts["p"]), _parse_complex(opts["q"])
                if mp.re(_true_log("wproduct", int(opts["n"]), p, q)) > LOG_MAX:
                    defect = "json_infinity"
            return Verdict(False, None, defect, f"stdout is not strict JSON: {exc}")
        if argv[0] == "verify":
            ok = data["failed"] == 0 and all(c["passed"] for c in data["checks"])
            return Verdict(ok, detail="" if ok else "verify reported failed checks")
        if argv[0] == "coeffs":
            return _check_cli_coeffs(W, opts, data)
        if argv[0] == "constants":
            return _check_constants(data)
        return _check_cli_eval(W, opts, data)


def _check_cli_coeffs(W, opts, data) -> Verdict:
    fam, order = opts["family"], int(opts["order"])
    if fam in ("a", "b"):
        build = W.a_poly if fam == "a" else W.b_poly
        got = [digest(build(j)) for j in range(1, order + 1)]
        if got != pins()[f"{fam}_poly"][:order]:
            return Verdict(False, detail=f"library {fam}_poly differs from pins")
        ok = data["values"] == [str(build(j)) for j in range(1, order + 1)]
        return Verdict(ok, detail="" if ok else "printed polynomials differ")
    if fam == "alphabeta":
        values = [(Fraction(a), Fraction(b)) for a, b in data["values"]]
        return check_digests("alpha_beta", [digest(v) for v in values])
    return check_digests(fam, [digest(Fraction(v)) for v in data["values"]])


def _check_constants(data) -> Verdict:
    eg = mp.exp(mp.euler)
    want = {"euler_gamma": mp.euler, "exp_euler_gamma": eg, "pi_over_2": mp.pi / 2,
            "wilf": (mp.exp(mp.pi / 2) + mp.exp(-mp.pi / 2)) / (mp.pi * eg),
            "two_over_pi": 2 / mp.pi, "neg_two_exp_gamma": -2 * eg,
            "half_exp_neg_gamma": 1 / (2 * eg)}
    if set(data) != set(want):
        return Verdict(False, detail=f"constants keys {sorted(data)}")
    worst = max(abs(mp.mpf(data[k]) / v - 1) for k, v in want.items())
    return _within(worst, 1e-15, "constants")


def _check_cli_eval(W, opts, data) -> Verdict:
    target, n = opts["target"], int(opts["n"])
    if target == "wallis":
        got = data["value"]["re"]
        return _within(abs(got / mp.exp(log_wallis(n)) - 1), 1e-12, target)
    if target.startswith("expansion:"):
        key = target.split(":")[1]
        tag = {"w": "w_pq", "r": "r_pq", "mu": "wallis_mu", "nu": "wallis_nu_exp",
               "alphabeta": "wallis_alpha_beta", "omega": "wallis_omega",
               "elezovic": "elezovic"}[key]
        order = int(opts["order"])
        approx = complex(data["approx"]["re"], data["approx"]["im"])
        exact = complex(data["exact"]["re"], data["exact"]["im"])
        if tag in ("w_pq", "r_pq"):
            p, q = _parse_complex(opts["p"]), _parse_complex(opts["q"])
            a = _value_in_log(approx, log_pq_expansion(W, tag, n, p, q, order), 1e-11, "approx")
            e = _value_in_log(exact, _true_log(tag[0] + "product", n, p, q), 1e-10, "exact")
        else:
            a = _within(abs(approx / wallis_expansion(W, tag, n, order) - 1), 1e-12, "approx")
            e = _within(abs(exact / mp.exp(log_wallis(n)) - 1), 1e-12, "exact")
        return _both(a, e)
    p, q = _parse_complex(opts["p"]), _parse_complex(opts["q"])
    L = _true_log(target, n, p, q)
    if target.endswith("closed"):
        return _value_in_log(complex(data["value"]["re"], data["value"]["im"]), L, 1e-11, target)
    res = SimpleNamespace(log_abs=data["log_abs"], phase_or_sign=data["phase_or_sign"],
                          value=complex(data["value"]["re"], data["value"]["im"]),
                          to_json_dict=lambda: data)
    return check_product(res, L, p.imag == 0 and q.imag == 0)
