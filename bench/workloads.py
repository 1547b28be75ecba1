"""Seeded op lists of the four workloads, and the closed loop that runs them.

An op is ``(span, call, args)``: the span name used for tracing and for the
per-layer metrics, the library entry point as ``"module.function"``, and the
arguments as plain data.  Generators depend only on the seed (and on
``tiny``, which shrinks every size for the smoke tests), so the library sees
only generated inputs and the same seed always gives the same list.

Draws are stratified: a range is cut into as many equal slices as there are
draws and each slice gets one draw, in seeded order.  That keeps the total
work of a pass, and so ``pass_s``, nearly the same from seed to seed while
every input still changes with it.

Inputs that hit a known defect are placed at a fixed count per pass (the
pinned ops below), so each defect shows on every seed at the same rate.
"""

from __future__ import annotations

import cmath
import random
from time import perf_counter_ns

# Exact-mode convergence families and orders.  Omega at order 6 is the family
# whose truncation error falls below the error kernel's 50-digit floor at the
# top of the n grid, which is one of the known defects; the single
# wallis_error_exact calls sit at the grid's second point, clear of it.
EXACT_FAMILIES = (("wallis_mu", 6), ("wallis_nu_exp", 6), ("wallis_alpha_beta", 3),
                  ("wallis_omega", 6), ("elezovic", 6))

# The inputs of the known overflow defect: the value of W_n is about
# exp(22792), far outside the double range.  Flipping the sign of Re p gives
# about exp(-22711), which w_closed returns as a silent zero.
OVERFLOW_ARGS = (10**5, complex(-3000, 0.5), 100.0)
UNDERFLOW_ARGS = (10**5, complex(3000, 0.5), 100.0)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, k: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """``k`` draws from ``[lo, hi)``, one in each of ``k`` equal slices, shuffled."""
    out = []
    for i in range(k):
        u = (i + rng.random()) / k
        out.append(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)
    rng.shuffle(out)
    return out


def _complex(rng: random.Random, radius: float) -> complex:
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def _moderate(rng: random.Random, k: int) -> list[tuple[complex, complex]]:
    """``k`` pairs ``(p, q) = (mu + nu, mu nu)`` with roots of real part in [-2.5, 2.5].

    The real parts are stratified: how far ln_gamma shifts a root, and so
    what a call costs, then takes the same values on every seed.
    """
    re_mu, re_nu = _strata(rng, k, -2.5, 2.5), _strata(rng, k, -2.5, 2.5)
    out = []
    for a, b in zip(re_mu, re_nu):
        mu, nu = complex(a, rng.uniform(-2, 2)), complex(b, rng.uniform(-2, 2))
        out.append((mu + nu, mu * nu))
    return out


def closed_path(fn: str, n: int, p: complex, q: complex) -> str:
    """Which path ``w_closed``/``r_closed`` takes: ``asym`` when the gamma argument
    is at least 256 and both roots are within an eighth of it, else ``rising``."""
    d = cmath.sqrt(p * p - 4 * q)
    z, scale = (n + 1, 2) if fn == "w_closed" else (n + 0.5, 4)
    roots = ((p + d) / scale, (p - d) / scale)
    return "asym" if z >= 256 and max(abs(r) for r in roots) <= z / 8 else "rising"


def _away_from_cut(rng: random.Random, x: float) -> complex:
    # an imaginary part bounded away from 0 keeps negative real parts off the
    # branch cut of ln Gamma, where the principal branch is not continuous
    return complex(x, rng.choice((-1, 1)) * rng.uniform(0.05, 5.0))


# ---------------------------------------------------------------------------
# exact_cold
# ---------------------------------------------------------------------------

def exact_grid(rng: random.Random, tiny: bool) -> list[int]:
    """Five points near 10^2, 10^2.5, ..., 10^4, each moved by up to 5%.

    The tiny grid has three points near 10^2, 10^2.3 and 10^2.6.
    """
    step, k = (0.3, 3) if tiny else (0.5, 5)
    grid = [round(10 ** (2 + i * step + rng.uniform(-0.02, 0.02))) for i in range(k)]
    return [min(max(n, 100), 10**4) for n in grid]


def exact_cold_ops(seed: int, tiny: bool = False) -> list[tuple]:
    rng = _rng("exact_cold", seed)
    j_max, order, levels, om, raw = (6, 24, 4, 8, 6) if tiny else (30, 240, 12, 100, 60)
    ops = [("bernoulli.table_build", "bernoulli.bernoulli_number", (order + 1,))]
    ops += [("coeffs.a_poly.build", "coeffs.a_poly", (j,)) for j in range(1, j_max + 1)]
    ops += [("coeffs.b_poly.build", "coeffs.b_poly", (j,)) for j in range(1, j_max + 1)]
    ops += [
        ("coeffs.wallis_nu.build", "coeffs.wallis_nu", (order,)),
        ("coeffs.wallis_mu.build", "coeffs.wallis_mu", (order,)),
        ("coeffs.alpha_beta.build", "coeffs.alpha_beta", (levels,)),
        ("coeffs.omega.build", "coeffs.omega", (om,)),
        ("coeffs.omega_alt.build", "coeffs.omega_alt", (om,)),
        ("coeffs.wallis_nu_raw.build", "coeffs.wallis_nu_raw", (raw,)),
    ]
    for tag, k in EXACT_FAMILIES:
        grid = exact_grid(rng, tiny)
        k = min(k, 2) if tiny else k
        ops.append(("expansions.wallis_error_exact", "expansions.wallis_error_exact",
                    (tag, k, grid[1])))
        ops.append(("expansions.convergence_order.exact", "expansions.convergence_order",
                    (tag, k, None, grid)))
    return ops


# ---------------------------------------------------------------------------
# numeric_warm
# ---------------------------------------------------------------------------

def numeric_warm_ops(seed: int, tiny: bool = False) -> list[tuple]:
    rng = _rng("numeric_warm", seed)
    m = 4 if tiny else 1  # divide every count by m for the smoke pass
    ops: list[tuple] = []

    def add(span, call, argsets):
        ops.extend((span, call, args) for args in argsets)

    near = lambda k: [complex(x, y) for x, y in zip(_strata(rng, k, 0.5, 60.0),
                                                    _strata(rng, k, -30.0, 30.0))]
    left = lambda k: [_away_from_cut(rng, x) for x in _strata(rng, k, -1000.0, -0.5)]
    add("special.ln_gamma.near", "special.ln_gamma", [(z,) for z in near(40 // m)])
    add("special.ln_gamma.far_left", "special.ln_gamma", [(z,) for z in left(12 // m)])
    add("special.digamma", "special.digamma", [(z,) for z in near(16 // m) + left(8 // m)])

    # Large parameters come in two classes of fixed size whose outcome is known
    # from the construction: |q| up to 1e4 with |p| <= 1 has roots near
    # +-i sqrt(q) and a value inside the double range; Re p in [-1e4, -1e3]
    # puts a gamma argument far left and the value far outside it (the
    # overflow defect).  ln_gamma's cost grows with |Re| of its argument, so
    # -Re p is drawn once near each end of its range: each call then costs
    # about the same on every seed.
    def large():
        inside = [(_complex(rng, 1.0), complex(q, rng.uniform(-1, 1)))
                  for q in _strata(rng, 2, 10.0, 1e4, log=True)]
        outside = [(complex(-x, rng.choice((-1, 1)) * rng.uniform(1, 100)), _complex(rng, 1e4))
                   for x in (rng.uniform(1e3, 1.2e3), rng.uniform(9.8e3, 1e4))]
        return inside + outside

    for fn in ("w_inf", "r_inf"):
        add(f"special.{fn}", f"special.{fn}", _moderate(rng, 12 // m) + large())
    for fn in ("w_closed", "r_closed"):
        rising = [(round(n), p, q) for n, (p, q) in
                  zip(_strata(rng, 10 // m, 2, 250, log=True), _moderate(rng, 10 // m))]
        asym = [(round(n), p, q) for n, (p, q) in
                zip(_strata(rng, 10 // m, 300, 1e5, log=True), _moderate(rng, 10 // m))]
        # n below 250 keeps the far-left draws on one path, so their cost is fixed
        big = [(round(n), p, q) for n, (p, q) in
               zip(_strata(rng, 2, 10, 1e5, log=True) + _strata(rng, 2, 10, 250, log=True),
                   large())]
        pinned = [OVERFLOW_ARGS, UNDERFLOW_ARGS] if fn == "w_closed" else []
        for args in rising + asym + big + pinned:
            ops.append((f"special.{fn}.{closed_path(fn, *args)}", f"special.{fn}", args))

    for fn in ("eval_w_expansion", "eval_r_expansion"):
        orders = list(range(1, 21, m))
        rng.shuffle(orders)
        ns = _strata(rng, len(orders), 50, 1e4, log=True)
        add(f"expansions.{fn}", f"expansions.{fn}",
            [(round(n), _complex(rng, 2.0), _complex(rng, 2.0), k) for n, k in zip(ns, orders)])
    for fn, top in (("eval_wallis_mu", 20), ("eval_wallis_nu_exp", 20),
                    ("eval_wallis_alpha_beta", 10), ("eval_wallis_omega", 12),
                    ("eval_elezovic", 6)):
        orders = list(range(1, top + 1, m))
        rng.shuffle(orders)
        ns = _strata(rng, len(orders), 10, 1e4, log=True)
        add(f"expansions.{fn}", f"expansions.{fn}", [(round(n), k) for n, k in zip(ns, orders)])

    for fn, top in (("a_poly", 20), ("alpha_beta", 10), ("omega", 12)):
        orders = list(range(1, top + 1, m))
        rng.shuffle(orders)
        add(f"coeffs.{fn}.warm", f"coeffs.{fn}", [(k,) for k in orders])
    js = list(range(1, 21, m))
    rng.shuffle(js)
    add("coeffs.eval_bipoly", "coeffs.eval_bipoly",
        [(("a_poly", j), _complex(rng, 2.0), _complex(rng, 2.0)) for j in js])

    rng.shuffle(ops)
    return ops


def numeric_prime(W) -> None:
    """Fill the coefficient caches the numeric_warm mix reads (orders up to 20)."""
    for j in range(1, 21):
        W.a_poly(j)
        W.b_poly(j)
    W.wallis_mu(20)


# ---------------------------------------------------------------------------
# oracle_scan
# ---------------------------------------------------------------------------

N_LO, N_HI = 10**5, 10**6


def oracle_scan_ops(seed: int, tiny: bool = False) -> list[tuple]:
    rng = _rng("oracle_scan", seed)
    lo, hi = (10**3, 10**4) if tiny else (N_LO, N_HI)
    ops = []
    # Each pair of w/r calls of one kind has n + n' = lo + hi, so the factors
    # per pass are fixed while each n spans [lo, hi]; w and r cost the same
    # per factor, so the pass time is fixed too.  The small-|p| draw of each
    # kind takes the larger n, where the oracle's rounding error is largest.
    small_p = (complex(rng.choice((-1, 1)) * rng.uniform(5e-4, 2e-3), 0.0),
               complex(rng.uniform(-2e-3, 2e-3), 0.0))
    negative = (complex(rng.uniform(-2, 2), 0.0), complex(rng.uniform(-8.0, -3.0), 0.0))
    small_c = (complex(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)), _complex(rng, 1e-3))
    moderate = (_complex(rng, 3.0), _complex(rng, 3.0))
    for kind, big_n, other in (("real", small_p, negative), ("complex", small_c, moderate)):
        n = round(lo * (hi / lo) ** rng.random())
        n_big, n_small = max(n, lo + hi - n), min(n, lo + hi - n)
        fns = ["w_product", "r_product"]
        rng.shuffle(fns)
        ops.append((f"products.{fns[0]}.{kind}", f"products.{fns[0]}", (n_big, *big_n)))
        ops.append((f"products.{fns[1]}.{kind}", f"products.{fns[1]}", (n_small, *other)))
    ops.append(("products.w_product.complex", "products.w_product",
                (OVERFLOW_ARGS[0] // (100 if tiny else 1),) + OVERFLOW_ARGS[1:]))
    ops.append(("products.wallis_seq", "products.wallis_seq", (hi,)))
    ops.append(("expansions.check_bounds", "expansions.check_bounds", (lo,)))
    # Small float checks against the products: each family report runs the
    # oracle at n near 10^4, so they cost about the same and, being most of
    # the ops, fix where the median op falls.
    for tag in ("w_pq", "r_pq"):
        grid = [round(10 ** (2 + k * 0.26 + rng.uniform(-0.03, 0.03))) for k in range(6)]
        ops.append(("expansions.convergence_order.float", "expansions.convergence_order",
                    (tag, rng.randint(1, 4), (_complex(rng, 2.0), _complex(rng, 2.0)), grid)))
        for order in range(1, 5):
            n = round(lo // 10 * 10 ** rng.uniform(-0.005, 0.005))
            ops.append(("expansions.family_report", "expansions.family_report",
                        (tag, order, (_complex(rng, 2.0), _complex(rng, 2.0)), n)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

SUITES = ("bernoulli", "coeffs", "closedforms", "limits", "bounds", "all")
EVAL_TARGETS = ("wclosed", "rclosed", "wproduct", "rproduct")
EXPANSION_KEYS = ("w", "r", "mu", "nu", "alphabeta", "omega", "elezovic")


def _lit(z: complex) -> str:
    """A complex number as a CLI literal that parses back to the same doubles."""
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def cli_cold_ops(seed: int, tiny: bool = False) -> list[tuple]:
    """Ops are ``(span, argv after 'python -m wallisprod.cli', expected exit code)``.

    About forty invocations, so the tail percentile has ten ops beyond it.
    """
    rng = _rng("cli_cold", seed)
    k = 1 if tiny else 3  # draws per family, target and expansion
    ops = []
    for suite in (("limits",) if tiny else SUITES):
        ops.append(("cli.verify", ["verify", "--suite", suite, "--format", "json"], 0))
    for fam in (("a", "nu") if tiny else ("a", "b", "nu", "mu", "omega")):
        for order in _strata(rng, k, 1, 13):
            ops.append(("cli.coeffs", ["coeffs", "--family", fam, "--order", str(int(order)),
                                       "--format", "json"], 0))
    # alpha_beta levels 10..12 overflow the int-to-str limit (a known defect);
    # they run on every seed, the seeded draws cover the levels below
    for order in [int(x) for x in _strata(rng, k, 1, 10)] + ([] if tiny else [10, 11, 12]):
        ops.append(("cli.coeffs", ["coeffs", "--family", "alphabeta", "--order", str(order),
                                   "--format", "json"], 0))
    for target in EVAL_TARGETS[:1] if tiny else EVAL_TARGETS:
        for n in _strata(rng, 2 if k > 1 else 1, 10, 1e4, log=True):
            ops.append(("cli.eval", ["eval", "--target", target, "--n", str(round(n)),
                                     "--p", _lit(_complex(rng, 2.0)),
                                     "--q", _lit(_complex(rng, 2.0)), "--format", "json"], 0))
    if not tiny:
        for n in _strata(rng, 2, 1, 1e6, log=True):
            ops.append(("cli.eval", ["eval", "--target", "wallis", "--n", str(round(n)),
                                     "--format", "json"], 0))
        for key in rng.sample(EXPANSION_KEYS, 2):
            argv = ["eval", "--target", f"expansion:{key}", "--n", str(rng.randint(100, 5000)),
                    "--order", str(rng.randint(1, 6)), "--format", "json"]
            if key in ("w", "r"):
                argv += ["--p", _lit(_complex(rng, 2.0)), "--q", _lit(_complex(rng, 2.0))]
            ops.append(("cli.eval", argv, 0))
        n, p, q = OVERFLOW_ARGS
        for target in ("wproduct", "wclosed"):
            ops.append(("cli.eval", ["eval", "--target", target, "--n", str(n), "--p", _lit(p),
                                     "--q", _lit(q), "--format", "json"], 0))
    ops.append(("cli.constants", ["constants", "--format", "json"], 0))
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "exact_cold": exact_cold_ops,
    "numeric_warm": numeric_warm_ops,
    "oracle_scan": oracle_scan_ops,
    "cli_cold": cli_cold_ops,
}


# ---------------------------------------------------------------------------
# Running ops in-process
# ---------------------------------------------------------------------------

def resolve(W, call: str):
    module, name = call.split(".")
    return getattr(getattr(W, module), name)


def prepare(W, ops: list[tuple]) -> list[tuple]:
    """Turn op data into ``(span, callable, args)``; library objects are built here, untimed."""
    out = []
    for span, call, args in ops:
        fn = resolve(W, call)
        if call in ("expansions.convergence_order", "expansions.family_report"):
            tag, order, params, rest = args
            args = (W.ExpansionFamily(W.ExpansionTag(tag), order, params), rest)
        elif call == "expansions.wallis_error_exact":
            args = (W.ExpansionTag(args[0]),) + tuple(args[1:])
        elif call == "coeffs.eval_bipoly":
            args = (W.a_poly(args[0][1]),) + tuple(args[1:])
        out.append((span, fn, args))
    return out


def run_pass(prepared: list[tuple], tracer=None) -> tuple[int, list[int], list]:
    """One closed-loop pass; returns its wall time, per-op latencies (ns) and outputs.

    An op that raises yields its exception as the output.
    """
    lat, outs = [], []
    if tracer:
        tracer.start("pass")
    t0 = perf_counter_ns()
    for span, fn, args in prepared:
        if tracer:
            tracer.start(span)
        s = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing op is a measured outcome, not a harness error
            out = exc
        e = perf_counter_ns()
        if tracer:
            tracer.end()
        lat.append(e - s)
        outs.append(out)
    t1 = perf_counter_ns()
    if tracer:
        tracer.end()
    return t1 - t0, lat, outs
