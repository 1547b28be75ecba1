"""Tests of the benchmark itself: seeded generators, the checker, and tiny smoke passes.

Run with ``PYTHONPATH=src python -m pytest -q bench/test_bench.py``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("tiny", [False, True])
def test_generator_is_deterministic(name, tiny):
    gen = workloads.GENERATORS[name]
    assert gen(7, tiny) == gen(7, tiny)
    assert gen(7, tiny) != gen(8, tiny)


def test_stratified_draws_cover_every_slice():
    import random
    draws = workloads._strata(random.Random(1), 8, 0.0, 8.0)
    assert sorted(int(x) for x in draws) == list(range(8))


def _warm_outputs():
    W = run._import_library()
    workloads.numeric_prime(W)
    ops = workloads.numeric_warm_ops(3, tiny=True)
    _, _, outs = workloads.run_pass(workloads.prepare(W, ops))
    return W, ops, outs


def test_checker_passes_true_outputs_and_flags_corrupted_ones():
    W, ops, outs = _warm_outputs()
    corrupted = 0
    for (span, call, args), out in zip(ops, outs):
        verdict = checks.check_op(W, call, args, out)
        if isinstance(out, complex) and verdict.ok and verdict.digits is not None:
            bad = checks.check_op(W, call, args, out * (1 + 1e-8))
            assert not bad.ok and bad.defect is None, (span, args)
            corrupted += 1
        elif not verdict.ok:
            assert verdict.defect == "out_of_range", (span, args, verdict)
    assert corrupted > 10


def test_checker_flags_a_wrong_coefficient():
    W = run._import_library()
    assert checks.check_op(W, "coeffs.omega", (5,), W.omega(5)).ok
    values = list(W.omega(5).values)
    values[2] += Fraction(1, 10**12)
    wrong = W.CoeffSeries(W.Family.OMEGA, 5, tuple(values))
    assert not checks.check_op(W, "coeffs.omega", (5,), wrong).ok
    good = {"out": [checks.digest(v) for v in W.wallis_mu(8).values]}
    assert checks.check_exact(W, "coeffs.wallis_mu", (8,), good).ok
    bad = {"out": good["out"][:3] + [checks.digest(Fraction(1, 3))] + good["out"][4:]}
    assert not checks.check_exact(W, "coeffs.wallis_mu", (8,), bad).ok


def test_checker_flags_a_wrong_product_and_non_strict_json():
    W = run._import_library()
    res = W.w_product(2000, 0.5 + 0.25j, -0.75)
    L = checks.log_w_n(2000, 0.5 + 0.25j, -0.75)
    assert checks.check_product(res, L, real=False).ok
    shifted = W.ProductResult(res.value, res.log_abs + 1e-6, res.phase_or_sign, None, res.terms)
    assert not checks.check_product(shifted, L, real=False).ok
    for text in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'):
        with pytest.raises(ValueError):
            checks.strict_json(text)
    argv = ["constants", "--format", "json"]
    out = subprocess.run([sys.executable, "-m", "wallisprod.cli", *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=run.SRC))
    assert checks.check_cli(W, argv, 0, out.returncode, out.stdout, out.stderr).ok
    broken = out.stdout.replace('"1.78107', '"1.78207')
    assert not checks.check_cli(W, argv, 0, 0, broken, "").ok


def test_known_defects_are_counted_with_their_names():
    W = run._import_library()
    n, p, q = workloads.OVERFLOW_ARGS
    try:
        out = W.w_closed(n, p, q)
    except OverflowError as exc:
        out = exc
    verdict = checks.check_op(W, "special.w_closed", (n, p, q), out)
    assert not verdict.ok and verdict.defect == "out_of_range"
    n //= 100
    verdict = checks.check_op(W, "products.w_product", (n, p, q), W.w_product(n, p, q))
    assert not verdict.ok and verdict.defect == "json_infinity"


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_pass(name):
    metrics, meta = run.end_to_end(name, seed=1, seconds=0, tiny=True)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert all(isinstance(v, float) and math.isfinite(v) for v, _ in metrics.values()), metrics
    assert meta["attempted"] >= 1 and "unexpected" not in meta["defects"], meta


def test_traced_smoke_emits_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    metrics, meta = run.traced("numeric_warm", seed=1, seconds=0, tiny=True)
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert all(math.isfinite(v) for v, _ in metrics.values()), metrics
    assert "unexpected" not in meta["defects"], meta
    assert (tmp_path / ".bench_out" / "trace-numeric_warm-1.json").exists()


def test_units_match_benchmark_json():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    e2e, _ = run.end_to_end("numeric_warm", seed=2, seconds=0, tiny=True)
    assert all(units[k] == u for k, (_, u) in e2e.items())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
