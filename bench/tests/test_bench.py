"""Tests of the benchmark's own parts: input generation, tracing, checks.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import charkit  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def assembled():
    _, op, table = charkit.build_a(charkit.QuadraticCorpus.load_default())
    return op, table


# ------------------------------------------------------------- generator

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operations_repeat_per_seed_and_differ_across_seeds(workload):
    first = workloads.operations(workload, 7)
    assert first == workloads.operations(workload, 7)
    assert first != workloads.operations(workload, 8)
    assert len(first) >= 30


def test_solve_weights_are_distinct_and_cold(assembled):
    _, table = assembled
    for seed in (1, 2, 3):
        weights = workloads.solve_sample(seed)
        assert len(set(weights)) == len(weights)
        assert all(table.provenance(w) is None for w in weights)
        assert workloads.LARGE_WEIGHT in weights
        assert sum(sum(w) == 3 for w in weights) >= workloads.SOLVE_THIRD_ORDER


def test_oracle_weights_are_under_the_ceiling():
    small = [charkit.weyl_dim(w) for w in workloads.ORACLE_SMALL]
    medium = [charkit.weyl_dim(w) for w in workloads.ORACLE_MEDIUM]
    assert max(small) < 10**4 <= min(medium)
    assert max(medium) <= 2 * 10**5
    assert charkit.weyl_dim(workloads.ORACLE_LARGE) == 365750


def test_cubic_monomials_match_the_shipped_corpus():
    fx = charkit.fixtures
    shipped = fx.load_mcg_file(fx.data_path("cubic_series.txt"))
    assert sorted(workloads.cubic_monomials()) == sorted(shipped)


def test_heights_match_the_library():
    from charkit.lie_core import weight_height2
    for w in workloads.weights_in_band(0, 150):
        assert workloads.height2(w) == weight_height2(w)


def test_supports_match_the_library():
    from charkit.lie_core import dominant_weights_below
    inv2 = workloads._inverse_cartan2()
    assert tuple(sum(row) for row in inv2) == workloads.TWO_RHO
    support = workloads.supports(workloads.VERIFY_HEIGHT)
    for w in list(support)[::25] + [workloads.ORACLE_LARGE]:
        assert support[w] == len(dominant_weights_below(w))


def test_verify_weights_lie_in_their_support_bands(assembled):
    _, table = assembled
    support = workloads.supports(workloads.VERIFY_HEIGHT)
    for seed in (1, 2, 3):
        solved = [w for kind, w in workloads.operations("verify", seed)
                  if kind == "character_m2"]
        assert len(set(solved)) == len(solved)
        assert all(table.provenance(w) is None for w in solved)
        sizes = sorted(support[w] for w in solved)
        for lo, hi, n in workloads.VERIFY_BANDS:
            assert sum(lo <= x <= hi for x in sizes) == n


# --------------------------------------------------------------- tracing

def _attributes():
    out = {}
    for owner_path, attr, _name, _hot in tracing.TARGETS:
        owner = tracing._resolve(owner_path)
        out[(owner_path, attr)] = vars(owner)[attr]
    return out


def test_tracer_restores_every_original(assembled):
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _attributes()
        assert all(during[k] is not before[k] for k in before)
    finally:
        tracer.restore()
    after = _attributes()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_a_cold_solve(assembled):
    op, _ = assembled
    table = charkit.CharacterTable(charkit.Delta1Operator(op.a))
    w = (0, 1, 0, 0, 0, 1, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        chi = table.character(w)
        table.character(w)
    finally:
        tracer.restore()
    values = tracer.layer_values()
    assert values["charsolve.character.calls"] == 2
    assert values["charsolve.character.solves"] == 1
    assert values["charsolve.character.memory_hits"] == 1
    assert values["charsolve.character_m1.terms_out"] == len(chi)
    assert values["lie_core.dominant_weights_below.calls"] == 1
    assert values["csmodel.image_terms.calls"] >= values["csmodel.image_terms.misses"] > 0
    assert values["polyring.mul.calls"] == 0
    names = {name for name, _ in tracing.LAYER_METRICS}
    assert set(values) <= names
    ids = {span[0] for span in tracer.spans}
    assert all(parent == 0 or parent in ids for *_, parent in tracer.spans)


# ----------------------------------------------------------- calibration

def test_calibrator_brackets_every_segment_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    cal = calibrate.Calibrator(period_s=0.02)
    start = time.perf_counter()
    cal.start()
    try:
        while time.perf_counter() - start < 0.3:
            pass
    finally:
        cal.stop()
    wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(cal.segments) >= 5
    assert len(cal.kernels) == len(cal.segments) + 1
    assert cal.spent_s == pytest.approx(sum(cal.kernels))
    assert cal.work_s() == pytest.approx(wall - cal.spent_s, abs=1e-3)
    mean_kernel = sum(cal.kernels) / len(cal.kernels)
    assert cal.work_ref() == pytest.approx(cal.work_s() / mean_kernel, rel=0.5)


def test_peak_rss_leaves_out_the_spawning_process():
    import subprocess
    ballast = b"x" * (64 << 20)   # a parent far larger than the child
    child = subprocess.run(
        [sys.executable, "-c", "import worker; print(worker.peak_rss_mb())"],
        cwd=BENCH, capture_output=True, text=True, check=True)
    del ballast
    assert 0 < float(child.stdout) < 48


def test_work_ref_divides_each_segment_by_its_neighbours():
    cal = calibrate.Calibrator()
    cal.segments = [1.0, 3.0]
    cal.kernels = [0.1, 0.3, 0.2]
    assert cal.work_ref() == pytest.approx(1.0 / 0.2 + 3.0 / 0.25)


def test_tracer_times_spans_on_the_given_clock(assembled):
    op, _ = assembled
    table = charkit.CharacterTable(charkit.Delta1Operator(op.a))
    tracer = tracing.Tracer(clock=lambda: 5.0)
    tracer.install()
    try:
        table.character((0, 0, 0, 0, 1, 0, 1))
    finally:
        tracer.restore()
    assert tracer.spans
    assert all(start == end == 5.0 for _, _, start, end, _ in tracer.spans)
    assert tracer.layer_values()["charsolve.character_m1.busy_s"] == 0


# ---------------------------------------------------------------- checks

def _poly(text):
    return charkit.MultiPoly.from_text(text)


CHI_0000002 = "1*z7^2 -1*z6 -1*z1 -1"


def _failures(assembled, ops, outputs):
    op, _ = assembled
    return checks.failures(charkit, op, ops, outputs)


def test_checks_accept_correct_outputs(assembled):
    _, table = assembled
    w = (0, 0, 0, 0, 0, 0, 2)
    e = (0, 0, 0, 0, 0, 0, 3)
    fx = charkit.fixtures
    ops = [["character", w], ["character_m2", w],
           ["monomial_decompose", e],
           ["cg_decompose", (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1)],
           ["freudenthal", w], ["torus_check", w]]
    outputs = [_poly(CHI_0000002), _poly(CHI_0000002),
               charkit.CGSeries(fx.load_mcg_file(
                   fx.data_path("cubic_series.txt"))[e]),
               charkit.cg_decompose(ops[3][1], ops[3][2], table),
               charkit.freudenthal(w), 1e-12]
    assert _failures(assembled, ops, outputs) == {}


@pytest.mark.parametrize("text", [
    "2*z7^2 -1*z6 -1*z1 -1",       # leading coefficient
    "1*z7^2 -1*z6 -1*z1 -2",       # dimension evaluation
    "1*z7^2 -1*z6 -2*z1 132",      # same dimension, eigen-identity fails
])
def test_character_check(assembled, text):
    got = _failures(assembled, [["character", (0, 0, 0, 0, 0, 0, 2)]],
                    [_poly(text)])
    assert set(got) == {0}


def test_third_order_check_uses_the_shipped_corpus(assembled, monkeypatch):
    _, table = assembled
    w = (0, 0, 0, 3, 0, 0, 0)
    chi = table.character(w)
    assert _failures(assembled, [["character", w]], [chi]) == {}
    # A correct character that the shipped corpus disagrees with must fail.
    real = charkit.fixtures.load_chi_file

    def tampered(path, *a, **k):
        out = real(path, *a, **k)
        if w in out:
            out[w] = charkit.MultiPoly({**out[w].terms, (0,) * 7: 7})
        return out

    monkeypatch.setattr(charkit.fixtures, "load_chi_file", tampered)
    assert _failures(assembled, [["character", w]], [chi])


def test_method_disagreement_fails(assembled):
    w = (0, 0, 0, 0, 0, 0, 2)
    ops = [["character", w], ["character_m2", w]]
    got = _failures(assembled, ops, [_poly(CHI_0000002), _poly("1*z7^2")])
    assert set(got) == {1}


def test_series_checks(assembled):
    e = (0, 0, 0, 0, 0, 0, 3)
    fx = charkit.fixtures
    shipped = dict(fx.load_mcg_file(fx.data_path("cubic_series.txt"))[e])
    wrong = dict(shipped)
    wrong[(0, 0, 0, 0, 0, 0, 1)] += 1
    m = n = (0, 0, 0, 0, 0, 0, 1)
    ops = [["monomial_decompose", e], ["cg_decompose", m, n]]
    outputs = [charkit.CGSeries(wrong),
               charkit.CGSeries({(0, 0, 0, 0, 0, 0, 2): 1})]
    assert set(_failures(assembled, ops, outputs)) == {0, 1}


def test_oracle_checks(assembled):
    w = (1, 0, 0, 0, 0, 0, 0)
    system = charkit.freudenthal(w)
    bad = charkit.WeightSystem(
        highest=w, dominant_mults={**system.dominant_mults, (0,) * 7: 1},
        orbit_sizes=system.orbit_sizes)
    ops = [["freudenthal", w], ["torus_check", w]]
    assert set(_failures(assembled, ops, [bad, 1e-3])) == {0, 1}


# ---------------------------------------------------------------- runner

def test_runner_counts_every_failure():
    ref = {"digests": ["a", "b", "c"], "failures": {"1": "bad"},
           "errors": {}}
    later = {"digests": ["a", "x", None], "errors": {"2": "Boom"}}
    attempted, failed, messages = run.failures(ref, [ref, later])
    assert (attempted, failed) == (6, 3)
    assert set(messages) == {1, 2}


def test_benchmark_json_lists_the_emitted_metrics():
    import json
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
