import ast
import dataclasses
import itertools
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from charkit import cli, oracle
from charkit.lie_core import (
    CARTAN_A, FUNDAMENTAL_WEIGHTS, RANK, ZERO_WEIGHT, NonDominantError,
    weyl_dim,
)
from charkit.oracle import (
    CEILING, OracleRefusal, dominant_representative, freudenthal,
    minuscule_series, torus_check, weyl_orbit,
)

L = FUNDAMENTAL_WEIGHTS


def closure_weyl_orbit(w):
    """Reference: the Weyl orbit of w as a set, by closure under the seven
    simple reflections."""
    w = tuple(w)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(RANK):
                c = v[i]
                if c == 0:
                    continue
                row = CARTAN_A[i]
                r = tuple(v[j] - c * row[j] for j in range(RANK))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


# Every dominant weight with coordinate sum at most 2 (36 weights); their
# zero patterns are the 29 patterns with at most two nonzero coordinates.
SMALL_WEIGHTS = [w for w in itertools.product(range(3), repeat=RANK)
                 if sum(w) <= 2]


def orbit_of(w):
    """The orbit of one weight as ``weyl_orbit`` walks it: a list of
    tuples, every row owned by the one weight."""
    rows, owner = weyl_orbit([w])
    assert owner.tolist() == [0] * len(rows)
    return [tuple(row) for row in rows.tolist()]


@pytest.mark.parametrize("w", SMALL_WEIGHTS, ids=lambda w: "".join(map(str, w)))
def test_weyl_orbit_lists_the_closure_once(w):
    orbit = orbit_of(w)
    reference = closure_weyl_orbit(w)
    assert len(orbit) == len(set(orbit)) == len(reference)
    assert set(orbit) == reference
    assert orbit[0] == w
    pattern = tuple(int(x > 0) for x in w)
    assert oracle._orbit_size(pattern) == len(reference)


def test_fundamental_orbit_sizes():
    # All seven walked together, each row owned by its fundamental.
    rows, owner = weyl_orbit(L)
    assert np.bincount(owner).tolist() == [126, 576, 2016, 10080, 4032, 756,
                                           56]
    assert [tuple(row) for row in rows[:RANK].tolist()] == list(L)


def test_weyl_orbit_of_a_non_dominant_weight():
    w = (1, -2, 0, 1, 0, -1, 0)
    orbit = orbit_of(w)
    assert len(orbit) == len(set(orbit))
    assert set(orbit) == closure_weyl_orbit(w)
    assert orbit[0] == dominant_representative(w)
    # Beside its dominant representative, in one walk: the same orbit twice.
    rows, owner = weyl_orbit([w, dominant_representative(w)])
    rows = [tuple(row) for row in rows.tolist()]
    for i in (0, 1):
        assert sorted(r for r, o in zip(rows, owner.tolist()) if o == i) == \
            sorted(orbit)


def test_orbit_size_is_the_walked_orbit_size(monkeypatch):
    # Macdonald's product over the positive roots not supported on the
    # zero coordinates, against the walk for every zero pattern whose
    # orbit has at most 10**5 elements (50 of the 128).
    patterns = list(itertools.product((0, 1), repeat=RANK))
    small = [p for p in patterns if oracle._orbit_size(p) <= 10**5]
    assert len(small) == 50
    for p in small:
        assert oracle._orbit_size(p) == len(weyl_orbit([p])[0]), p
    assert oracle._orbit_size((1,) * RANK) == 2903040  # |W(E7)|
    assert oracle._orbit_size((0,) * RANK) == 1
    # The closed form walks nothing.
    oracle._orbit_size.cache_clear()

    def walked(dominant):
        raise AssertionError(f"orbit walk of {dominant}")

    monkeypatch.setattr(oracle, "weyl_orbit", walked)
    assert all(2903040 % oracle._orbit_size(p) == 0 for p in patterns)


# The expansion of a weight system is the orbit walk of its dominant
# weights, each orbit element carrying its owner's multiplicity.

@pytest.mark.parametrize("w", [L[2], (0, 0, 0, 0, 0, 0, 3)],
                         ids=lambda w: "".join(map(str, w)))
def test_expand_lists_every_orbit_with_its_multiplicity(w):
    system = freudenthal(w)
    dominant = list(system.dominant_mults)
    weights, owner = weyl_orbit(dominant)
    rows = list(zip(*weights.T.tolist()))
    owners = owner.tolist()
    for i, mu in enumerate(dominant):
        orbit = [row for row, o in zip(rows, owners) if o == i]
        assert set(orbit) == closure_weyl_orbit(mu)
    got = Counter()
    for row, o in zip(rows, owners):
        got[row] += system.dominant_mults[dominant[o]]
    want = Counter()
    for mu, mult in system.dominant_mults.items():
        for v in closure_weyl_orbit(mu):
            want[v] += mult
    assert got == want
    assert len(weights) == len(got)


@pytest.mark.parametrize("w", [*L, (0, 0, 0, 0, 0, 0, 3)],
                         ids=lambda w: "".join(map(str, w)))
def test_expand_rows_are_distinct_and_carry_the_dimension(w):
    # Each orbit has the closed-form size, and mult times orbit size over
    # the dominant weights is the dimension.
    system = freudenthal(w)
    dominant = list(system.dominant_mults)
    weights, owner = weyl_orbit(dominant)
    assert len(weights) == len(np.unique(weights, axis=0))
    sizes = np.bincount(owner, minlength=len(dominant)).tolist()
    assert sizes == [system.orbit_sizes[mu] for mu in dominant]
    assert sum(system.dominant_mults[mu] * n
               for mu, n in zip(dominant, sizes)) == weyl_dim(w)


@pytest.mark.parametrize("lam", L, ids=lambda w: "".join(map(str, w)))
def test_sine_half_of_a_fundamental_sum_is_exactly_zero(lam):
    # -1 is in the Weyl group of E7, so every orbit is closed under
    # negation and the odd (sine) half of its sum, sum(y^mu - y^-mu) / 2,
    # vanishes: each orbit sum, and so each weight system's sum, takes
    # one value at y and at 1/y.  Over F_P this also checks the tables'
    # negative powers.
    dominant = list(freudenthal(lam).dominant_mults)
    points, _, _ = oracle._point_set(20, 20240901)
    inverses = [tuple(pow(yi, -1, oracle.P) for yi in y) for y in points]
    sums = oracle._orbit_sums(dominant, points)
    assert sums == oracle._orbit_sums(dominant, inverses)
    assert len(sums) == len(dominant)
    assert all(len(at) == len(points) for at in sums)


def test_dominant_representative():
    assert dominant_representative((0, 0, 0, 0, 0, 0, 1)) == L[6]
    w = (-1, 0, 0, 0, 0, 0, 0)
    rep = dominant_representative(w)
    assert all(x >= 0 for x in rep)
    assert rep in orbit_of(w)


def test_freudenthal_minuscule_l7():
    ws = freudenthal(L[6])
    assert ws.dominant_mults == {L[6]: 1}
    assert ws.orbit_sizes[L[6]] == 56
    assert ws.total() == 56


def test_minuscule_weights_are_the_orbit_of_lambda_7():
    rows, _ = weyl_orbit([L[6]])
    assert set(oracle._minuscule_weights()) == set(map(tuple, rows.tolist()))
    assert len(oracle._minuscule_weights()) == 56


def test_minuscule_series_refuses_a_non_dominant_weight():
    with pytest.raises(NonDominantError, match="not dominant"):
        minuscule_series((0, 0, 0, 0, 0, 1, -1))
    with pytest.raises(NonDominantError):
        minuscule_series((0, 0, 0, 0, 0, 1))


def test_import_computes_no_orbit():
    # The minuscule weights and the torus point sets are made when first
    # asked for, never by importing the package.
    script = ("import charkit\n"
              "from charkit import oracle\n"
              "assert oracle._minuscule_weights.cache_info().currsize == 0\n"
              "assert oracle._point_set.cache_info().currsize == 0\n")
    src = pathlib.Path(__file__).parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_freudenthal_trivial():
    ws = freudenthal(ZERO_WEIGHT)
    assert ws.dominant_mults == {ZERO_WEIGHT: 1}
    assert ws.total() == 1


def test_freudenthal_adjoint():
    ws = freudenthal(L[0])
    assert ws.dominant_mults == {L[0]: 1, ZERO_WEIGHT: 7}
    assert ws.orbit_sizes[L[0]] == 126
    assert ws.total() == 126 + 7 == 133


@pytest.mark.parametrize("m", [L[1], L[5], (0, 0, 0, 0, 0, 0, 2),
                               (1, 0, 0, 0, 0, 0, 1)])
def test_freudenthal_totals_match_weyl_dim(m):
    assert freudenthal(m).total() == weyl_dim(m)


def test_oracle_refusal_on_ceiling():
    m = (0, 0, 0, 1, 0, 0, 1)
    assert weyl_dim(m) > CEILING
    with pytest.raises(OracleRefusal):
        freudenthal(m)


def test_multiplicity_lookup_off_cone():
    ws = freudenthal(L[0])
    # any nonzero weight of the adjoint is a root, multiplicity 1
    mults = ws.dominant_mults
    assert mults.get(dominant_representative((0, 0, 1, -1, 0, 0, 0)), 0) \
        in (0, 1)
    assert mults.get(dominant_representative(ZERO_WEIGHT), 0) == 7


def test_torus_identity_l7(table):
    assert torus_check(L[6], table.character(L[6]), trials=3) == 0


def test_torus_second_order(table):
    m = (0, 0, 0, 0, 0, 0, 2)
    assert torus_check(m, table.character(m), trials=3) == 0


def test_torus_l1_plus_l7(table):
    m = (1, 0, 0, 0, 0, 0, 1)
    assert torus_check(m, table.character(m), trials=3) == 0


def test_torus_detects_wrong_polynomial(table):
    from charkit.polyring import MultiPoly
    wrong = MultiPoly({(0, 0, 0, 0, 0, 0, 2): 1})
    assert torus_check((0, 0, 0, 0, 0, 0, 2), wrong, trials=3) == 3


ORACLE_TARGETS = [*L, (0, 0, 0, 0, 0, 0, 2), (1, 0, 0, 0, 0, 0, 1),
                  (0, 0, 0, 0, 0, 0, 3)]


@pytest.mark.parametrize("m", ORACLE_TARGETS,
                         ids=lambda w: "".join(map(str, w)))
def test_torus_catches_an_off_by_one_coefficient_at_every_point(table, m):
    # Each coefficient of each ``verify oracle`` target, in turn one too
    # large and one too small: every one of the 20 points disagrees.
    from charkit.polyring import MultiPoly
    chi = table.character(m)
    assert torus_check(m, chi) == 0
    for e in chi.terms:
        for step in (1, -1):
            wrong = chi + MultiPoly({e: step})
            assert torus_check(m, wrong) == 20, (e, step)


def reference_orbit_sum(mu, y):
    """sum(y^v) mod P over the closure orbit of mu, power by power."""
    total = 0
    for v in closure_weyl_orbit(mu):
        term = 1
        for yi, vi in zip(y, v):
            term = term * pow(yi, vi, oracle.P) % oracle.P
        total += term
    return total % oracle.P


@pytest.mark.parametrize("m", ORACLE_TARGETS,
                         ids=lambda w: "".join(map(str, w)))
def test_orbit_sums_match_the_closure_at_the_points(m):
    system = freudenthal(m)
    trials, seed = 2, 11
    points, memo, _ = oracle._point_set(trials, seed)
    direct = oracle._direct_values(system, points, memo)
    for mu in system.dominant_mults:
        assert memo[mu] == tuple(reference_orbit_sum(mu, y) for y in points)
    assert direct == [sum(n * memo[mu][k]
                          for mu, n in system.dominant_mults.items())
                      % oracle.P for k in range(trials)]


def test_torus_fundamental_values_are_computed_once(table, monkeypatch):
    seed = 7
    torus_check(L[6], table.character(L[6]), trials=3, seed=seed)
    calls = []
    real = oracle.freudenthal

    def recorded(m):
        calls.append(tuple(m))
        return real(m)

    monkeypatch.setattr(oracle, "freudenthal", recorded)
    m = (0, 0, 0, 0, 0, 0, 2)
    assert torus_check(m, table.character(m), trials=3, seed=seed) == 0
    assert calls == [m]
    # A new seed evaluates the fundamentals at its own points.
    from charkit.polyring import MultiPoly
    wrong = MultiPoly({m: 1})
    assert torus_check(m, wrong, trials=3, seed=seed + 1) == 3
    assert sorted(calls[1:]) == sorted([m, *L])


def test_oracle_module_is_independent():
    # the verification channel must not read the operator or the solvers
    src = pathlib.Path(__file__).parent.parent / "src/charkit/oracle.py"
    tree = ast.parse(src.read_text())
    banned = {"charkit.csmodel", "charkit.charsolve", "charkit.tensor",
              ".csmodel", ".charsolve", ".tensor"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = ("." * node.level) + (node.module or "")
            assert mod not in banned, f"oracle imports {mod}"
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name not in banned


def test_verify_oracle_computes_each_weight_system_once(monkeypatch):
    oracle._freudenthal.cache_clear()
    oracle._point_set.cache_clear()
    counts = Counter()
    real = oracle.dominant_weights_below

    def counted(m):
        counts[tuple(m)] += 1
        return real(m)

    monkeypatch.setattr(oracle, "dominant_weights_below", counted)
    assert cli.main(["--no-cache", "verify", "oracle", "--trials", "3"]) == 0
    assert counts == Counter(ORACLE_TARGETS)


def test_verify_oracle_walks_each_dominant_weight_once(monkeypatch):
    # Counted on the module binding ``oracle.weyl_orbit``, which
    # ``_orbit_sums`` calls: a wrapper bound there, such as the benchmark
    # tracer's, sees every walk.
    oracle._point_set.cache_clear()
    walked = Counter()
    real = oracle.weyl_orbit

    def counted(dominant):
        walked.update(map(tuple, dominant))
        return real(dominant)

    monkeypatch.setattr(oracle, "weyl_orbit", counted)
    assert cli.main(["--no-cache", "verify", "oracle", "--trials", "3"]) == 0
    assert set(walked) == {mu for m in ORACLE_TARGETS
                           for mu in freudenthal(m).dominant_mults}
    assert len(walked) == 15
    assert max(walked.values()) == 1
    # Another point set walks them again, once.
    assert cli.main(["--no-cache", "verify", "oracle", "--trials", "2"]) == 0
    assert set(walked.values()) == {2}


def test_point_sets_are_bounded(table):
    # A caller looping over seeds keeps at most POINT_SETS point sets,
    # each one entry with its orbit-sum memo and fundamental values.
    oracle._point_set.cache_clear()
    chi = table.character(L[6])
    for seed in range(2 * oracle.POINT_SETS):
        assert torus_check(L[6], chi, trials=1, seed=seed) == 0
    info = oracle._point_set.cache_info()
    assert info.maxsize == oracle.POINT_SETS
    assert info.currsize == oracle.POINT_SETS
    assert info.misses == 2 * oracle.POINT_SETS


def test_a_point_set_holds_its_fundamentals_and_their_orbit_sums():
    # The fundamental values are summed through the entry's own memo, so
    # they cannot outlive it: every fundamental's dominant weights are in it.
    points, memo, fundamentals = oracle._point_set(3, 5)
    assert len(points) == len(fundamentals) == 3
    assert {mu for lam in L for mu in freudenthal(lam).dominant_mults} \
        <= set(memo)
    columns = [oracle._direct_values(freudenthal(lam), points, dict(memo))
               for lam in L]
    assert fundamentals == tuple(zip(*columns))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_oracle_output_is_fixed_by_its_seed(capsys, fmt):
    argv = ["--no-cache", "--format", fmt, "verify", "oracle",
            "--trials", "7", "--seed", "3"]
    outputs = []
    for _ in range(2):
        oracle._point_set.cache_clear()
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("exact at 7/7 points mod 2^31-1") == 10


def test_freudenthal_results_are_shared_and_frozen():
    ws = freudenthal(L[6])
    assert freudenthal(list(L[6])) is ws
    with pytest.raises(dataclasses.FrozenInstanceError):
        ws.highest = L[0]
