import ast
import dataclasses
import itertools
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from charkit import cli, oracle
from charkit.lie_core import (
    CARTAN_A, FUNDAMENTAL_WEIGHTS, POSITIVE_ROOTS, RANK, ZERO_WEIGHT,
    InvariantError, NonDominantError, weyl_dim,
)
from charkit.oracle import (
    CEILING, OracleRefusal, dominant_representative, freudenthal,
    minuscule_series, torus_check, weyl_orbit,
)
from charkit.polyring import MultiPoly

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
    rows, owner, sums = weyl_orbit([w], ())
    assert owner.tolist() == [0] * len(rows)
    assert sums.shape == (1, 0)
    return [tuple(row) for row in rows.tolist()]


def orbit_sum(orbit, y):
    """sum(y^v) mod P over a collection of weights at the point y, from a
    dict of y_i^e per coordinate i."""
    top = max(abs(x) for v in orbit for x in v)
    tables = [{e: pow(yi, e, oracle.P) for e in range(-top, top + 1)}
              for yi in y]
    total = 0
    for v in orbit:
        term = 1
        for table, vi in zip(tables, v):
            term = term * table[vi] % oracle.P
        total += term
    return total % oracle.P


def reference_orbit_sum(mu, y):
    """sum(y^v) mod P over the closure orbit of mu."""
    return orbit_sum(closure_weyl_orbit(mu), y)


def inverse(y):
    """The point 1/y."""
    return tuple(pow(yi, -1, oracle.P) for yi in y)


# A point of (F_P^*)^7, drawn as the point sets draw theirs.
POINT = tuple(random.Random(3).randrange(1, oracle.P) for _ in range(RANK))


@pytest.mark.parametrize("w", SMALL_WEIGHTS, ids=lambda w: "".join(map(str, w)))
def test_weyl_orbit_lists_the_closure_once(w):
    orbit = orbit_of(w)
    reference = closure_weyl_orbit(w)
    assert len(orbit) == len(set(orbit)) == len(reference)
    assert set(orbit) == reference
    assert orbit[0] == w
    pattern = tuple(int(x > 0) for x in w)
    assert oracle._orbit_size(pattern) == len(reference)
    # The sums carried down the walk are the closure's at a point and at
    # its inverse: -1 is in W, so an orbit has one sum at y and at 1/y.
    rows, _, sums = weyl_orbit([w], [POINT, inverse(POINT)])
    assert [tuple(row) for row in rows.tolist()] == orbit
    want = orbit_sum(reference, POINT)
    assert sums.tolist() == [[want, want]]


def test_the_sums_carried_over_lambda_4_are_the_closure_sums():
    # The largest fundamental orbit, at three points and their inverses,
    # each summed over the closure on its own.
    points = [tuple(random.Random(seed).randrange(1, oracle.P)
                    for _ in range(RANK)) for seed in (4, 5, 6)]
    points += [inverse(y) for y in points]
    reference = closure_weyl_orbit(L[3])
    assert len(reference) == 10080
    _, _, sums = weyl_orbit([L[3]], points)
    assert sums.tolist() == [[orbit_sum(reference, y) for y in points]]


def test_a_joint_walk_carries_each_weight_its_own_sums():
    # All 36 small weights and a non-dominant one in one walk: each owner's
    # rows and sums are those of its weight walked alone.
    weights = [*SMALL_WEIGHTS, (1, -2, 0, 1, 0, -1, 0)]
    points = [POINT, inverse(POINT), (1,) * RANK]
    rows, owner, sums = weyl_orbit(weights, points)
    rows, owner = rows.tolist(), owner.tolist()
    for k, w in enumerate(weights):
        alone, _, alone_sums = weyl_orbit([w], points)
        assert [r for r, o in zip(rows, owner) if o == k] == alone.tolist()
        assert sums[k].tolist() == alone_sums[0].tolist()
    # At y = 1 every term is 1: the sum is the orbit size.
    assert sums[:, 2].tolist() == [oracle._orbit_size(
        tuple(int(x > 0) for x in dominant_representative(w)))
        for w in weights]


def test_fundamental_orbit_sizes():
    # All seven walked together, each row owned by its fundamental.
    rows, owner, _ = weyl_orbit(L, ())
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
    rows, owner, _ = weyl_orbit([w, dominant_representative(w)], ())
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
        assert oracle._orbit_size(p) == len(weyl_orbit([p], ())[0]), p
    assert oracle._orbit_size((1,) * RANK) == 2903040  # |W(E7)|
    assert oracle._orbit_size((0,) * RANK) == 1
    # The closed form walks nothing.
    oracle._orbit_size.cache_clear()

    def walked(dominant, points):
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
    weights, owner, _ = weyl_orbit(dominant, ())
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
    weights, owner, _ = weyl_orbit(dominant, ())
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


def reflection_loop(w):
    """Reference: the dominant weight in the orbit of w, reflecting at the
    last negative coordinate until none is left."""
    w = tuple(w)
    while min(w) < 0:
        i = max(j for j in range(RANK) if w[j] < 0)
        w = tuple(x - w[i] * a for x, a in zip(w, CARTAN_A[i]))
    return w


def test_memoized_dominant_representative_is_the_reflection_loop():
    rng = random.Random(2)
    sample = [tuple(rng.randint(-8, 8) for _ in range(RANK))
              for _ in range(2000)]
    assert [dominant_representative(w) for w in sample] == \
        [reflection_loop(w) for w in sample]
    # Asked again, and as a list, it answers the same.
    assert [dominant_representative(list(w)) for w in sample[:100]] == \
        [reflection_loop(w) for w in sample[:100]]
    rows, _, _ = weyl_orbit([L[3]], ())
    assert len(rows) == 10080
    orbit = map(tuple, rows.tolist())
    assert {dominant_representative(row) for row in orbit} == {L[3]}
    assert oracle._dominant_representative.cache_info().maxsize == 1 << 16


def test_freudenthal_minuscule_l7():
    ws = freudenthal(L[6])
    assert ws.dominant_mults == {L[6]: 1}
    assert ws.orbit_sizes[L[6]] == 56
    assert ws.total() == 56


def test_minuscule_weights_are_the_orbit_of_lambda_7():
    rows, _, _ = weyl_orbit([L[6]], ())
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

    def counted(dominant, points):
        walked.update(map(tuple, dominant))
        return real(dominant, points)

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


@pytest.fixture
def fresh_oracle():
    """Empty the oracle's memos before and after a test that perturbs what
    they are computed from."""
    memos = (oracle._orbit_size, oracle._freudenthal,
             oracle._minuscule_weights, oracle._point_set)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_a_non_integral_orbit_size_is_refused(monkeypatch, fresh_oracle):
    # A fake root of height 3 on lambda_7's coordinate: 56 * 4/3.
    monkeypatch.setattr(oracle, "POSITIVE_ROOTS",
                        (*POSITIVE_ROOTS, (0, 0, 0, 0, 1, 1, 1)))
    with pytest.raises(InvariantError, match=r"^orbit size \d+/\d+ of zero "
                       r"pattern \(0, 0, 0, 0, 0, 0, 1\) is not an integer$"):
        oracle._orbit_size((0, 0, 0, 0, 0, 0, 1))


def test_a_total_off_the_dimension_is_refused(monkeypatch, fresh_oracle):
    monkeypatch.setattr(oracle, "_orbit_size", lambda pattern: 1)
    with pytest.raises(InvariantError, match=r"^the weights of representation "
                       r"\(1, 0, 0, 0, 0, 0, 0\) number 8, not its "
                       r"dimension 133$"):
        freudenthal(L[0])


def test_a_wrong_minuscule_count_is_refused(monkeypatch, fresh_oracle):
    monkeypatch.setattr(oracle, "weyl_dim", lambda m: 57)
    with pytest.raises(InvariantError, match=r"^56 weights of V\(lambda_7\) "
                       r"found, not its dimension 57$"):
        minuscule_series(L[0])


def test_the_listed_fundamental_rows_fail_on_a_wrong_walk(monkeypatch,
                                                          capsys):
    # The walk's sums one too large: the point set's fundamental values
    # are wrong, so lambda_1's and lambda_7's rows, checked against their
    # listed weights, fail at every point, as do the three rows of weights
    # that are not fundamental.  The other five fundamental rows still
    # compare the walk's value with itself and pass: they have no second
    # route yet.
    real = oracle.weyl_orbit

    def off_by_one(weights, points):
        rows, owner, sums = real(weights, points)
        return rows, owner, (sums + 1) % oracle.P

    oracle._point_set.cache_clear()
    monkeypatch.setattr(oracle, "weyl_orbit", off_by_one)
    try:
        assert cli.main(["--no-cache", "verify", "oracle",
                         "--trials", "3"]) == 1
    finally:
        oracle._point_set.cache_clear()
    rows = {line.split()[1] + " " + line.split()[2]: line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("PASS", "FAIL"))}
    failed = {label for label, status in rows.items() if status == "FAIL"}
    assert failed == {"torus chi_1000000", "torus chi_0000001",
                      "torus chi_0000002", "torus chi_1000001",
                      "torus chi_0000003"}


def test_listed_weights_sum_to_the_walked_fundamentals():
    # On correct code the two routes agree at every point, and a wrong
    # chi fails at every one.
    for i in (0, 6):
        chi = MultiPoly.variable(i + 1)
        assert oracle.torus_check_listed(L[i], chi, trials=4, seed=17) == 0
        wrong = chi + MultiPoly.one()
        assert oracle.torus_check_listed(L[i], wrong, trials=4, seed=17) \
            == 4
    with pytest.raises(ValueError, match="no listed weight system"):
        oracle.torus_check_listed(L[3], MultiPoly.variable(4))
