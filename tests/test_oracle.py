import ast
import dataclasses
import itertools
import pathlib
from collections import Counter

import numpy as np
import pytest

from charkit import cli, oracle
from charkit.lie_core import (
    CARTAN_A, FUNDAMENTAL_WEIGHTS, RANK, ZERO_WEIGHT, weyl_dim,
)
from charkit.oracle import (
    CEILING, OracleRefusal, dominant_representative, freudenthal, torus_check,
    weyl_orbit,
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


@pytest.mark.parametrize("w", SMALL_WEIGHTS, ids=lambda w: "".join(map(str, w)))
def test_weyl_orbit_lists_the_closure_once(w):
    orbit = weyl_orbit(w)
    reference = closure_weyl_orbit(w)
    assert isinstance(orbit, list)
    assert len(orbit) == len(set(orbit)) == len(reference)
    assert set(orbit) == reference
    assert orbit[0] == w
    pattern = tuple(int(x > 0) for x in w)
    assert oracle._orbit_size(pattern) == len(reference)


def test_fundamental_orbit_sizes():
    assert [len(weyl_orbit(lam)) for lam in L] == \
        [126, 576, 2016, 10080, 4032, 756, 56]


def test_weyl_orbit_of_a_non_dominant_weight():
    w = (1, -2, 0, 1, 0, -1, 0)
    orbit = weyl_orbit(w)
    assert len(orbit) == len(set(orbit))
    assert set(orbit) == closure_weyl_orbit(w)
    assert orbit[0] == dominant_representative(w)


@pytest.mark.parametrize("w", [L[2], (0, 0, 0, 0, 0, 0, 3)],
                         ids=lambda w: "".join(map(str, w)))
def test_expand_lists_every_orbit_with_its_multiplicity(w):
    system = freudenthal(w)
    weights, mults = oracle._expand(system)
    got = Counter()
    for row, mult in zip(zip(*weights.T.tolist()), mults.tolist()):
        got[row] += mult
    want = Counter()
    for mu, mult in system.dominant_mults.items():
        for v in closure_weyl_orbit(mu):
            want[v] += mult
    assert got == want
    assert len(weights) == len(got)


@pytest.mark.parametrize("w", [*L, (0, 0, 0, 0, 0, 0, 3)],
                         ids=lambda w: "".join(map(str, w)))
def test_expand_rows_are_distinct_and_carry_the_dimension(w):
    # Orbit sizes come from _orbit_size, which is checked against the
    # closure above; the rows are distinct and carry the whole dimension.
    system = freudenthal(w)
    weights, mults = oracle._expand(system)
    assert len(weights) == len(np.unique(weights, axis=0))
    assert len(weights) == sum(system.orbit_sizes.values())
    assert int(mults.sum()) == weyl_dim(w)


@pytest.mark.parametrize("lam", L, ids=lambda w: "".join(map(str, w)))
def test_sine_half_of_a_fundamental_sum_is_exactly_zero(lam):
    # -1 is in the Weyl group of E7, so every weight system is closed under
    # negation and the odd (sine) half of its sum, sum(mult * (y^mu -
    # y^-mu)) / 2, vanishes: the sum takes one value at y and at 1/y.
    # Over F_P this also checks the tables' negative powers.
    expanded = oracle._expand(freudenthal(lam))
    points, _ = oracle._fundamental_values(20, 20240901)
    inverses = [tuple(pow(yi, -1, oracle.P) for yi in y) for y in points]
    assert oracle._character_values(expanded, points) == \
        oracle._character_values(expanded, inverses)


def test_dominant_representative():
    assert dominant_representative((0, 0, 0, 0, 0, 0, 1)) == L[6]
    w = (-1, 0, 0, 0, 0, 0, 0)
    rep = dominant_representative(w)
    assert all(x >= 0 for x in rep)
    assert rep in weyl_orbit(w)


def test_freudenthal_minuscule_l7():
    ws = freudenthal(L[6])
    assert ws.dominant_mults == {L[6]: 1}
    assert ws.orbit_sizes[L[6]] == 56
    assert ws.total() == 56


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
    oracle._fundamental_values.cache_clear()
    counts = Counter()
    real = oracle.dominant_weights_below

    def counted(m):
        counts[tuple(m)] += 1
        return real(m)

    monkeypatch.setattr(oracle, "dominant_weights_below", counted)
    assert cli.main(["--no-cache", "verify", "oracle", "--trials", "3"]) == 0
    assert counts == Counter(ORACLE_TARGETS)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_oracle_output_is_fixed_by_its_seed(capsys, fmt):
    argv = ["--no-cache", "--format", fmt, "verify", "oracle",
            "--trials", "7", "--seed", "3"]
    outputs = []
    for _ in range(2):
        oracle._fundamental_values.cache_clear()
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("exact at 7/7 points mod 2^31-1") == 10


def test_freudenthal_results_are_shared_and_frozen():
    ws = freudenthal(L[6])
    assert freudenthal(list(L[6])) is ws
    with pytest.raises(dataclasses.FrozenInstanceError):
        ws.highest = L[0]
