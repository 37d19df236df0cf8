from dataclasses import dataclass

import pytest

from charkit import fixtures
from charkit.charsolve import CharacterTable
from charkit.csmodel import Delta1Operator, StructuralViolationError
from charkit.lie_core import (
    FUNDAMENTAL_DIMS, ZERO_WEIGHT, dominant_weights_below, eigenvalue,
    weyl_dim, NonDominantError,
)
from charkit.polyring import MultiPoly


def fresh_table(operator, tmp=None):
    return CharacterTable(operator, cache_dir=tmp)


@dataclass
class CharacterReport:
    weight: tuple
    eigen_ok: bool
    dim_ok: bool
    leading_ok: bool
    dim_value: int
    expected_dim: int

    @property
    def passed(self):
        return self.eigen_ok and self.dim_ok and self.leading_ok


def verify_character(table, m, chi):
    """Check the three character invariants for a candidate polynomial:
    the eigenvalue identity, the dimension evaluation and the unit
    coefficient on z^m."""
    m = tuple(m)
    image = table.operator.apply(chi)
    dim_value = chi.eval_integer(FUNDAMENTAL_DIMS)
    expected = weyl_dim(m)
    return CharacterReport(
        weight=m,
        eigen_ok=image == eigenvalue(m) * chi,
        dim_ok=(dim_value == expected),
        leading_ok=(chi.coefficient_of(m) == 1),
        dim_value=dim_value,
        expected_dim=expected,
    )


def operator_with_escape(operator):
    """The operator with a z4 term added to a_77: the image of z7^2 then
    reaches z4, far above the support of 2 lambda_7."""
    a = operator.a
    a[(7, 7)] = a[(7, 7)] + MultiPoly.variable(4)
    return Delta1Operator(a)


def test_m1_second_order_example(operator):
    t = fresh_table(operator)
    want = MultiPoly.from_text("1*z1^2 -1*z6 -1*z3 -1*z1 -1")
    assert t.character_m1((2, 0, 0, 0, 0, 0, 0)) == want


def test_m1_fundamental_is_variable(operator):
    t = fresh_table(operator)
    assert t.character_m1((0, 0, 0, 0, 0, 0, 1)) == MultiPoly.variable(7)


def test_m1_third_order_example(operator):
    t = fresh_table(operator)
    z = [None] + [MultiPoly.variable(i) for i in range(1, 8)]
    want = (z[7] * z[7] * z[7] - 2 * z[6] * z[7] + z[5] - z[1] * z[7]
            + z[2] - z[7])
    assert t.character_m1((0, 0, 0, 0, 0, 0, 3)) == want


def test_m2_examples(operator):
    t = fresh_table(operator)
    assert t.character_m2((0, 0, 0, 0, 0, 0, 2)) == \
        MultiPoly.from_text("1*z7^2 -1*z6 -1*z1 -1")
    assert t.character_m2((1, 0, 0, 0, 0, 0, 0)) == MultiPoly.variable(1)
    assert t.character_m2((1, 0, 0, 0, 0, 0, 1)) == \
        MultiPoly.from_text("1*z1*z7 -1*z7 -1*z2")


def test_zero_weight_is_constant_one(operator):
    t = fresh_table(operator)
    assert t.character_m1(ZERO_WEIGHT) == MultiPoly.one()
    assert t.character_m2(ZERO_WEIGHT) == MultiPoly.one()


def test_methods_agree(operator):
    t = fresh_table(operator)
    for m in [(0, 1, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0, 1),
              (2, 1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0)]:
        assert t.character_m1(m) == t.character_m2(m)


@pytest.mark.parametrize("m", [(0, 0, 0, 0, 0, 4, 0), (0, 0, 0, 0, 0, 0, 6)])
def test_m2_applies_one_factor_per_distinct_eigenvalue(operator, monkeypatch,
                                                       m):
    # Both supports repeat eigenvalues: 95 weights carry 58 distinct ones
    # below (0,0,0,0,0,4,0), 42 weights carry 32 below (0,0,0,0,0,0,6).
    below = dominant_weights_below(m)[1:]
    distinct = {eigenvalue(mu) for mu in below}
    assert len(distinct) < len(below)
    calls = []
    apply_terms = operator.apply_terms

    def counted(terms):
        calls.append(len(terms))
        return apply_terms(terms)

    monkeypatch.setattr(operator, "apply_terms", counted)
    t = fresh_table(operator)
    chi = t.character_m2(m)
    assert len(calls) == len(distinct)
    monkeypatch.undo()
    assert chi == t.character_m1(m)


def test_m1_refuses_an_image_that_escapes_the_support(operator):
    t = fresh_table(operator_with_escape(operator))
    with pytest.raises(StructuralViolationError,
                       match=r"image monomial \(0, 0, 0, 1, 0, 0, 0\) of "
                             r"\(0, 0, 0, 0, 0, 0, 2\)"):
        t.character_m1((0, 0, 0, 0, 0, 0, 2))


def test_m1_where_the_downset_exceeds_the_top(operator):
    # Weights below (0,0,0,0,2,2,2) reach a coordinate 8, four times the
    # top's largest.
    m = (0, 0, 0, 0, 2, 2, 2)
    assert max(max(mu) for mu in dominant_weights_below(m)) == 8
    t = fresh_table(operator)
    chi = t.character_m1(m)
    assert operator.apply(chi) == eigenvalue(m) * chi
    assert chi == t.character_m2(m)


def test_rejects_non_dominant(operator):
    t = fresh_table(operator)
    with pytest.raises(NonDominantError):
        t.character((0, 0, -1, 0, 0, 0, 0))


def test_support_containment(operator):
    t = fresh_table(operator)
    for m in [(1, 0, 0, 0, 0, 1, 1), (0, 2, 0, 0, 0, 0, 1)]:
        chi = t.character(m)
        allowed = set(dominant_weights_below(m))
        assert set(chi.terms) <= allowed
        assert chi.coefficient_of(m) == 1


def test_verify_character_passes_on_good(operator, table):
    chi = table.character((0, 0, 0, 0, 0, 0, 2))
    rep = verify_character(table, (0, 0, 0, 0, 0, 0, 2), chi)
    assert rep.passed and rep.dim_value == 1463


def test_verify_character_fails_on_bad_candidate(table):
    z7sq = MultiPoly.monomial((0, 0, 0, 0, 0, 0, 2))
    rep = verify_character(table, (0, 0, 0, 0, 0, 0, 2), z7sq)
    assert not rep.eigen_ok
    assert not rep.passed


def test_verify_character_l1_plus_l7(operator, table):
    m = (1, 0, 0, 0, 0, 0, 1)
    rep = verify_character(table, m, table.character(m))
    assert rep.passed
    assert rep.dim_value == 133 * 56 - 912 - 56 == weyl_dim(m)


def test_all_cached_characters_are_integral_eigenfunctions(operator):
    t = fresh_table(operator)
    for m in [(0, 0, 0, 0, 2, 0, 0), (1, 0, 1, 0, 0, 0, 0)]:
        chi = t.character(m)
        assert all(isinstance(c, int) for c in chi.terms.values())
        assert operator.apply(chi) == eigenvalue(m) * chi
        assert chi.eval_integer(FUNDAMENTAL_DIMS) == weyl_dim(m)


def test_disk_cache_roundtrip(operator, tmp_path):
    t1 = CharacterTable(operator, cache_dir=str(tmp_path))
    m = (0, 1, 0, 0, 0, 0, 1)
    chi = t1.character(m)
    assert t1.provenance(m) == "method-1"
    t2 = CharacterTable(operator, cache_dir=str(tmp_path))
    assert t2.character(m) == chi
    assert t2.provenance(m) == "disk"


def test_disk_hit_leaves_the_cache_file_alone(operator, tmp_path):
    import os
    m = (0, 0, 0, 0, 1, 0, 1)
    chi = CharacterTable(operator, cache_dir=str(tmp_path)).character(m)
    (path,) = tmp_path.iterdir()
    os.utime(path, ns=(0, 0))
    t = CharacterTable(operator, cache_dir=str(tmp_path))
    assert t.character(m) == chi
    assert t.provenance(m) == "disk"
    assert path.stat().st_mtime_ns == 0


@pytest.mark.parametrize("corrupt", [
    lambda good: "not a character file\n",
    lambda good: good.rstrip("\n") + " 1*z7\n",     # dimension off by 56
    lambda good: good.rstrip("\n") + " 3/2*z1\n",   # not an integer
], ids=["garbage", "wrong-dimension", "fraction"])
def test_corrupt_cache_file_is_recomputed(operator, tmp_path, corrupt):
    m = (0, 0, 0, 0, 1, 0, 1)
    chi = fresh_table(operator).character(m)
    path = tmp_path / "chi_0-0-0-0-1-0-1.txt"
    path.write_text(corrupt(f"chi 0000101 = {chi.to_text()}\n"))
    t = CharacterTable(operator, cache_dir=str(tmp_path))
    assert t.character(m) == chi
    assert t.provenance(m) == "method-1"
    assert list(tmp_path.iterdir()) == [path]
    assert fixtures.load_chi_file(path) == {m: chi}


def test_failed_cache_write_leaves_no_file(operator, tmp_path, monkeypatch):
    def broken(self):
        raise RuntimeError("write interrupted")

    t = CharacterTable(operator, cache_dir=str(tmp_path))
    monkeypatch.setattr(MultiPoly, "to_text", broken)
    with pytest.raises(RuntimeError, match="write interrupted"):
        t.character((0, 0, 0, 0, 1, 0, 1))
    assert list(tmp_path.iterdir()) == []


def test_concurrent_cache_writes_leave_one_whole_file(operator, tmp_path):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    m = (0, 0, 0, 0, 1, 0, 1)
    chi = fresh_table(operator).character(m)
    t = CharacterTable(operator, cache_dir=str(tmp_path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(t._store_disk, m, chi) for _ in range(64)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    path = tmp_path / "chi_0-0-0-0-1-0-1.txt"
    assert list(tmp_path.iterdir()) == [path]
    assert fixtures.load_chi_file(path) == {m: chi}


def test_multi_digit_weights_in_cache(operator, tmp_path):
    t = CharacterTable(operator, cache_dir=str(tmp_path))
    m = (0, 0, 0, 0, 0, 0, 11)
    chi = t.character(m)
    t2 = CharacterTable(operator, cache_dir=str(tmp_path))
    assert t2.character(m) == chi


def test_provenance_tracking(operator):
    t = fresh_table(operator)
    t.character((0, 0, 0, 0, 0, 0, 2))
    assert t.provenance((0, 0, 0, 0, 0, 0, 2)) == "method-1"
    t.seed(ZERO_WEIGHT, MultiPoly.one())
    assert t.provenance(ZERO_WEIGHT) == "fixture"


def test_concurrent_character_computation(operator):
    from concurrent.futures import ThreadPoolExecutor

    t = fresh_table(operator)
    weights = [(0, 0, 0, 0, 0, 0, k) for k in range(1, 5)]
    weights += [(1, 0, 0, 0, 0, 0, k) for k in range(0, 4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(t.character, weights))
    reference = fresh_table(operator)
    for m, chi in zip(weights, results):
        assert chi == reference.character(m)
