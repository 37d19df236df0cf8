import os
import re
from dataclasses import dataclass

import pytest

from charkit import charsolve, csmodel, fixtures
from charkit.charsolve import CharacterTable, IntegralityError, ZeroGapError
from charkit.csmodel import Delta1Operator, StructuralViolationError
from charkit.lie_core import (
    FUNDAMENTAL_DIMS, ZERO_WEIGHT, dominant_weights_below, eigenvalue,
    weyl_dim, NonDominantError,
)
from charkit.polyring import MultiPoly
from charkit.tensor import monomial_decompose

from test_csmodel import apply, with_a_huge_coefficient


def fresh_table(operator, cache_dir=None):
    """A table with no characters; with ``cache_dir``, a disk cache is
    attached the way the CLI attaches one."""
    t = CharacterTable(operator)
    if cache_dir:
        t.cache_dir = str(cache_dir)
        os.makedirs(t.cache_dir, exist_ok=True)
    return t


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
    image = apply(table.operator, chi)
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
    apply_factor = charsolve._apply_factor

    def counted(rows, product, settled, scale, e, f):
        calls.append(e)
        return apply_factor(rows, product, settled, scale, e, f)

    monkeypatch.setattr(charsolve, "_apply_factor", counted)
    t = fresh_table(operator)
    chi = t.character_m2(m)
    assert len(calls) == len(distinct)
    monkeypatch.undo()
    assert chi == t.character_m1(m)


def literal_m2(operator, m):
    """Method 2 as the literal product: every factor (D - e) applied to
    every position, each row read once up front, and every coefficient
    divided by the product of the gaps at the end."""
    support = fresh_table(operator)._support(m)
    weights = support.weights
    rows = [list(zip(*support.row(i))) for i in range(len(weights))]
    eps_m = eigenvalue(m)
    poly = [1] + [0] * (len(weights) - 1)
    scale = 1
    for e in dict.fromkeys(eigenvalue(mu) for mu in weights[1:]):
        out = [-e * c for c in poly]
        for c, row in zip(poly, rows):
            if c:
                for j, s in row:
                    out[j] += c * s
        poly = out
        scale *= eps_m - e
    if poly[0] != scale:
        raise IntegralityError(
            f"character {m}: annihilator product scales the top "
            f"monomial by {poly[0]}, expected {scale}")
    out = {}
    for n, c in zip(weights, poly):
        if not c:
            continue
        q, rem = divmod(c, scale)
        if rem:
            raise IntegralityError(
                f"character {m}: coefficient of z^{n} is not an "
                f"integer after normalization")
        out[n] = q
    return MultiPoly(out)


def m2_outcome(solve, *args):
    """The text of the character ``solve`` returns, or its refusal."""
    try:
        return solve(*args).to_text()
    except IntegralityError as err:
        return f"refused: {err}"


@pytest.mark.parametrize("m", [
    # the Method-2 weights of the seed-1 verify benchmark pass
    (1, 0, 0, 0, 1, 2, 0), (0, 0, 0, 0, 0, 4, 0), (0, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 5), (2, 0, 1, 0, 0, 1, 1), (1, 0, 0, 0, 1, 1, 2),
    (0, 1, 0, 0, 0, 0, 7), (1, 3, 0, 0, 0, 0, 2), (1, 0, 1, 1, 0, 0, 2),
    (0, 0, 0, 0, 2, 2, 2), (0, 0, 0, 0, 0, 0, 6), ZERO_WEIGHT])
def test_m2_matches_the_literal_product(operator, m):
    got = fresh_table(operator).character_m2(m)
    assert got.to_text() == literal_m2(operator, m).to_text()


def off_diagonal_terms(a):
    """Every (pair, term) of ``a`` but the pairs' top terms z_j z_k, in
    order: the terms whose coefficients sit off the operator's diagonal."""
    terms = []
    for (j, k), poly in sorted(a.items()):
        top = MultiPoly.variable(j) * MultiPoly.variable(k)
        terms += [((j, k), e) for e in sorted(poly.terms)
                  if e not in top.terms]
    return terms


def test_m2_refuses_perturbed_operators_as_the_literal_product(operator):
    # Every 13th of the 401 off-diagonal terms, one at a time, off by one:
    # each top gets the literal product's polynomial or its refusal, with
    # the same message at the same weight.
    a = operator.a
    terms = off_diagonal_terms(a)
    assert len(terms) == 401
    tops = [(0, 0, 0, 0, 0, 0, 6), (0, 1, 0, 0, 0, 1, 0),
            (2, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 4, 0),
            (1, 0, 0, 0, 0, 0, 3)]
    refused = dict.fromkeys(tops, 0)
    for pair, term in terms[::13]:
        op = Delta1Operator({**a, pair: a[pair] + MultiPoly({term: 1})})
        for m in tops:
            got = m2_outcome(fresh_table(op).character_m2, m)
            assert got == m2_outcome(literal_m2, op, m), (pair, term, m)
            refused[m] += got.startswith("refused: ")
    assert all(refused.values())
    assert refused[(0, 0, 0, 0, 0, 0, 6)] < len(terms[::13])


def test_m2_refuses_a_wrong_top_diagonal_at_the_top(operator):
    # z7^2 in a_77 one more: the operator sends z7^3 to itself with its
    # eigenvalue plus 3 * 2.  Method 2 refuses it at the top, before any
    # factor, as it refuses a wrong lower diagonal at its weight; the
    # literal product refuses it too, by the scale of the top monomial.
    a = operator.a
    a[(7, 7)] = a[(7, 7)] + MultiPoly({(0, 0, 0, 0, 0, 0, 2): 1})
    op = Delta1Operator(a)
    m = (0, 0, 0, 0, 0, 0, 3)
    eps = eigenvalue(m)
    assert m2_outcome(fresh_table(op).character_m2, m) == (
        f"refused: character {m}: the operator sends z^{m} to itself with "
        f"{eps + 6}, not with its eigenvalue {eps}")
    assert m2_outcome(literal_m2, op, m).startswith(
        f"refused: character {m}: annihilator product scales the top "
        f"monomial by ")


def test_m2_refuses_a_wrong_lower_diagonal_at_its_weight(operator):
    # z6*z7 in a_67 one more: the top z7^3 keeps its diagonal, and z6*z7
    # is sent to itself with its eigenvalue plus 2.  The literal product
    # refuses the same weight as not integral.
    a = operator.a
    a[(6, 7)] = a[(6, 7)] + MultiPoly({(0, 0, 0, 0, 0, 1, 1): 1})
    op = Delta1Operator(a)
    m, mu = (0, 0, 0, 0, 0, 0, 3), (0, 0, 0, 0, 0, 1, 1)
    eps = eigenvalue(mu)
    with pytest.raises(IntegralityError) as err:
        fresh_table(op).character_m2(m)
    assert str(err.value) == (
        f"character {m}: the operator sends z^{mu} to itself with "
        f"{eps + 2}, not with its eigenvalue {eps}")
    assert m2_outcome(literal_m2, op, m) == (
        f"refused: character {m}: coefficient of z^{mu} is not an integer "
        f"after normalization")


@pytest.mark.parametrize("method", ["character_m1", "character_m2"],
                         ids=["m1", "m2"])
@pytest.mark.parametrize("pair, term, m", [
    # z4 in a_77: the image of z7^2 would reach z4, far above the support.
    ((7, 7), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 2)),
    # z7^3 in a_67: z6*z7 would be sent up to z7^3, inside the support but
    # above it.
    ((6, 7), (0, 0, 0, 0, 0, 0, 3), (0, 0, 0, 0, 0, 0, 3)),
], ids=["escape", "upward"])
def test_solvers_refuse_an_image_term_that_breaks_the_triangle(
        operator, method, pair, term, m):
    # The coefficient that would break the triangle is refused when it is
    # registered, so no solve by either method runs on it.
    j, k = pair
    a = operator.a
    a[pair] = a[pair] + MultiPoly({term: 1})
    with pytest.raises(StructuralViolationError,
                       match=re.escape(f"term z^{term} of a_{j}{k} is not "
                                       f"below lambda_{j} + lambda_{k}")):
        getattr(fresh_table(Delta1Operator(a)), method)(m)


@pytest.mark.parametrize("pair, term, m", [
    # z4 in a_77: the image of z7^2 would reach z4, far above the support.
    ((7, 7), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 2)),
    # z7^3 in a_67: z6*z7 would be sent up to z7^3, inside the support of
    # z7^3 but above z6*z7.
    ((6, 7), (0, 0, 0, 0, 0, 0, 3), (0, 0, 0, 0, 0, 0, 3)),
    # z7^2 in a_11: the image of z1^2 would reach z7^2, which lies after
    # z1^2 in the downset of z7^4 but is not below z1^2.
    ((1, 1), (0, 0, 0, 0, 0, 0, 2), (2, 0, 0, 0, 0, 0, 0)),
], ids=["z4-in-a77", "z7^3-in-a67", "z7^2-in-a11"])
def test_register_pair_refuses_a_term_not_below_its_pair(operator, pair,
                                                         term, m):
    j, k = pair
    message = re.escape(f"term z^{term} of a_{j}{k} is not below "
                        f"lambda_{j} + lambda_{k}")
    a = operator.a
    corrupted = a[pair] + MultiPoly({term: 1})
    with pytest.raises(StructuralViolationError, match=message):
        Delta1Operator({**a, pair: corrupted})
    # A refused registration leaves the operator as it was: the same
    # coefficients, and solves that read the pair as before.
    op = Delta1Operator(a)
    want = fresh_table(operator).character_m1(m)
    assert fresh_table(op).character_m1(m) == want
    with pytest.raises(StructuralViolationError, match=message):
        op.register_pair(j, k, corrupted)
    assert op.a == a
    t = fresh_table(op)
    assert t.character_m1(m) == want
    assert t.character_m2(m) == want


def test_m1_where_the_downset_exceeds_the_top(operator):
    # Weights below (0,0,0,0,2,2,2) reach a coordinate 8, four times the
    # top's largest.
    m = (0, 0, 0, 0, 2, 2, 2)
    assert max(max(mu) for mu in dominant_weights_below(m)) == 8
    t = fresh_table(operator)
    chi = t.character_m1(m)
    assert apply(operator, chi) == eigenvalue(m) * chi
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
    z7sq = MultiPoly({(0, 0, 0, 0, 0, 0, 2): 1})
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
        assert apply(operator, chi) == eigenvalue(m) * chi
        assert chi.eval_integer(FUNDAMENTAL_DIMS) == weyl_dim(m)


def test_disk_cache_roundtrip(operator, tmp_path):
    t1 = fresh_table(operator, tmp_path)
    m = (0, 1, 0, 0, 0, 0, 1)
    chi = t1.character(m)
    assert t1.provenance(m) == "method-1"
    assert [p.name for p in tmp_path.iterdir()] == ["chi_0-1-0-0-0-0-1.txt"]
    t2 = fresh_table(operator, tmp_path)
    assert t2.character(m) == chi
    assert t2.provenance(m) == "disk"


def test_a_decomposition_neither_reads_nor_writes_its_constituents(
        operator, tmp_path):
    # (1,0,0,0,0,0,1) is a constituent of z3 z7: solved on the top's
    # support, it stays in memory, so the planted file is neither read as a
    # miss nor rewritten, and no other constituent is written.
    path = tmp_path / "chi_1-0-0-0-0-0-1.txt"
    path.write_bytes(b"garbage")
    t = fresh_table(operator, tmp_path)
    monomial_decompose((0, 0, 1, 0, 0, 0, 1), t)
    assert path.read_bytes() == b"garbage"
    assert t.provenance((1, 0, 0, 0, 0, 0, 1)) == "method-1"
    assert list(tmp_path.iterdir()) == [path]


def test_disk_hit_leaves_the_cache_file_alone(operator, tmp_path):
    m = (0, 0, 0, 0, 1, 0, 1)
    chi = fresh_table(operator, tmp_path).character(m)
    (path,) = tmp_path.iterdir()
    os.utime(path, ns=(0, 0))
    t = fresh_table(operator, tmp_path)
    assert t.character(m) == chi
    assert t.provenance(m) == "disk"
    assert path.stat().st_mtime_ns == 0


@pytest.mark.parametrize("corrupt", [
    lambda good: "not a character file\n",
    lambda good: good.rstrip("\n") + " 1*z7\n",     # dimension off by 56
    lambda good: good.rstrip("\n") + " 3/2*z1\n",   # not an integer
    lambda good: b"\xff\xfe\x00garbage",             # not UTF-8
    lambda good: good + good,                       # the key twice
    # The same value in spellings that to_text never writes:
    lambda good: good.replace("*z7 ", "*z7^1 ", 1),
    lambda good: good.replace("*z7 ", "*z7^001 ", 1),
    lambda good: good.rstrip("\n") + " 3*z1^0 -3\n",
    lambda good: good.rstrip("\n") + " 1*z1^256 -1*z1^256\n",
    lambda good: good.rstrip("\n") + " 1*z1^\u0663 -1*z1^3\n",
], ids=["garbage", "wrong-dimension", "fraction", "not-utf-8",
        "repeated-key", "exponent-1", "leading-zeros", "exponent-0",
        "exponent-256", "arabic-indic-exponent"])
def test_corrupt_cache_file_is_recomputed(operator, tmp_path, corrupt):
    m = (0, 0, 0, 0, 1, 0, 1)
    chi = fresh_table(operator).character(m)
    path = tmp_path / "chi_0-0-0-0-1-0-1.txt"
    bad = corrupt(fixtures.format_chi_line(m, chi) + "\n")
    path.write_bytes(bad if isinstance(bad, bytes) else bad.encode())
    t = fresh_table(operator, tmp_path)
    assert t.character(m) == chi
    assert t.provenance(m) == "method-1"
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == fixtures.format_chi_line(m, chi) + "\n"
    assert fixtures.load_chi_file(path) == {m: chi}


def test_failed_cache_write_leaves_no_file(operator, tmp_path, monkeypatch):
    def broken(self):
        raise RuntimeError("write interrupted")

    t = fresh_table(operator, tmp_path)
    monkeypatch.setattr(MultiPoly, "to_text", broken)
    with pytest.raises(RuntimeError, match="write interrupted"):
        t.character((0, 0, 0, 0, 1, 0, 1))
    assert list(tmp_path.iterdir()) == []


def test_concurrent_cache_writes_leave_one_whole_file(operator, tmp_path):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    m = (0, 0, 0, 0, 1, 0, 1)
    chi = fresh_table(operator).character(m)
    t = fresh_table(operator, tmp_path)
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
    t = fresh_table(operator, tmp_path)
    m = (0, 0, 0, 0, 0, 0, 11)
    chi = t.character(m)
    t2 = fresh_table(operator, tmp_path)
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


# Both Method-1 paths, called directly: position by position on the rows,
# and level by level on blocks of rows.

def solved_both_ways(m, support):
    """The coefficients of chi_m by each path, as lists of items, so that
    equal lists mean equal values in the same order."""
    p = support.position(m)
    by_positions = charsolve._solve_positions(m, support, p)
    by_levels = charsolve._solve_levels(m, support, p)
    assert all(type(c) is int for c in by_levels.values())
    return list(by_positions.items()), list(by_levels.items())


@pytest.mark.parametrize("m", [
    (0, 0, 0, 0, 0, 0, 6), (0, 1, 0, 0, 0, 1, 0), (2, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 2, 2, 2), (0, 0, 0, 3, 0, 0, 0)])
def test_level_solve_matches_the_position_solve(operator, m):
    by_positions, by_levels = solved_both_ways(
        m, fresh_table(operator)._support(m))
    assert by_levels == by_positions


def test_level_solve_from_inside_a_shared_support(operator):
    # As a decomposition solves its constituents: on the top weight's
    # support, from each constituent's own position.  Each level's rows
    # are scattered as one slice, so the members of a level that are not
    # below the constituent ride along with coefficient 0; a narrow limb
    # width spreads the others over several limbs.
    weights = dominant_weights_below((0, 0, 0, 0, 2, 2, 2))
    n = len(weights)
    for bits in (None, 3):
        support = operator.restrict(weights)
        if bits:
            support.levels().limb_bits = bits
        top = 0
        for p in list(range(1, n, 23)) + [n - 2, n - 1]:
            by_positions, by_levels = solved_both_ways(weights[p], support)
            assert by_levels == by_positions
            assert p == n - 1 or len(by_levels) < n - p
            top = max([top] + [abs(c) for _, c in by_levels])
        assert top.bit_length() == 5    # two limbs of 3 bits


def test_a_support_above_the_threshold_is_solved_by_levels(operator,
                                                          monkeypatch):
    m = (1, 0, 0, 0, 0, 0, 15)
    support = fresh_table(operator)._support(m)
    assert 0 <= len(support.weights) - charsolve.LEVEL_SOLVE_MIN_SUPPORT < 200
    want = list(charsolve._solve_positions(m, support, 0).items())

    def refused(*args):
        raise AssertionError("solved position by position")

    monkeypatch.setattr(charsolve, "_solve_positions", refused)
    chi = fresh_table(operator).character_m1(m, support)
    assert list(chi.terms.items()) == want


def test_constituents_on_one_restriction_match_fresh_ones(operator):
    # The position solve reads the restriction's eigenvalues, worked out
    # once and shared: constituents solved in turn on one restriction, as
    # a decomposition solves them, come out as each solved on a fresh one.
    weights = dominant_weights_below((0, 0, 0, 0, 2, 2, 2))
    shared = operator.restrict(weights)
    table = fresh_table(operator)
    constituents = weights[1::7]
    assert len(constituents) > 10
    for mu in constituents:
        p = shared.position(mu)
        assert p > 0
        got = table.character_m1(mu, shared)
        want = fresh_table(operator).character_m1(
            mu, operator.restrict(weights))
        assert list(got.terms.items()) == list(want.terms.items())
    assert shared.eigenvalues() is shared.eigenvalues()
    assert shared.eigenvalues() == [eigenvalue(mu) for mu in weights]


@pytest.mark.parametrize("bits", [1, 3])
def test_level_solve_on_several_limbs(operator, bits):
    # Any limb width of at least 1 is exact; a narrow one splits the
    # coefficients of 12 lambda_7 (up to 8 bits) over three limbs or more.
    m = (0, 0, 0, 0, 0, 0, 12)
    support = fresh_table(operator)._support(m)
    assert support.levels().limb_bits > 8
    support.levels().limb_bits = bits
    by_positions, by_levels = solved_both_ways(m, support)
    assert by_levels == by_positions
    assert max(c for _, c in by_levels).bit_length() > 2 * bits


def test_numerators_past_int64_are_python_ints():
    import numpy as np

    bits = 30
    want = [5, -(2 ** 70) + 3, 0, 2 ** 64, 7 << 30]
    limbs = charsolve._limbs(want, bits)
    assert len(limbs) == 3 and all(x.dtype == np.int64 for x in limbs)
    assert all(int(np.abs(x).max()) < 2 ** bits for x in limbs)
    acc = [np.zeros(len(want) + 2, dtype=np.int64) for _ in limbs]
    for x, limb in zip(acc, limbs):
        x[2:2 + len(want)] = limb
    i, num = charsolve._numerators(acc, 1, len(want) + 2, bits)
    assert i == [1, 2, 4, 5] and num == [x for x in want if x]
    assert all(type(x) is int for x in i + num)
    # limbs that cancel are left out, within int64 as past it
    acc = [np.array([3, 2 ** bits, 0]), np.array([0, -1, 2])]
    assert charsolve._numerators(acc, 0, 3, bits) == ([0, 2], [3, 2 << bits])


def test_level_solve_on_python_int_images(operator):
    # Images beyond int64 leave no limb width: the level solve hands the
    # support to the position solve, which refuses the operator.
    op = with_a_huge_coefficient(operator)
    support = op.restrict(dominant_weights_below((0, 0, 0, 0, 0, 0, 6)))
    assert support.levels().limb_bits < 1
    with pytest.raises(IntegralityError) as by_positions:
        charsolve._solve_positions(support.weights[0], support, 0)
    with pytest.raises(IntegralityError) as by_levels:
        charsolve._solve_levels(support.weights[0], support, 0)
    assert str(by_levels.value) == str(by_positions.value)


def test_a_standalone_level_solve_drops_its_blocks(operator):
    # 18 lambda_7 (3 102 weights, three blocks) holds one block of rows at
    # a time: its peak is about 7 MB, and 10 MB with every row at once.
    import tracemalloc

    import numpy  # noqa: F401 -- imported before the trace starts

    m = (0, 0, 0, 0, 0, 0, 18)
    fresh_table(operator).character_m1(m)
    tracemalloc.start()
    try:
        fresh_table(operator).character_m1(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2 ** 20


def test_a_standalone_level_solve_holds_one_block_at_a_time(operator,
                                                            monkeypatch):
    # 24 lambda_7 (13 081 weights, 13 blocks): when the solve builds a
    # block, nothing of the block before it is alive any more.
    import weakref

    build = csmodel.Levels.block
    built, held, alive = [], [], []

    def block(self, k, keep=True):
        alive.append(sum(ref() is not None for ref in held))
        rows = build(self, k, keep)
        built.append(k)
        held[:] = [weakref.ref(rows[1]), weakref.ref(rows[2])]
        return rows

    monkeypatch.setattr(csmodel.Levels, "block", block)
    fresh_table(operator).character_m1((0, 0, 0, 0, 0, 0, 24))
    assert built == list(range(13))
    assert alive == [0] * 13


def test_level_solve_refuses_a_corrupted_operator(operator):
    # One coefficient of a_77 off by one, a term the triangle admits: the
    # solve above the threshold refuses it as the position solve does.
    a = operator.a
    a[(7, 7)] = a[(7, 7)] + MultiPoly({(0, 0, 0, 0, 0, 1, 0): 1})
    corrupted = Delta1Operator(a)
    m = (0, 0, 0, 0, 0, 0, 18)
    support = corrupted.restrict(dominant_weights_below(m))
    assert len(support.weights) >= charsolve.LEVEL_SOLVE_MIN_SUPPORT
    with pytest.raises(IntegralityError) as by_positions:
        charsolve._solve_positions(m, support, 0)
    with pytest.raises(IntegralityError) as by_levels:
        fresh_table(corrupted).character_m1(m, support)
    assert str(by_levels.value) == str(by_positions.value)


def test_level_solve_refuses_a_vanishing_gap(operator, monkeypatch):
    # An eigenvalue of m below one of its weights' breaks the gap check of
    # both paths at the same weight.
    m = (0, 0, 0, 0, 2, 2, 2)
    support = fresh_table(operator)._support(m)
    monkeypatch.setattr(charsolve, "eigenvalue",
                        lambda mu: eigenvalue(mu) - 10 ** 4 * (mu == m))
    with pytest.raises(ZeroGapError) as by_positions:
        charsolve._solve_positions(m, support, 0)
    with pytest.raises(ZeroGapError) as by_levels:
        charsolve._solve_levels(m, support, 0)
    assert str(by_levels.value) == str(by_positions.value)
