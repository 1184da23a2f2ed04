"""Koszul verdicts, the Poincare-Hilbert identity, factorization, transfer."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from koszulkit.filtration import all_linear_ideals_filtration, search_groebner_flag
from koszulkit.koszul import (
    FlagData,
    check_factorization,
    koszul_verdict,
    poincare_hilbert_check,
    verdict_transfer_check,
)
from koszulkit.quotient import (
    cyclic_module,
    free_module,
    make_module,
    residue_field_module,
)
from koszulkit.resolution import betti_table, linear_part_homology, resolve
from koszulkit.corpus import build_fixture, module_killed_by, random_module
from oracles import series_divide


def test_verdict_yes_ci2(ci2):
    k = residue_field_module(ci2)
    assert koszul_verdict(k, 5, 8).is_yes
    assert koszul_verdict(k, 5, 8, "linear-part-acyclic").is_yes


def test_verdict_no_nk3(nk3):
    k = residue_field_module(nk3)
    v = koszul_verdict(k, 5, 8)
    assert v.is_no and v.witness == (2, 3)
    v2 = koszul_verdict(k, 5, 8, "linear-part-acyclic")
    assert v2.is_no and v2.witness is not None


def test_verdict_cyclic_conca_quotient(ci2):
    x, y = ci2.poly_ring.gens()
    m = cyclic_module(ci2, [x])
    assert koszul_verdict(m, 5, 8).is_yes


def test_verdict_shifted_diagonal(ci2):
    # a module generated in degree 1 is judged against the 1-shifted diagonal
    from koszulkit.quotient import scaled_submodule

    free = free_module(ci2, (0,))
    x, y = ci2.poly_ring.gens()
    m_ideal = scaled_submodule(free, [x, y])
    assert m_ideal.generation_degrees() == (1,)
    assert koszul_verdict(m_ideal, 5, 8).is_yes


def test_verdict_multidegree_rejected(ci2):
    x, y = ci2.poly_ring.gens()
    m = make_module(ci2, (0, 1), [[x * y, x]])
    with pytest.raises(ValueError, match="single generation degree"):
        koszul_verdict(m, 4, 6)


def test_verdict_inconclusive_bounds(ci2):
    k = residue_field_module(ci2)
    assert koszul_verdict(k, 1, 8, "linear-part-acyclic").verdict == "inconclusive"
    assert koszul_verdict(k, 3, 0).verdict == "inconclusive"


def test_verdict_json_schema(ci2, nk3):
    v = koszul_verdict(residue_field_module(nk3), 5, 8)
    doc = v.to_json()
    assert set(doc) == {"verdict", "method", "bounds", "witness"}
    assert doc["bounds"] == {"imax": 5, "dmax": 8}
    v2 = koszul_verdict(residue_field_module(ci2), 5, 8)
    assert set(v2.to_json()) == {"verdict", "method", "bounds"}


def test_poincare_hilbert_ci2(ci2):
    k = residue_field_module(ci2)
    r = poincare_hilbert_check(k, 5, 8)
    assert r.holds
    assert list(r.lhs) == [1, 2, 3, 4, 5, 6]
    assert list(r.rhs) == [1, 2, 3, 4, 5, 6]


def test_poincare_hilbert_nk3_fails_at_2(nk3):
    k = residue_field_module(nk3)
    r = poincare_hilbert_check(k, 2, 8)
    assert not r.holds and r.fail_degree == 2
    # rhs frozen from the series-division oracle: 1/(1 - t + t^2)
    assert list(r.rhs) == series_divide([1], [1, -1, 1], 2) == [1, 1, 0]
    assert list(r.lhs) == [1, 1, 1]


def test_poincare_hilbert_free_module(ci2):
    fm = free_module(ci2, (0,))
    r = poincare_hilbert_check(fm, 5, 8)
    assert r.holds and list(r.lhs) == [1, 0, 0, 0, 0, 0]


def test_poincare_hilbert_window(ci2):
    # only e <= min(expand_to, d_max - g) is compared; checked_to reports it
    k = residue_field_module(ci2)
    r = poincare_hilbert_check(k, 5, 3)
    assert r.holds and r.checked_to == 3
    assert list(r.lhs) == list(r.rhs) == [1, 2, 3, 4]
    shifted = free_module(ci2, (2,))
    assert poincare_hilbert_check(shifted, 5, 4).checked_to == 2
    with pytest.raises(ValueError, match="no degree to compare"):
        poincare_hilbert_check(shifted, 5, 1)


def test_lofwall_k_case_on_koszul_fixtures(ci2, crv26, fitz3):
    # P_k(t) * H_R(-t) = 1 within the window for Koszul rings
    for ring, d in ((ci2, 5), (crv26, 5), (fitz3, 5)):
        k = residue_field_module(ring)
        res = resolve(k, d, 8)
        t = betti_table(res)
        betti = [t.total(i) for i in range(d + 1)]
        h = ring.hilbert_series(d)
        signed = [c if e % 2 == 0 else -c for e, c in enumerate(h.expansion[: d + 1])]
        for m in range(d + 1):
            conv = sum(betti[i] * signed[m - i] for i in range(m + 1))
            assert conv == (1 if m == 0 else 0)


def _ci2_flag_data(ci2):
    cert = all_linear_ideals_filtration(ci2)
    zero_i = next(i for i, m in enumerate(cert.members) if m.dim == 0)
    x_i = next(i for i, m in enumerate(cert.members) if m.rows == ((1, 0),))
    m_i = next(i for i, m in enumerate(cert.members) if m.dim == 2)
    return cert, (zero_i, x_i, m_i)


def test_factorization_ci2(ci2):
    cert, chain = _ci2_flag_data(ci2)
    k = residue_field_module(ci2)
    fd = FlagData(cert, chain, 1)
    r = check_factorization(k, fd, 5, 8)
    assert r.holds
    # both factors are the diagonal tables of periodic linear resolutions
    assert [r.factor_over_quotient.total(i) for i in range(6)] == [1] * 6
    assert [r.factor_of_quotient.total(i) for i in range(6)] == [1] * 6
    assert [r.lhs.total(i) for i in range(6)] == [1, 2, 3, 4, 5, 6]


def test_factorization_r_equals_maximal(ci2):
    cert, chain = _ci2_flag_data(ci2)
    k = residue_field_module(ci2)
    fd = FlagData(cert, chain, 2)  # I_r = m, M = k over the field
    r = check_factorization(k, fd, 4, 6)
    assert r.holds
    assert [r.factor_over_quotient.total(i) for i in range(5)] == [1, 0, 0, 0, 0]


def test_factorization_module_is_quotient_itself(ci2):
    cert, chain = _ci2_flag_data(ci2)
    x, y = ci2.poly_ring.gens()
    m = cyclic_module(ci2, [x])
    fd = FlagData(cert, chain, 1)
    r = check_factorization(m, fd, 4, 6)
    assert r.holds
    assert [r.factor_over_quotient.total(i) for i in range(5)] == [1, 0, 0, 0, 0]


def test_factorization_of_the_zero_module(ci2):
    cert, chain = _ci2_flag_data(ci2)
    zero = make_module(ci2, (0,), [[ci2.poly_ring.one()]])
    r = check_factorization(zero, FlagData(cert, chain, 1), 5, 8)
    assert r.holds and r.witness is None


def test_factorization_requires_annihilation(ci2):
    cert, chain = _ci2_flag_data(ci2)
    k = residue_field_module(ci2)
    x, y = ci2.poly_ring.gens()
    m = cyclic_module(ci2, [y])  # not annihilated by (x)
    fd = FlagData(cert, chain, 1)
    with pytest.raises(ValueError, match="not annihilated"):
        check_factorization(m, fd, 4, 6)


def test_transfer_consistency(ci2):
    cert, chain = _ci2_flag_data(ci2)
    k = residue_field_module(ci2)
    fd = FlagData(cert, chain, 1)
    r = verdict_transfer_check(k, fd, 5, 8)
    assert r.consistent
    x, y = ci2.poly_ring.gens()
    m = cyclic_module(ci2, [x])
    r2 = verdict_transfer_check(m, fd, 5, 8)
    assert r2.consistent
    assert r2.verdict_over_quotient.is_yes  # free over k[y]/(y^2)
    fm = free_module(ci2, (0,))
    r3 = verdict_transfer_check(fm, FlagData(cert, chain, 0), 4, 6)
    assert r3.consistent


def test_equivalence_of_methods_on_fixtures(ci2, nk3, crv26, mm1, fitz3):
    # betti-diagonal, linear-part and Poincare-Hilbert verdicts must agree
    for ring in (ci2, nk3, crv26, mm1, fitz3):
        mods = [residue_field_module(ring)]
        x0 = ring.poly_ring.gen(0)
        mods.append(cyclic_module(ring, [x0]))
        mods.append(random_module(ring, 2, 2, 5))
        for m in mods:
            v1 = koszul_verdict(m, 5, 8)
            v2 = koszul_verdict(m, 5, 8, "linear-part-acyclic")
            ph = poincare_hilbert_check(m, 5, 8)
            assert v1.verdict == v2.verdict
            assert ph.holds == v1.is_yes


def _lowered(module, a):
    """M with every generator degree lowered by a."""
    columns = [col.components for col in module.columns]
    return make_module(module.ring, tuple(s - a for s in module.shifts), columns)


def _moved(pair, a):
    return None if pair is None else (pair[0], pair[1] - a)


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(["ci2", "fitz3", "mm1"]),
    kind=st.sampled_from(["k", "random", "killed"]),
    a=st.integers(1, 3),
    r=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_bounded_answers_are_shift_invariant(name, kind, a, r, seed):
    # every bounded answer reads one degree window, from the lowest generator
    # degree to d_max, so lowering every shift by a (and d_max with it where
    # the window is tied to d_max alone) moves each answer by -a
    ring = build_fixture(name).ring
    flag = search_groebner_flag(ring).certificate
    fd = FlagData(flag.as_filtration(ring.nvars, ring.p), tuple(range(ring.nvars + 1)), min(r, ring.nvars))
    if kind == "k":
        m = residue_field_module(ring)
    elif kind == "random":
        m = random_module(ring, 2, 2, seed)
    else:
        m = module_killed_by(ring, fd.member(), 2, 2, seed)
    ma = _lowered(m, a)
    i_max, d_max = 3, 5

    res, res_a = resolve(m, i_max, d_max), resolve(ma, i_max, d_max - a)
    want = {(i, j - a): c for (i, j), c in betti_table(res).entries.items()}
    assert betti_table(res_a).entries == want
    for method in ("betti-diagonal", "linear-part-acyclic"):
        v, v_a = koszul_verdict(m, i_max, d_max, method), koszul_verdict(ma, i_max, d_max - a, method)
        assert (v_a.verdict, v_a.witness) == (v.verdict, _moved(v.witness, a))
    scan = {_moved(key, a): h for key, h in linear_part_homology(res)}
    assert dict(linear_part_homology(res_a)) == scan

    if kind != "random":
        # M, generated in degree 0, is compared at j <= d_max and M(-a) at
        # j <= d_max - a: the same degrees of M
        f, f_a = check_factorization(m, fd, i_max, d_max), check_factorization(ma, fd, i_max, d_max)
        assert (f_a.holds, f_a.witness) == (f.holds, _moved(f.witness, a))
