"""Certificates: Koszul filtrations, Groebner flags, Conca generators,
the Fitzgerald condition, reductions and their verifiers."""

import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from oracles import colon_piece_dim, poly_to_dict

from koszulkit.arith import polynomial_ring
from koszulkit.filtration import (
    BudgetExceededError,
    FiltrationCertificate,
    FiltrationWitness,
    FlagCertificate,
    LinearIdeal,
    all_linear_ideals_filtration,
    check_conca_generator,
    check_fitzgerald,
    check_reduction,
    conca_flag,
    count_subspaces,
    enumerate_subspaces,
    minimal_multiplicity_flag,
    search_groebner_flag,
    subsets_filtration,
    verify_flag_chain,
    verify_groebner_flag,
    verify_koszul_filtration,
    _ideal_gb,
    _linear_colon,
)
from koszulkit.groebner import colon_ideal
from koszulkit.koszul import koszul_verdict
from koszulkit.quotient import cyclic_module, make_ring


# ----------------------------------------------------------- linear ideals


def test_echelon_canonicalization_matches_gb_equality(ci2):
    # subspace equality in echelon form agrees with Groebner equality of the
    # generated ideals, over 100 seeded random subspace pairs
    rng = random.Random(42)
    p, n = ci2.p, ci2.nvars
    for _ in range(100):
        vecs_a = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        vecs_b = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        a = LinearIdeal.from_vectors(vecs_a, n, p)
        b = LinearIdeal.from_vectors(vecs_b, n, p)
        assert (a.rows == b.rows) == (_ideal_gb(ci2, a) == _ideal_gb(ci2, b))


def _ring4():
    s, (a, b, c, d) = polynomial_ring(32003, ("a", "b", "c", "d"))
    return make_ring(s, [a**2, b**2, c * d, a * c + b * d])


def _random_quadric_ring(rng: random.Random):
    p = rng.choice((2, 3, 5))
    n = rng.randint(2, 3)
    s, _ = polynomial_ring(p, [f"x{i}" for i in range(n)])
    quadrics = [
        s.from_dict({m: rng.randrange(p) for m in s.monomials_of_degree(2)})
        for _ in range(rng.randint(1, 3))
    ]
    return make_ring(s, quadrics)


def _groebner_linear_colon(ring, j_rows, g):
    """The Groebner path: colon_ideal, then the degree-1 part of its reduced
    basis, linear exactly when that part generates the same basis."""
    n, p = ring.nvars, ring.p
    gb = colon_ideal([ring.linear_form(r) for r in j_rows], [ring.linear_form(g)], ring)
    if any(h.degree() == 0 for h in gb.generators):
        return False, LinearIdeal.full(n)  # g in J: the colon is the unit ideal
    rows = []
    for h in gb.generators:
        if h.degree() == 1:
            row = [0] * n
            for m, c in h.terms:
                row[m.index(1)] = c
            rows.append(row)
    w = LinearIdeal.from_vectors(rows, n, p)
    return _ideal_gb(ring, w) == gb, w


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(("ci2", "nk3", "crv26", "mm1", "fitz3", "ring4", "random")),
    st.integers(0, 2**32 - 1),
)
def test_linear_colon_matches_groebner_colon(ci2, nk3, crv26, mm1, fitz3, name, seed):
    rng = random.Random(seed)
    rings = {"ci2": ci2, "nk3": nk3, "crv26": crv26, "mm1": mm1, "fitz3": fitz3}
    if name == "ring4":
        ring = _ring4()
    elif name == "random":
        ring = _random_quadric_ring(rng)
    else:
        ring = rings[name]
    n, p = ring.nvars, ring.p
    # J from redundant, scaled spanning rows; g sometimes a combination of them
    basis = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
    j_rows = [[rng.randrange(1, p) * c % p for c in r] for r in basis]
    j_rows += [
        [sum(rng.randrange(p) * r[i] for r in basis) % p for i in range(n)]
        for _ in range(rng.randint(0, 2))
    ]
    rng.shuffle(j_rows)
    if basis and rng.random() < 0.25:
        g = [sum(rng.randrange(p) * r[i] for r in basis) % p for i in range(n)]
    else:
        g = [rng.randrange(p) for _ in range(n)]
    j = LinearIdeal.from_vectors(j_rows, n, p)

    linear_ok, w = _linear_colon(ring, j, g)
    assert (linear_ok, w) == _groebner_linear_colon(ring, j_rows, g)
    jd = [poly_to_dict(ring.linear_form(r)) for r in j_rows]
    jd += [poly_to_dict(h) for h in ring.gb.generators]
    gd = poly_to_dict(ring.linear_form(g))
    assert w.dim == colon_piece_dim(jd, [gd], n, 1, p)


@pytest.mark.parametrize(
    "name,j_rows,g,linear_ok,w_rows",
    [
        ("nk3", [], (1,), False, ()),  # (0) : x = (x^2)
        ("ci2", [(1, 0)], (2, 0), False, ((1, 0), (0, 1))),  # g in J: the unit ideal
        ("ci2", [], (1, 0), True, ((1, 0),)),  # ann(x) = (x)
        ("mm1", [], (0, 1), True, ((0, 1),)),  # ann(y) = (y)
    ],
)
def test_linear_colon_examples(request, name, j_rows, g, linear_ok, w_rows):
    ring = request.getfixturevalue(name)
    j = LinearIdeal.from_vectors(j_rows, ring.nvars, ring.p)
    got_ok, w = _linear_colon(ring, j, g)
    assert (got_ok, w.rows) == (linear_ok, w_rows)


def test_linear_colon_square_zero_ring():
    # R_2 = 0: every linear form kills R_1, so (0) : x = m
    s, (x, y) = polynomial_ring(3, ("x", "y"))
    ring = make_ring(s, [x**2, x * y, y**2])
    assert _linear_colon(ring, LinearIdeal.zero(), (1, 0)) == (True, LinearIdeal.full(2))
    result = search_groebner_flag(ring, 100)
    assert result.certificate.forms == ((0, 1), (1, 0))
    assert result.certificate.colon_indices == (2, 2)
    assert len(all_linear_ideals_filtration(ring).members) == 6


def test_subspace_enumeration_counts():
    assert count_subspaces(2, 5) == 8
    assert count_subspaces(3, 3) == 28
    assert len(enumerate_subspaces(2, 5)) == 8
    assert len(enumerate_subspaces(3, 3)) == 28
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces(4, 5, cap=100)


# ------------------------------------------------------- filtration verify


def test_subsets_filtration_crv_valid(crv26):
    cert = subsets_filtration(crv26)
    assert len(cert.members) == 8
    assert verify_koszul_filtration(crv26, cert).valid
    # the documented witness: (x) : (x,y) via g = y equals (x,z)
    x_i = next(i for i, m in enumerate(cert.members) if m.rows == ((1, 0, 0),))
    xy_i = next(
        i for i, m in enumerate(cert.members)
        if m.rows == ((1, 0, 0), (0, 1, 0))
    )
    xz_rows = ((1, 0, 0), (0, 0, 1))
    w = next(w for w in cert.witnesses if w.member == xy_i)
    assert w.sub == x_i
    assert cert.members[w.colon].rows == xz_rows


def test_subsets_mispointed_witness_invalid(crv26):
    cert = subsets_filtration(crv26)
    bad = []
    for w in cert.witnesses:
        if cert.members[w.member].rows == ((1, 0, 0), (0, 1, 0)):
            wrong = (w.colon + 1) % len(cert.members)
            bad.append(FiltrationWitness(w.member, w.sub, w.g, wrong))
        else:
            bad.append(w)
    broken = FiltrationCertificate(cert.members, tuple(bad))
    result = verify_koszul_filtration(crv26, broken)
    assert not result.valid
    assert "colon" in result.reason


def test_subsets_requires_quadratic_monomials(mm1, ci2):
    cert = subsets_filtration(ci2)  # x^2, y^2 are quadratic monomials
    assert verify_koszul_filtration(ci2, cert).valid
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    ring = make_ring(s, [x**2 + y**2])
    with pytest.raises(ValueError, match="quadratic monomials"):
        subsets_filtration(ring)


def test_minimal_filtration_on_dual_numbers():
    s, (x,) = polynomial_ring(5, ("x",))
    ring = make_ring(s, [x**2])
    members = (LinearIdeal.zero(), LinearIdeal.full(1))
    witnesses = (FiltrationWitness(1, 0, (1,), 1),)  # (0):(x) = (x) = m
    cert = FiltrationCertificate(members, witnesses)
    assert verify_koszul_filtration(ring, cert).valid


def test_scaled_member_rows_rejected_at_own_witness(ci2):
    # members written in other rows than RREF are the same ideals: a scaled
    # line used as an earlier witness's colon and m written by another basis
    # verify; a different line in place of the member fails at its own witness
    cert = all_linear_ideals_filtration(ci2)
    ann_i = next(w.colon for w in cert.witnesses if cert.members[w.member].rows == ((1, 1),))
    assert cert.members[ann_i].rows == ((1, 4),)  # ann(x + y) = (x - y)
    full_i = next(i for i, m in enumerate(cert.members) if m.dim == 2)
    doc = json.loads(json.dumps(cert.to_json()))
    doc["members"][ann_i] = [[2, 3]]  # 2 * (x - y)
    doc["members"][full_i] = [[1, 1], [0, 2]]
    doc["witnesses"].sort(key=lambda w: (w["member"] == ann_i, w["colon"] != ann_i))
    assert verify_koszul_filtration(ci2, FiltrationCertificate.from_json(doc)).valid
    doc["members"][ann_i] = [[2, 4]]  # 2 * (x + 2y)
    doc["witnesses"].sort(key=lambda w: w["member"] != ann_i)
    result = verify_koszul_filtration(ci2, FiltrationCertificate.from_json(doc))
    assert (result.valid, result.failing_index, result.reason) == (
        False, ann_i, "I != J + (g)"
    )


def test_filtration_must_contain_zero_and_m(ci2):
    members = (LinearIdeal.full(2),)
    cert = FiltrationCertificate(members, ())
    r = verify_koszul_filtration(ci2, cert)
    assert not r.valid and "zero ideal" in r.reason


def test_fit_lin_consequence_member_quotients_linear(ci2, crv26):
    # every member quotient R/I of a valid certificate is Koszul at (4, 6)
    for ring, cert in (
        (ci2, all_linear_ideals_filtration(ci2)),
        (crv26, subsets_filtration(crv26)),
    ):
        for member in cert.members:
            m = cyclic_module(ring, member.forms(ring))
            if m.is_zero():
                continue
            assert koszul_verdict(m, 4, 6).is_yes


# ------------------------------------------------------------ flag verify


def test_flag_ci2(ci2):
    flag = FlagCertificate(((1, 0), (0, 1)), (1, 2))
    assert verify_groebner_flag(ci2, flag).valid


def test_flag_mm1(mm1):
    flag = FlagCertificate(((1, 0), (0, 1)), (0, 2))
    assert verify_groebner_flag(mm1, flag).valid


def test_flag_negative_control(mm1):
    # (0) : y = (y) over k[x,y]/(y^2), not the empty prefix
    flag = FlagCertificate(((0, 1), (1, 0)), (0, 2))
    result = verify_groebner_flag(mm1, flag)
    assert not result.valid and result.failing_index == 1


def test_flag_dependent_forms(ci2):
    flag = FlagCertificate(((1, 0), (2, 0)), (1, 2))
    result = verify_groebner_flag(ci2, flag)
    assert not result.valid and "dependent" in result.reason


def test_flag_chain_verification(ci2):
    cert = all_linear_ideals_filtration(ci2)
    zero_i = next(i for i, m in enumerate(cert.members) if m.dim == 0)
    x_i = next(i for i, m in enumerate(cert.members) if m.rows == ((1, 0),))
    m_i = next(i for i, m in enumerate(cert.members) if m.dim == 2)
    assert verify_flag_chain(ci2, cert, (zero_i, x_i, m_i)).valid
    r = verify_flag_chain(ci2, cert, (zero_i, x_i))
    assert not r.valid and "maximal" in r.reason


def test_flag_chain_colon_leaves_family(ci2):
    # over k[x,y]/(x^2, y^2): (0) : y = (y) and (y) : x = m stay in the family,
    # but (0) : (x + y) = (x - y) is not a member
    zero, y, m = LinearIdeal.zero(), LinearIdeal(((0, 1),)), LinearIdeal.full(2)
    x_plus_y = LinearIdeal(((1, 1),))
    cert = FiltrationCertificate((zero, x_plus_y, y, m), ())
    assert verify_flag_chain(ci2, cert, (0, 2, 3)).valid
    r = verify_flag_chain(ci2, cert, (0, 1, 3))
    assert (r.valid, r.failing_index, r.reason) == (False, 1, "chain colon leaves the family")


def test_flag_chain_compares_members_in_rref(ci2):
    # m written [[1, 1], [0, 2]] and (y) written by two dependent rows are
    # the same ideals, so the chain (0) < (y) < m still verifies, as the
    # filtration does; m written by two dependent rows spans only a line
    cert = all_linear_ideals_filtration(ci2)
    zero_i = next(i for i, m in enumerate(cert.members) if m.dim == 0)
    y_i = next(i for i, m in enumerate(cert.members) if m.rows == ((0, 1),))
    m_i = next(i for i, m in enumerate(cert.members) if m.dim == 2)
    doc = json.loads(json.dumps(cert.to_json()))
    doc["members"][m_i] = [[1, 1], [0, 2]]
    doc["members"][y_i] = [[0, 1], [0, 3]]
    rewritten = FiltrationCertificate.from_json(doc)
    assert verify_koszul_filtration(ci2, rewritten).valid
    assert verify_flag_chain(ci2, rewritten, (zero_i, y_i, m_i)).valid
    doc["members"][m_i] = [[1, 1], [2, 2]]
    r = verify_flag_chain(ci2, FiltrationCertificate.from_json(doc), (zero_i, y_i, m_i))
    assert (r.valid, r.failing_index, r.reason) == (
        False, m_i, "chain does not end at the maximal ideal"
    )


def test_contains_vector_reduces_rows_in_any_form():
    # rows that are not in RREF (scaled, dependent, unsorted) span the same
    # space; the cached reduction is made once per modulus
    li = LinearIdeal(((0, 2, 4), (3, 0, 0), (0, 1, 2)))
    assert li.contains_vector((1, 1, 2), 5)
    assert li.contains_vector((6, 3, 6), 5)
    assert not li.contains_vector((0, 0, 1), 5)
    assert not li.contains_vector((0, 1, 0), 5)
    # over F_2 the rows are 0, x and y
    assert li.contains_vector((0, 1, 0), 2)
    assert not li.contains_vector((0, 1, 1), 2)
    assert li.contains_vector((0, 1, 2), 5)


# ------------------------------------------------------------- flag search


def test_search_finds_flag_ci2_f3():
    s, (x, y) = polynomial_ring(3, ("x", "y"))
    ring = make_ring(s, [x**2, y**2])
    result = search_groebner_flag(ring, 200)
    assert result.certificate is not None
    assert verify_groebner_flag(ring, result.certificate).valid


def test_search_exhausts_crv26_char2():
    # the expected negative is confirmed by the exhaustive search itself
    s, (x, y, z) = polynomial_ring(2, ("x", "y", "z"))
    ring = make_ring(s, [x**2, x * y, y * z, z**2])
    result = search_groebner_flag(ring, 200)
    assert result.certificate is None
    assert result.exhausted
    assert result.candidates_tested > 0


def test_search_trivial_polynomial_ring():
    s, (x,) = polynomial_ring(3, ("x",))
    ring = make_ring(s, [])
    result = search_groebner_flag(ring, 10)
    assert result.certificate is not None
    assert result.certificate.forms == ((1,),)
    assert result.certificate.colon_indices == (0,)


def test_search_budget():
    s, (x, y, z) = polynomial_ring(5, ("x", "y", "z"))
    ring = make_ring(s, [x * y, y * z])
    with pytest.raises(BudgetExceededError):
        search_groebner_flag(ring, 2)
    s7, _ = polynomial_ring(7, ("x", "y"))
    ring7 = make_ring(s7, [s7.gen(0) ** 2])
    with pytest.raises(BudgetExceededError):
        search_groebner_flag(ring7, 100)


# --------------------------------------------------------------- conca


def test_conca_examples(ci2, nk3):
    assert check_conca_generator(ci2, (1, 0)).is_conca
    r = check_conca_generator(ci2, (1, 1))
    assert not r.is_conca and r.failed_clause == "x^2 != 0"
    r2 = check_conca_generator(nk3, (1,))
    assert not r2.is_conca and r2.failed_clause == "x^2 != 0"
    r3 = check_conca_generator(ci2, (0, 0))
    assert not r3.is_conca and "x = 0" in r3.failed_clause


def test_conca_flag_ci2(ci2):
    cert = conca_flag(ci2, (1, 0))
    assert cert.forms[0] == (1, 0)
    assert verify_groebner_flag(ci2, cert).valid


def test_conca_flag_fitz3(fitz3):
    # z is a Conca generator: z^2 = 0 and z*R_1 = span{xz, yz} = R_2
    assert check_conca_generator(fitz3, (0, 0, 1)).is_conca
    cert = conca_flag(fitz3, (0, 0, 1))
    assert cert.forms[0] == (0, 0, 1)
    assert verify_groebner_flag(fitz3, cert).valid


def test_conca_flag_rejects_non_conca(ci2):
    with pytest.raises(ValueError, match="not a Conca generator"):
        conca_flag(ci2, (1, 1))


# ------------------------------------------------------------ fitzgerald


def test_fitzgerald_ci2_exhaustive(ci2):
    r = check_fitzgerald(ci2)
    assert r.holds and r.forms_checked == 6  # (5^2-1)/4 lines over F_5


def test_fitzgerald_fitz3(fitz3):
    r = check_fitzgerald(fitz3)
    assert r.holds and r.forms_checked == 13  # (3^3-1)/2 lines over F_3


def test_fitzgerald_nk3_witness(nk3):
    r = check_fitzgerald(nk3)
    assert not r.holds and r.witness == (1,)
    assert r.failed_clause == "ann(l) not generated by linear forms"  # (0) : x = (x^2)


def test_fitzgerald_budget(crv26):
    with pytest.raises(BudgetExceededError):
        check_fitzgerald(crv26, max_forms=10)


def test_all_linear_ci2(ci2):
    cert = all_linear_ideals_filtration(ci2)
    assert len(cert.members) == 8  # 1 + 6 + 1 subspaces of F_5^2
    assert verify_koszul_filtration(ci2, cert).valid


def test_all_linear_fitz3(fitz3):
    cert = all_linear_ideals_filtration(fitz3)
    assert len(cert.members) == 28  # 1 + 13 + 13 + 1 subspaces of F_3^3
    assert verify_koszul_filtration(fitz3, cert).valid


def test_all_linear_requires_fitzgerald(nk3):
    with pytest.raises(ValueError, match="annihilator condition"):
        all_linear_ideals_filtration(nk3)


# ------------------------------------------------------ minimal multiplicity


def test_reduction_mm1(mm1):
    r = check_reduction(mm1, [(1, 0)], 6)
    assert r.holds
    assert r.reduction_ok and r.failing_degree is None
    assert r.regular_sequence_ok
    assert r.is_minimal_multiplicity
    assert (r.multiplicity, r.codim) == (2, 1)


def test_reduction_ci2_mixed_verdict(ci2):
    # x*R_d = R_{d+1} holds but x is a zerodivisor: mixed verdict
    r = check_reduction(ci2, [(1, 0)], 4)
    assert r.reduction_ok
    assert not r.regular_sequence_ok
    assert not r.holds


def test_reduction_trivial_on_squarezero_ring():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    ring = make_ring(s, [x**2, x * y, y**2])  # m^2 = 0
    r = check_reduction(ring, [(1, 0), (0, 1)], 1)
    assert r.reduction_ok  # J*R_1 = 0 = R_2 trivially


def test_minmult_flag_mm1(mm1):
    cert = minimal_multiplicity_flag(mm1, [(1, 0)])
    assert cert.forms == ((1, 0), (0, 1))
    assert cert.colon_indices == (0, 2)
    assert verify_groebner_flag(mm1, cert).valid


def test_minmult_flag_degenerate_polynomial_ring():
    # J = all of R_1 on a polynomial ring: every colon is the previous prefix
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    ring = make_ring(s, [])
    cert = minimal_multiplicity_flag(ring, [(1, 0), (0, 1)])
    assert cert.colon_indices == (0, 1)
    assert verify_groebner_flag(ring, cert).valid


def test_minmult_flag_rejects_failing_ring(ci2):
    with pytest.raises(ValueError, match="reduction checks failed"):
        minimal_multiplicity_flag(ci2, [(1, 0)])


# --------------------------------------------------------------- JSON


def test_certificate_json_round_trip(ci2):
    cert = all_linear_ideals_filtration(ci2)
    doc = cert.to_json()
    assert doc["kind"] == "filtration"
    back = FiltrationCertificate.from_json(doc)
    assert back.to_json() == doc
    flag = conca_flag(ci2, (1, 0))
    fdoc = flag.to_json()
    assert FlagCertificate.from_json(fdoc).to_json() == fdoc


def test_flag_as_filtration(ci2):
    flag = conca_flag(ci2, (1, 0))
    cert = flag.as_filtration(ci2.nvars, ci2.p)
    assert verify_koszul_filtration(ci2, cert).valid
