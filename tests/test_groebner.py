"""Buchberger, normal forms, colon ideals and syzygies."""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from koszulkit.arith import MonomialOrder, mono_divides, mono_quotient, polynomial_ring
from koszulkit.groebner import (
    FreeModuleVector,
    buchberger,
    colon_ideal,
    minimal_module_generators,
    module_buchberger,
    module_normal_form,
    normal_form,
    pot_elim_key,
    quotient_generators,
    spolynomial,
    syzygy_basis,
    top_order_key,
    _melt_axpy,
    _melt_lt,
)
from koszulkit.quotient import make_ring
from oracles import (
    colon_piece_dim,
    in_ideal_brute,
    monomials_of_degree,
    poly_to_dict,
    submodule_piece_dim,
)


def in_ideal(f, gb):
    """Reference membership test: f reduces to zero modulo the basis."""
    return normal_form(f, gb).is_zero()


def test_buchberger_principal():
    s, (x, y) = polynomial_ring(32003, ("x", "y"))
    gb = buchberger([x])
    assert [str(g) for g in gb.generators] == ["x"]


def test_buchberger_monomial_set_is_its_own_basis():
    s, (x, y, z) = polynomial_ring(32003, ("x", "y", "z"))
    gens = [x**2, x * y, y * z, z**2]
    gb = buchberger(gens)
    assert set(g.terms for g in gb.generators) == set(g.terms for g in gens)


def test_buchberger_spair_example():
    s, (x, y) = polynomial_ring(32003, ("x", "y"))
    f, g = x**2 - y**2, x * y
    # the single S-polynomial reduces to -y^3: frozen from the S-pair oracle
    assert spolynomial(f, g) == -(y**3)
    gb = buchberger([f, g])
    assert [str(t) for t in gb.generators] == ["x*y", "x^2 + 32002*y^2", "y^3"]
    # brute normal-form checks: every element is in the ideal
    gens_d = [poly_to_dict(f), poly_to_dict(g)]
    for t in gb.generators:
        assert in_ideal_brute(poly_to_dict(t), gens_d, 2, 32003)


def test_buchberger_permutation_invariance():
    s, (x, y, z) = polynomial_ring(5, ("x", "y", "z"))
    gens = [x**2 - y * z, x * y - z**2, y**2 - x * z]
    expected = buchberger(gens)
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm)) == expected


def test_normal_form_examples(crv26):
    s = crv26.poly_ring
    x, y, z = s.gens()
    assert normal_form(x**2, crv26.gb).is_zero()
    nf = normal_form(x * z, crv26.gb)
    assert nf == x * z
    # cross-check: xz is one of the degree-2 standard monomials
    assert (1, 0, 1) in crv26.piece(2)
    assert normal_form(s.zero(), crv26.gb).is_zero()


def test_normal_form_order_mismatch():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    slex = type(s)(5, ("x", "y"), "lex")
    gb = buchberger([x**2])
    f = slex.gen(0)
    with pytest.raises(ValueError, match="order mismatch"):
        normal_form(f, gb)


def test_normal_form_idempotent_and_membership_oracle():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    gens = [x**2 + x * y, y**3]
    gb = buchberger(gens)
    gens_d = [poly_to_dict(g) for g in gens]
    rng = random.Random(7)
    for trial in range(50):
        d = rng.randint(1, 6)
        terms = {}
        for m in monomials_of_degree(2, d):
            if rng.random() < 0.5:
                terms[m] = rng.randrange(5)
        f = s.from_dict(terms)
        r = normal_form(f, gb)
        assert normal_form(f - r, gb).is_zero()
        if f.is_zero():
            continue
        # membership agrees with the graded linear-algebra oracle (degree <= 6)
        assert in_ideal(f, gb) == in_ideal_brute(poly_to_dict(f), gens_d, 2, 5)


def test_colon_ann_x_ci2(ci2):
    x, y = ci2.poly_ring.gens()
    gb = colon_ideal([], [x], ci2)
    assert [str(g) for g in quotient_generators(gb, ci2)] == ["x"]


def test_colon_crv_example(crv26):
    x, y, z = crv26.poly_ring.gens()
    gb = colon_ideal([x], [y], crv26)
    assert sorted(str(g) for g in quotient_generators(gb, crv26)) == ["x", "z"]


def test_colon_by_unit_ideal(crv26):
    x, y, z = crv26.poly_ring.gens()
    one = crv26.poly_ring.one()
    gb = colon_ideal([x], [one], crv26)
    expected = buchberger([x] + list(crv26.gb.generators))
    assert gb == expected


def test_colon_rejects_inhomogeneous(ci2):
    x, y = ci2.poly_ring.gens()
    with pytest.raises(ValueError, match="non-homogeneous"):
        colon_ideal([x], [x + x * y], ci2)


@pytest.mark.parametrize(
    "j_rows,i_rows",
    [
        ([], [(1, 0, 0)]),
        ([(1, 0, 0)], [(0, 1, 0)]),
        ([(0, 1, 0)], [(1, 0, 0), (0, 0, 1)]),
    ],
)
def test_colon_correctness_and_maximality(crv26, j_rows, i_rows):
    ring = crv26
    j_gens = [ring.linear_form(r) for r in j_rows]
    i_gens = [ring.linear_form(r) for r in i_rows]
    gb = colon_ideal(j_gens, i_gens, ring)
    # soundness: every basis element multiplies I into J (+ defining ideal)
    j_full = buchberger(j_gens + list(ring.gb.generators)) if (j_gens or ring.gb.generators) else None
    for g in gb.generators:
        for h in i_gens:
            assert normal_form(g * h, j_full).is_zero()
    # maximality against the brute colon piece dimensions, degrees <= 3
    jd = [poly_to_dict(g) for g in j_gens + list(ring.gb.generators)]
    idl = [poly_to_dict(g) for g in i_gens]
    for d in range(0, 4):
        brute = colon_piece_dim(jd, idl, 3, d, ring.p)
        assert _ideal_piece_dim_from_gb(gb, d) == brute


def _ideal_piece_dim_from_gb(gb, d):
    # dim of the degree-d piece of the ideal, from its leading terms
    from oracles import monomials_of_degree as mods

    if not gb.generators:
        return 0
    n = len(gb.generators[0].leading_monomial())
    lts = [g.leading_monomial() for g in gb.generators]
    count = 0
    for m in mods(n, d):
        if any(all(a <= b for a, b in zip(lt, m)) for lt in lts):
            count += 1
    return count


def test_syzygy_polynomial_ring_koszul_pair():
    s, (x, y) = polynomial_ring(32003, ("x", "y"))
    free = make_ring(s, [])
    vecs = [FreeModuleVector((x,), (0,)), FreeModuleVector((y,), (0,))]
    syz = syzygy_basis(vecs, free)
    assert len(syz) == 1
    (a, b) = syz[0].components
    # the Koszul syzygy up to a scalar: (y, -x)
    assert {str(a), str(b)} == {"y", "32002*x"} or {str(a), str(b)} == {"32002*y", "x"}


def test_syzygy_quotient_ring_example(ci2):
    x, y = ci2.poly_ring.gens()
    vecs = [FreeModuleVector((x,), (0,)), FreeModuleVector((y,), (0,))]
    syz = syzygy_basis(vecs, ci2)
    assert len(syz) == 3
    assert all(v.internal_degree() == 2 for v in syz)
    rendered = {str(v) for v in syz}
    assert "(x, 0)" in rendered
    assert "(0, y)" in rendered


def test_syzygy_single_regular_element(mm1):
    x, y = mm1.poly_ring.gens()
    vecs = [FreeModuleVector((x,), (0,))]
    assert syzygy_basis(vecs, mm1) == []


def test_syzygies_pair_to_zero(ci2, crv26):
    for ring in (ci2, crv26):
        gens = ring.poly_ring.gens()
        vecs = [FreeModuleVector((g,), (0,)) for g in gens[:2]]
        for v in syzygy_basis(vecs, ring):
            acc = ring.poly_ring.zero()
            for a, w in zip(v.components, vecs):
                acc = acc + a * w.components[0]
            assert ring.is_zero(acc)


def test_syzygy_rejects_mixed_free_modules(ci2):
    x, y = ci2.poly_ring.gens()
    with pytest.raises(ValueError, match="different free modules"):
        syzygy_basis(
            [FreeModuleVector((x,), (0,)), FreeModuleVector((y,), (1,))], ci2
        )


@pytest.mark.parametrize("fixture, seed", [("ci2", 1), ("crv26", 2), ("fitz3", 3)])
def test_minimal_generators_sieve_drops_redundant_input(request, fixture, seed):
    ring = request.getfixturevalue(fixture)
    s, p, shifts = ring.poly_ring, ring.p, (0, 1)
    rng = random.Random(seed)

    def random_vector(d):
        return tuple(
            s.from_dict({m: rng.randrange(p) for m in s.monomials_of_degree(d - sh)})
            for sh in shifts
        )

    def combination(vecs):
        coeffs = [rng.randrange(1, p) for _ in vecs]
        return tuple(
            sum((c * v[k] for c, v in zip(coeffs, vecs)), s.zero())
            for k in range(len(shifts))
        )

    gens = [(d, random_vector(d)) for d in (1, 1, 2, 2, 3)]
    products = [(d + 1, tuple(x * c for c in v)) for d, v in gens for x in s.gens()]
    pool = gens + products
    combos = []
    for d in (1, 2, 3, 4):
        same = [v for e, v in pool if e == d]
        combos += [(d, combination(rng.sample(same, min(3, len(same))))) for _ in range(2)]
    inputs = pool + combos
    rng.shuffle(inputs)

    kept = minimal_module_generators(
        ring, shifts, [FreeModuleVector(v, shifts) for _d, v in inputs]
    )

    def as_dicts(vectors):
        return [tuple(poly_to_dict(c) for c in v) for v in vectors]

    def dim(vectors, d):
        ideal = [poly_to_dict(g) for g in ring.defining_generators]
        return submodule_piece_dim(as_dicts(vectors), ideal, ring.nvars, shifts, d, p)

    kept_degrees = [v.internal_degree() for v in kept]
    for d in range(5):
        upto = [v for e, v in inputs if e <= d]
        below = [v for e, v in inputs if e < d]
        assert kept_degrees.count(d) == dim(upto, d) - dim(below, d)
        assert dim([v.components for v in kept], d) == dim(upto, d)


def _module_normal_form_reference(elt, basis, key, p):
    """Full division that finds each leading term by a max over the remainder."""
    lts = [(_melt_lt(b, key), b) for b in basis]
    remainder = {}
    h = dict(elt)
    while h:
        pm = max(h, key=key)
        pos, m = pm
        c = h[pm]
        hit = next(
            ((bm, bc, b) for ((bpos, bm), bc), b in lts if bpos == pos and mono_divides(bm, m)),
            None,
        )
        if hit is None:
            remainder[pm] = c
            del h[pm]
        else:
            bm, bc, b = hit
            h = _melt_axpy(h, b, mono_quotient(m, bm), c * pow(bc, p - 2, p) % p, p)
    return remainder


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 32003, 2**31 - 1)),
    st.sampled_from(("degrevlex", "lex")),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_module_normal_form_matches_max_search(p, kind, top, seed):
    # the heap of term keys gives the remainder of the max-search division,
    # against a random list of elements and against a module Groebner basis
    rng = random.Random(seed)
    n, r = rng.randint(1, 3), rng.randint(1, 3)
    order = MonomialOrder(kind, n)
    shifts = tuple(rng.randint(0, 2) for _ in range(r))
    key = top_order_key(shifts, order) if top else pot_elim_key(rng.randint(0, r), order)

    def element(terms):
        out = {}
        for _ in range(terms):
            m = tuple(rng.randint(0, 2) for _ in range(n))
            out[(rng.randrange(r), m)] = rng.randrange(1, p)
        return out

    basis = [element(rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    elts = [element(rng.randint(0, 8)) for _ in range(4)]
    for b in (basis, module_buchberger(basis, key, p)):
        for elt in elts:
            assert module_normal_form(elt, b, key, p) == _module_normal_form_reference(
                elt, b, key, p
            )
