"""Buchberger, normal forms, colon ideals and syzygies."""

import heapq
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from koszulkit.arith import (
    MonomialOrder,
    PolynomialRing,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_quotient,
    polynomial_ring,
)
from koszulkit.groebner import (
    FreeModuleVector,
    GroebnerBasis,
    buchberger,
    colon_ideal,
    minimal_module_generators,
    module_buchberger,
    module_normal_form,
    normal_form,
    pot_elim_key,
    quotient_generators,
    syzygies_over_poly_ring,
    syzygy_basis,
    top_order_key,
    _interreduce,
    _melt_axpy,
    _melt_from_components,
    _melt_lt,
    _melt_to_components,
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


# The polynomial-level Buchberger that `buchberger` replaced with the module
# engine, kept as the reference: its S-polynomial, its division loop, its
# pair loop with both classical criteria and its interreduction. It shares no
# code with `buchberger`; reduced bases are unique.


def _reference_spolynomial(f, g):
    (mf, cf), (mg, cg) = f.terms[0], g.terms[0]
    lcm = mono_lcm(mf, mg)
    ring, field = f.ring, f.ring.field
    a = f * ring.monomial(mono_quotient(lcm, mf), field.inv(cf))
    b = g * ring.monomial(mono_quotient(lcm, mg), field.inv(cg))
    return a - b


def _reference_normal_form(f, basis):
    """Full division by the first divisor in basis order, in Polynomial arithmetic."""
    if isinstance(basis, GroebnerBasis):
        gens = basis.generators
    else:
        gens = tuple(g for g in basis if not g.is_zero())
    if not gens:
        return f
    field = f.ring.field
    lts = [(g.leading_monomial(), g.leading_coefficient(), g) for g in gens]
    remainder = {}
    h = f
    while not h.is_zero():
        m, c = h.terms[0]
        hit = next(((mg, cg, g) for mg, cg, g in lts if mono_divides(mg, m)), None)
        if hit is None:
            remainder[m] = c
            h = type(h)(h.ring, h.terms[1:])
        else:
            mg, cg, g = hit
            h = h - g * f.ring.monomial(mono_quotient(m, mg), c * field.inv(cg) % field.p)
    return f.ring.from_dict(remainder)


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _reference_buchberger(gens):
    gens = [g for g in gens if not g.is_zero()]
    ring = gens[0].ring
    basis = []
    for g in gens:
        r = _reference_normal_form(g, basis).monic()
        if not r.is_zero():
            basis.append(r)
    key = ring.order.key
    heap, pending = [], set()

    def push_pairs(j):
        mj = basis[j].leading_monomial()
        for i in range(j):
            lcm = mono_lcm(basis[i].leading_monomial(), mj)
            heapq.heappush(heap, (mono_degree(lcm), key(lcm), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        mi, mj = basis[i].leading_monomial(), basis[j].leading_monomial()
        if mono_coprime(mi, mj):
            continue
        lcm = mono_lcm(mi, mj)
        if any(
            k not in (i, j)
            and mono_divides(basis[k].leading_monomial(), lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        r = _reference_normal_form(_reference_spolynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
            push_pairs(len(basis) - 1)
    return GroebnerBasis(tuple(_reference_interreduce(basis)), ring.order)


def _reference_interreduce(basis):
    """Minimalize the leading monomials, then replace each element by its
    normal form modulo the others; sorted ascending."""
    key = basis[0].ring.order.key
    minimal = []
    for g in sorted((g.monic() for g in basis), key=lambda g: key(g.leading_monomial())):
        if not any(mono_divides(h.leading_monomial(), g.leading_monomial()) for h in minimal):
            minimal.append(g)
    for i, g in enumerate(minimal):
        minimal[i] = _reference_normal_form(g, minimal[:i] + minimal[i + 1 :])
    return minimal


def _random_polys(rng, ring, count, max_deg, max_terms, homogeneous):
    out = []
    for _ in range(count):
        d = rng.randint(1, max_deg)
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = d if homogeneous else rng.randint(0, d)
            terms[rng.choice(ring.monomials_of_degree(e))] = rng.randrange(1, ring.p)
        out.append(ring.from_dict(terms))
    return out


_PRIMES = (2, 3, 32003, 2**31 - 1)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_PRIMES),
    st.sampled_from(("degrevlex", "lex")),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_buchberger_matches_polynomial_reference(p, kind, homogeneous, seed):
    # both routes of `buchberger` (F4 for homogeneous gens, rank-1 module
    # elements otherwise) give the reduced basis of the polynomial-level
    # loop; normal forms agree term for term on that basis and on plain lists
    rng = random.Random(seed)
    ring = PolynomialRing(p, ("x", "y", "z")[: rng.randint(1, 3)], kind)
    gens = _random_polys(rng, ring, rng.randint(1, 3), 3, 3, homogeneous)
    gb = buchberger(gens)
    assert gb == _reference_buchberger(gens)
    elts = _random_polys(rng, ring, 4, 4, 6, False)
    for f in elts:
        assert normal_form(f, gb) == _reference_normal_form(f, gb)
        assert normal_form(f, gens) == _reference_normal_form(f, gens)
        assert normal_form(f, elts) == _reference_normal_form(f, elts)


def _homogeneous_gens(rng, ring, shape):
    """Homogeneous generators of degrees 0-4 of the drawn shape: random forms,
    an all-monomial set, random forms plus a constant or plus linear forms,
    or a unitriangular basis of S_e (so I_e = S_e) plus random forms."""
    n, p = ring.nvars, ring.p

    def form(d):
        monos = ring.monomials_of_degree(d)
        return ring.from_dict(
            {rng.choice(monos): rng.randrange(1, p) for _ in range(rng.randint(1, 4))}
        )

    if shape == "monomials":
        return [ring.monomial(rng.choice(ring.monomials_of_degree(rng.randint(0, 4))))
                for _ in range(rng.randint(1, 5))]
    gens = [form(rng.randint(2, 4 if n <= 3 else 3)) for _ in range(rng.randint(1, 3))]
    if shape == "constant":
        gens.append(ring.constant(rng.randrange(1, p)))
    elif shape == "linear":
        gens += [form(1) for _ in range(rng.randint(1, n))]
    elif shape == "full":
        monos = ring.monomials_of_degree(rng.randint(1, 2 if n <= 3 else 1))
        gens += [
            ring.from_dict({m: 1, **{s: rng.randrange(p) for s in monos[k + 1 :]}})
            for k, m in enumerate(monos)
        ]
    return gens


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_PRIMES),
    st.sampled_from(("degrevlex", "lex")),
    st.sampled_from(("forms", "monomials", "constant", "linear", "full")),
    st.integers(0, 2**32 - 1),
)
def test_homogeneous_route_matches_polynomial_reference(p, kind, shape, seed):
    # the F4 route of homogeneous input gives the reduced basis of the
    # polynomial-level loop, whatever the order of the generators
    rng = random.Random(seed)
    ring = PolynomialRing(p, [f"x{i}" for i in range(rng.randint(1, 5))], kind)
    gens = _homogeneous_gens(rng, ring, shape)
    gb = buchberger(gens)
    assert gb == _reference_buchberger(gens)
    rng.shuffle(gens)
    assert buchberger(gens) == gb


def test_homogeneous_route_matches_module_route_at_scale():
    # five dense quadrics in seven variables: the F4 route eliminates only
    # the rows its pairs and reducers need, where a Macaulay matrix of every
    # product u*g would run to 3,003 columns in degree 8
    p, n = 32003, 7
    rng = random.Random("big-7-5")
    ring = PolynomialRing(p, [f"x{i}" for i in range(n)])
    monos = ring.monomials_of_degree(2)
    gens = [ring.from_dict({m: rng.randrange(1, p) for m in monos}) for _ in range(5)]
    key = ring.order.key
    mkey = lambda pm: key(pm[1])
    basis = module_buchberger([_melt_from_components((g,)) for g in gens], mkey, p, (0,))
    expected = [_melt_to_components(e, 1, ring)[0] for e in _interreduce(basis, mkey, p)]
    assert buchberger(gens).generators == tuple(expected)


def test_normal_form_rejects_a_basis_over_another_field():
    _s5, (x5, _y5) = polynomial_ring(5, ("x", "y"))
    _s7, (x7, y7) = polynomial_ring(7, ("x", "y"))
    gb = buchberger([x5**2])
    # no term of x*y is divisible by x^2, so no reduction step is taken
    for basis in (gb, list(gb.generators)):
        with pytest.raises(ValueError, match="modulus mismatch"):
            normal_form(x7 * y7, basis)


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
    assert _reference_spolynomial(f, g) == -(y**3)
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


def _reference_colon_ideal(j_gens, i_gens, ring):
    """The pairwise path that `colon_ideal` replaced: one tagged elimination
    per generator of I for J' : g (J' = J + I_R), then the colons intersected
    pairwise, each intersection a tagged elimination of its own."""
    poly_ring = ring.poly_ring
    j_full = [g for g in [ring.reduce(g) for g in j_gens] + list(ring.gb.generators)
              if not g.is_zero()]

    def colon_by_element(g):
        raw = syzygies_over_poly_ring([(g,)] + [(h,) for h in j_full], (0,))
        return [comps[0] for comps in raw if not comps[0].is_zero()]

    def intersection(a, b):
        if not a or not b:
            return []
        raw = syzygies_over_poly_ring([(g,) for g in a] + [(h,) for h in b], (0,))
        out = []
        for comps in raw:
            f = poly_ring.zero()
            for u, g in zip(comps[: len(a)], a):
                f = f + u * g
            if not f.is_zero():
                out.append(f)
        return out

    colons = []
    for g in i_gens:
        g = ring.reduce(g)
        if g.is_zero():
            continue
        colons.append(list(j_full) if g.degree() == 0 else colon_by_element(g))
    if not colons:
        return buchberger([poly_ring.one()], poly_ring.order)
    current = colons[0]
    for nxt in colons[1:]:
        current = intersection(current, nxt)
    return buchberger(current + list(ring.gb.generators), poly_ring.order)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_PRIMES),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_colon_ideal_matches_pairwise_reference(p, k, seed):
    # one elimination of the column (g_1..g_k) gives the reduced basis of the
    # intersection of the single-element colons; I may mix degrees, hold a
    # unit or a generator that is zero in R
    rng = random.Random(seed)
    s = PolynomialRing(p, ("x", "y", "z")[: rng.randint(2, 3)])

    def forms(count, degrees):
        return [
            s.from_dict({rng.choice(s.monomials_of_degree(d)): rng.randrange(1, p)
                         for _ in range(rng.randint(1, 3))})
            for d in (rng.choice(degrees) for _ in range(count))
        ]

    defining = forms(rng.randint(0, 3), (2, 2, 3))
    ring = make_ring(s, defining)
    j_gens = forms(rng.randint(0, 2), (1, 2))
    i_gens = forms(k, (1, 1, 2))
    if rng.random() < 0.15:
        i_gens[0] = s.one()
    if defining and rng.random() < 0.15:
        i_gens[-1] = defining[0]
    assert colon_ideal(j_gens, i_gens, ring) == _reference_colon_ideal(j_gens, i_gens, ring)


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
    for b in (basis, module_buchberger(basis, key, p, shifts)):
        for elt in elts:
            assert module_normal_form(elt, b, key, p) == _module_normal_form_reference(
                elt, b, key, p
            )


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_PRIMES),
    st.sampled_from(("degrevlex", "lex")),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
# inhomogeneous draws that ran for many seconds or minutes before
# `module_buchberger` homogenized its input
@example(5, "lex", False, 516384505)
@example(3, "lex", False, 2317284323)
@example(3, "lex", False, 3171812925)
@example(32003, "lex", False, 4051215173)
@example(2**31 - 1, "lex", False, 434023713)
@example(2, "lex", False, 3510423198)
@example(2**31 - 1, "lex", False, 2186162962)
def test_module_buchberger_meets_the_spair_criterion(p, kind, top, seed):
    # every input and every S-pair of the result reduces to zero by the result,
    # so the pairs skipped by a criterion (coprime leading monomials among the
    # single-position elements, the chain criterion) were redundant; the
    # inputs mix single-position elements, as ring relations g*e_k are, with
    # elements spread over several positions
    rng = random.Random(seed)
    n, r = rng.randint(1, 3), rng.randint(1, 3)
    order = MonomialOrder(kind, n)
    shifts = tuple(rng.randint(0, 2) for _ in range(r))
    key = top_order_key(shifts, order) if top else pot_elim_key(rng.randint(0, r), order)

    def element(single):
        pos = rng.randrange(r)
        out = {}
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.randint(0, 2) for _ in range(n))
            out[(pos if single else rng.randrange(r), m)] = rng.randrange(1, p)
        return out

    elements = [element(rng.random() < 0.6) for _ in range(rng.randint(1, 5))]
    gb = module_buchberger(elements, key, p, shifts)
    for e in elements:
        assert module_normal_form(e, gb, key, p) == {}
    lts = [_melt_lt(b, key) for b in gb]
    for i, j in itertools.combinations(range(len(gb)), 2):
        ((pi, mi), ci), ((pj, mj), cj) = lts[i], lts[j]
        if pi != pj:
            continue
        lcm = mono_lcm(mi, mj)
        s = _melt_axpy({}, gb[i], mono_quotient(lcm, mi), -pow(ci, -1, p), p)
        s = _melt_axpy(s, gb[j], mono_quotient(lcm, mj), pow(cj, -1, p), p)
        assert module_normal_form(s, gb, key, p) == {}


def test_module_buchberger_pairs_coprime_leads_of_an_element_in_two_positions():
    # f = x*e0 + y*e1 and g = y*e0 lead at the coprime x*e0 and y*e0, but f
    # lies in two positions: y*f - x*g = y^2*e1 is no multiple of a leading
    # term, so the coprime criterion must not skip their pair
    p, shifts = 5, (0, 0)
    key = top_order_key(shifts, MonomialOrder("degrevlex", 2))
    f = {(0, (1, 0)): 1, (1, (0, 1)): 1}
    g = {(0, (0, 1)): 1}
    gb = module_buchberger([f, g], key, p, shifts)
    assert [_melt_lt(b, key)[0] for b in gb[:2]] == [(0, (1, 0)), (0, (0, 1))]
    assert module_normal_form({(1, (0, 2)): 1}, gb, key, p) == {}
