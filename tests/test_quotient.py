"""Quotient rings, graded pieces, Hilbert series, module presentations."""

import random
from itertools import zip_longest

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from koszulkit import groebner
from koszulkit.arith import mono_divides, mono_mul, polynomial_ring
from koszulkit.groebner import (
    FreeModuleVector,
    _EMPTY,
    _melt_lt,
    _next_degree_map,
    normal_form,
    top_order_key,
)
from koszulkit.linalg import Nonzeros
from koszulkit.quotient import (
    HilbertSeries,
    QuotientRing,
    cyclic_module,
    free_module,
    graded_piece_basis,
    hilbert_series,
    make_module,
    make_ring,
    quotient_by_linear_forms,
    residue_field_module,
    restrict_module_to_quotient,
    scaled_submodule,
    _monomial_quotient_numerator,
    _one_minus_t_power,
    _poly_mul,
    _series_divide,
)
from oracles import monomials_of_degree, poly_to_dict, quotient_piece_dim, rational_hilbert_series
from test_groebner import _reference_normal_form
from test_resolution import _reference_degree_map


def test_make_ring_rejects_nonhomogeneous():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    with pytest.raises(ValueError, match="non-homogeneous"):
        make_ring(s, [x**2 + y])


def test_make_ring_rejects_degree_one():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    with pytest.raises(ValueError, match="eliminate the variable"):
        make_ring(s, [x**2, x + y])


def test_make_ring_rejects_composite_char():
    with pytest.raises(ValueError, match="not prime"):
        polynomial_ring(6, ("x",))


def test_make_ring_fixture_examples(nk3, crv26):
    assert nk3.p == 5 and nk3.names == ("x",)
    assert len(crv26.gb.generators) == 4


def test_graded_piece_basis_crv(crv26):
    # {xz, y^2} in degree 2 (listed descending: y^2 > xz under degrevlex)
    assert graded_piece_basis(crv26, 2) == ((0, 2, 0), (1, 0, 1))
    assert graded_piece_basis(crv26, 3) == ((0, 3, 0),)            # y^3
    assert graded_piece_basis(crv26, 0) == ((0, 0, 0),)


def test_hilbert_ci2(ci2):
    h = hilbert_series(ci2, 8)
    assert list(h.expansion[:4]) == [1, 2, 1, 0]
    assert h.krull_dim == 0 and h.multiplicity == 4 and h.codim == 2


def test_hilbert_crv26(crv26):
    h = hilbert_series(crv26, 10)
    assert list(h.expansion) == [1, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1]
    # numerator 1 + 2t - t^2 - t^3 over (1-t)^1 after cancelling (1-t)^2
    assert h.krull_dim == 1
    reduced = _cancel_one_minus_t(list(h.numerator), h.denominator_power - 1)
    assert reduced == [1, 2, -1, -1]


def _cancel_one_minus_t(num, times):
    for _ in range(times):
        out, acc = [], 0
        for c in num[:-1]:
            acc += c
            out.append(acc)
        assert sum(num) == 0
        num = out
        while num and num[-1] == 0:
            num.pop()
    return num


def test_hilbert_mm1(mm1):
    h = hilbert_series(mm1, 8)
    assert list(h.expansion) == [1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert h.krull_dim == 1
    assert h.multiplicity == 2 and h.codim == 1
    assert h.multiplicity == h.codim + 1  # minimal multiplicity


def test_hilbert_matches_brute_enumeration(ci2, crv26, mm1, nk3, fitz3):
    for ring in (ci2, crv26, mm1, nk3, fitz3):
        h = hilbert_series(ring, 8)
        gens = [poly_to_dict(g) for g in ring.defining_generators]
        for d in range(9):
            assert h.coefficient(d) == quotient_piece_dim(gens, ring.nvars, d, ring.p)


def test_piece_basis_counts_match_hilbert(ci2, crv26, fitz3):
    for ring in (ci2, crv26, fitz3):
        h = hilbert_series(ring, 8)
        for d in range(9):
            assert len(ring.piece(d)) == h.coefficient(d)


def test_hilbert_requires_positive_degree(ci2):
    with pytest.raises(ValueError):
        hilbert_series(ci2, 0)


_coeff_lists = st.lists(st.integers(-9, 9), max_size=8)


@settings(max_examples=200, deadline=None)
@given(_coeff_lists, _coeff_lists, st.sampled_from([1, -1]), st.integers(0, 12))
@example([], [], 1, 0)
def test_series_divide_inverts_the_product(a, tail, unit, d):
    b = [unit, *tail]
    assert _poly_mul(_series_divide(a, b, d), b)[: d + 1] == (a + [0] * (d + 1))[: d + 1]


def test_series_divide_needs_a_unit_constant_term():
    for den in ([0, 1], [2, 1], [-3]):
        with pytest.raises(ValueError, match="unit constant term"):
            _series_divide([1], den, 3)


@given(st.integers(0, 12), st.integers(0, 12))
def test_powers_of_one_minus_t_multiply(j, k):
    assert _one_minus_t_power(0) == [1] and _one_minus_t_power(1) == [1, -1]
    assert _poly_mul(_one_minus_t_power(j), _one_minus_t_power(k)) == _one_minus_t_power(j + k)


@settings(max_examples=300, deadline=None)
@given(
    _coeff_lists, st.integers(0, 4), st.integers(-4, 4), st.integers(0, 5), st.integers(1, 9)
)
@example([1, 0, -1], 0, -4, 0, 1)
@example([], 0, 2, 0, 3)
@example([1], 0, 6, 2, 3)
@example([0, 2], 5, -2, 5, 9)
def test_from_rational_matches_the_binomial_expansion(base, factors, offset, n, d):
    # the numerator base * (1-t)^factors, so that whole (1-t) factors cancel,
    # even more of them than the denominator has
    num = list(base)
    for _ in range(factors):
        num = [x - y for x, y in zip(num + [0], [0] + num)]
    got = HilbertSeries.from_rational(num, offset, n, d).to_json()
    assert got == rational_hilbert_series(num, offset, n, d)


def test_free_module(ci2):
    m = free_module(ci2, (0,))
    assert not m.columns and m.rank == 1
    assert m.dim_piece(1) == 2


def test_cyclic_module(ci2):
    x, y = ci2.poly_ring.gens()
    m = cyclic_module(ci2, [x])
    assert m.rank == 1 and len(m.columns) == 1
    h = m.hilbert_series(6)
    assert list(h.expansion[:3]) == [1, 1, 0]  # R/(x): 1, y, 0, ...


def test_module_piece_basis_matches_hilbert(ci2):
    x, y = ci2.poly_ring.gens()
    m = make_module(ci2, (0, 1), [[x, ci2.poly_ring.zero()], [y * x, y]])
    h = m.hilbert_series(8)
    for d in range(9):
        assert len(m.piece_basis(d)) == h.coefficient(d)


def test_unit_entry_pruning_shrinks_rank(ci2):
    x, y = ci2.poly_ring.gens()
    one = ci2.poly_ring.one()
    zero = ci2.poly_ring.zero()
    # g1 = x*g0 via a unit entry, then y*g1 = 0; pruning leaves R/(xy)
    m = make_module(ci2, (0, 1), [[x, -one], [zero, y]])
    assert m.rank == 1
    # the cokernel Hilbert function is unchanged, checked degree-wise
    direct = make_module(ci2, (0,), [[x * y]])
    h1, h2 = m.hilbert_series(6), direct.hilbert_series(6)
    assert list(h1.expansion) == list(h2.expansion)
    assert list(h1.expansion[:3]) == [1, 2, 0]


def test_normalization_drops_zero_columns(ci2):
    x, y = ci2.poly_ring.gens()
    m = make_module(ci2, (0,), [[x**2], [x]])  # x^2 = 0 in ci2
    assert len(m.columns) == 1


def test_make_module_rejects_inhomogeneous_column(ci2):
    x, y = ci2.poly_ring.gens()
    with pytest.raises(ValueError, match="inhomogeneous"):
        make_module(ci2, (0, 0), [[x, x * y]])


def test_residue_field(ci2):
    k = residue_field_module(ci2)
    assert k.rank == 1 and len(k.columns) == 2
    assert k.dim_piece(0) == 1 and k.dim_piece(1) == 0


def test_quotient_by_linear_forms(ci2):
    elim = quotient_by_linear_forms(ci2, [(1, 0)])
    assert elim.target.names == ("y",)
    assert [str(g) for g in elim.target.gb.generators] == ["y^2"]
    x, y = ci2.poly_ring.gens()
    assert str(elim.substitute(x + y)) == "y"
    # eliminating everything leaves the field
    elim2 = quotient_by_linear_forms(ci2, [(1, 0), (0, 1)])
    assert elim2.target.nvars == 0
    assert elim2.target.dim_piece(0) == 1 and elim2.target.dim_piece(1) == 0


def test_linear_elimination_is_cached_by_span(fitz3):
    # one span given in different bases (scaled, mixed, with a dependent and
    # a zero row) gets one object; another span gets another
    p = fitz3.p
    elim = quotient_by_linear_forms(fitz3, [(1, 0, 0), (0, 1, 0)])
    for rows in (
        [(0, 1, 0), (1, 0, 0)],
        [(2, 0, 0), (1, 1, 0)],
        [(1, 1, 0), (1, 2, 0), (2, 2, 0), (0, 0, 0)],
        [(p - 1, 0, 0), (0, p + 1, 0)],
    ):
        assert quotient_by_linear_forms(fitz3, rows) is elim, rows
    assert quotient_by_linear_forms(fitz3, [(1, 0, 1), (0, 1, 0)]) is not elim
    assert quotient_by_linear_forms(fitz3, []) is quotient_by_linear_forms(fitz3, [(0, 0, 0)])
    assert elim.target.names == ("z",)


def test_restrict_module_along_elimination(ci2):
    x, y = ci2.poly_ring.gens()
    m = make_module(ci2, (0,), [[x]])
    elim = quotient_by_linear_forms(ci2, [(1, 0)])
    restricted = restrict_module_to_quotient(m, elim)
    assert restricted.ring is elim.target
    assert not restricted.columns  # R/(x) is free of rank 1 over k[y]/(y^2)


def test_scaled_submodule_is_maximal_ideal(ci2):
    k = residue_field_module(ci2)
    x, y = ci2.poly_ring.gens()
    mk = scaled_submodule(k, [x, y])
    # m * k = 0
    assert mk.is_zero()
    free = free_module(ci2, (0,))
    m_ideal = scaled_submodule(free, [x, y])
    assert m_ideal.generation_degrees() == (1,)
    h = m_ideal.hilbert_series(6)
    # the maximal ideal of ci2 has dims 0, 2, 1, 0, ...
    assert list(h.expansion[:4]) == [0, 2, 1, 0]


def test_annihilated_by(ci2):
    x, y = ci2.poly_ring.gens()
    m = cyclic_module(ci2, [x])
    assert m.annihilated_by(x)
    assert not m.annihilated_by(y)


def test_module_nf_rejects_foreign_polynomials_and_lengths(ci2):
    # a vector of F_0 has `rank` entries, each in the ring's polynomial ring,
    # as for `QuotientRing.reduce` and the columns of `make_module`
    x, y = ci2.poly_ring.gens()
    _s, (a, _b) = polynomial_ring(5, ("a", "b"))
    _t, (u, _v) = polynomial_ring(7, ("u", "v"))
    cyclic = cyclic_module(ci2, [x])
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        cyclic.annihilated_by(a)
    with pytest.raises(ValueError, match="modulus mismatch"):
        cyclic.annihilated_by(u)
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        cyclic.module_nf([a])
    with pytest.raises(ValueError, match="ambient ring mismatch"):
        free_module(ci2, ()).annihilated_by(a)
    module = make_module(ci2, [0, 0], [[x, y]])
    for v in ([x], [x, y, x], []):
        with pytest.raises(ValueError, match=f"vector has {len(v)} entries, expected 2"):
            module.module_nf(v)
    zero = ci2.poly_ring.zero()
    assert module.module_nf([x, y]) == (zero, zero)
    assert module.module_nf([x, zero]) != (zero, zero)


def test_module_nf_builds_its_divisors_once(ci2, monkeypatch):
    x, y = ci2.poly_ring.gens()
    module = make_module(ci2, [0, 0], [[x, y]])
    calls = []
    leading_term = groebner._melt_lt
    monkeypatch.setattr(
        groebner, "_melt_lt", lambda elt, key: calls.append(elt) or leading_term(elt, key)
    )
    first = module.module_nf([x * y, y])
    built = len(calls)
    assert built
    assert module.module_nf([x * y, y]) == first
    module.module_nf([x, x * y])
    assert module.annihilated_by(x * y)
    assert len(calls) == built


# ------------------------------------------------ graded tables of a ring
#
# The references below build each table monomial by monomial: the standard
# basis by a divisibility test of every monomial against every leading
# monomial, the variable blocks from the normal form of every product, and
# the first-variable lifts from the exponents of each product x_v * w.


def _reference_piece(ring, d):
    lts = ring.gb.leading_monomials()
    return tuple(
        m
        for m in ring.poly_ring.monomials_of_degree(d)
        if not any(mono_divides(lt, m) for lt in lts)
    )


def _reference_var_multiplication(ring, var, d):
    src = _reference_piece(ring, d)
    tgt_idx = {m: i for i, m in enumerate(_reference_piece(ring, d + 1))}
    mat = np.zeros((len(tgt_idx), len(src)), dtype=np.int64)
    xv = tuple(1 if i == var else 0 for i in range(ring.nvars))
    for j, m in enumerate(src):
        for mm, c in ring.monomial_nf(mono_mul(m, xv)).terms:
            mat[tgt_idx[mm], j] = c
    return mat


def _reference_lifts(ring, e):
    """For each basis monomial w of R_{e-1} and variable x_v: the index of
    x_v * w in the basis of R_e when it is standard with first variable x_v,
    else -1."""
    index = {m: i for i, m in enumerate(_reference_piece(ring, e))}
    out = []
    for w in _reference_piece(ring, e - 1):
        row = []
        for v in range(ring.nvars):
            u = w[:v] + (w[v] + 1,) + w[v + 1 :]
            row.append(index.get(u, -1) if not any(w[:v]) else -1)
        out.append(row)
    return out


def _action_entries(action):
    """The entries (v, k, row, value) of a variable action, in the order of
    its `rows` and `values`, read back from its `start` and `count`."""
    start, count, rows, values, _lifts = action
    dim, n = start.shape
    return [
        [v, k, int(rows[at]), int(values[at])]
        for v in range(n)
        for k in range(dim)
        for at in range(start[k, v], start[k, v] + count[k, v])
    ]


def _sparse_form(s, rng, degree, terms):
    monos = monomials_of_degree(s.nvars, degree)
    picked = rng.sample(monos, min(terms, len(monos)))
    return s.from_dict({m: rng.randrange(1, s.p) for m in picked})


def _table_ring(kind, order, p, rng):
    """A ring of the given kind: no relations, monomial relations, sparse
    quadrics, sparse quadrics and cubics (some of them monomials), or
    (xy, y^2 - xz), whose Groebner basis has a cubic element in both orders."""
    n = 3 if kind == "cubic-gb" else rng.randint(1, 4)
    s, xs = polynomial_ring(p, "xyzw"[:n], order)
    if kind == "free":
        gens = []
    elif kind == "monomial":
        gens = [_sparse_form(s, rng, rng.choice((2, 3)), 1) for _ in range(rng.randint(1, 4))]
    elif kind == "quadrics":
        gens = [_sparse_form(s, rng, 2, rng.randint(2, 4)) for _ in range(rng.randint(1, n))]
    elif kind == "mixed":
        gens = [
            _sparse_form(s, rng, rng.choice((2, 3)), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
    else:
        x, y, z = xs
        gens = [x * y, y**2 - x * z]
    return make_ring(s, gens)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["free", "monomial", "quadrics", "mixed", "cubic-gb"]),
    st.sampled_from(["degrevlex", "lex"]),
    st.sampled_from([2, 3, 32003, 2**31 - 1]),
    st.integers(0, 2**32),
)
def test_graded_tables_match_per_monomial_references(kind, order, p, seed):
    rng = random.Random(seed)
    ring = _table_ring(kind, order, p, rng)
    if kind == "cubic-gb":
        assert max(g.degree() for g in ring.gb.generators) == 3
    for d in range(-1, 8):
        assert ring.piece(d) == _reference_piece(ring, d), d
    for d in range(7):
        blocks = [_reference_var_multiplication(ring, v, d) for v in range(ring.nvars)]
        high = ring.dim_piece(d + 1)
        for v, block in enumerate(blocks):
            got = ring.var_multiplication_stack(d)[v * high : (v + 1) * high]
            assert got.dtype == np.int64 and np.array_equal(got, block), (v, d)
        want = np.concatenate(blocks) if blocks else np.zeros((0, ring.dim_piece(d)), np.int64)
        assert np.array_equal(ring.var_multiplication_stack(d), want), d
        # the action: every nonzero entry (v, k, row, value), sorted by v, k, row
        entries = [
            [v, k, i, block[i, k]] for v, block in enumerate(blocks) for k, i in zip(*np.nonzero(block.T))
        ]
        start, count, rows, values, lifts = ring.variable_action(d)
        assert start.shape == count.shape == lifts.shape == (ring.dim_piece(d), ring.nvars), d
        assert all(a.dtype == np.int64 for a in (start, count, rows, values, lifts)), d
        assert _action_entries(ring.variable_action(d)) == entries, d
        # laid out by v, then k: each start is the count of the entries before
        flat = count.T.ravel()
        assert start.T.ravel().tolist() == (flat.cumsum() - flat).tolist(), d
        assert len(rows) == len(values) == flat.sum(), d
        # the same entries grouped by (k, v), rows increasing
        for v, block in enumerate(blocks):
            for k in range(ring.dim_piece(d)):
                at = slice(start[k, v], start[k, v] + count[k, v])
                i = np.flatnonzero(block[:, k])
                assert rows[at].tolist() == i.tolist(), (v, k, d)
                assert values[at].tolist() == block[i, k].tolist(), (v, k, d)
        assert lifts.tolist() == _reference_lifts(ring, d + 1), d
    # the identity of the free module with each of these shifts, built from
    # the tables degree by degree by `_next_degree_map`, which leaves the
    # generator columns of degree d zero
    for shifts in ((0,), (0, 0, 1), (1, 1, 3), (0, 2, 2, 2)):
        prev = Nonzeros((0, 0), _EMPTY, _EMPTY, _EMPTY)
        for d in range(7):
            dim = sum(ring.dim_piece(d - s) for s in shifts)
            got = _next_degree_map(ring, shifts, shifts, prev, d)
            want = np.eye(dim, dtype=np.int64)
            gens = np.cumsum([0] + [ring.dim_piece(d - s) for s in shifts])[:-1]
            want[:, gens[np.array(shifts) == d]] = 0
            assert got.shape == (dim, dim) and np.array_equal(got.toarray(), want), (shifts, d)
            eye = np.arange(dim)
            prev = Nonzeros((dim, dim), eye, eye, np.ones(dim, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_variable_action_at_its_edges(order, p):
    s, (x, y, z) = polynomial_ring(p, "xyz", order)
    # R_1 = <x, y, z> and R_2 = 0: at e = 0 every x_v lifts the constant
    # monomial to x_v; at e = 1 nothing is hit and nothing lifts
    ring = make_ring(s, [a * b for a, b in ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z))])
    start, count, rows, values, lifts = ring.variable_action(0)
    assert lifts.tolist() == [[0, 1, 2]] and count.tolist() == [[1, 1, 1]]
    assert start.tolist() == [[0, 1, 2]] and rows.tolist() == [0, 1, 2] and values.tolist() == [1, 1, 1]
    start, count, rows, values, lifts = ring.variable_action(1)
    assert count.shape == lifts.shape == (3, 3)
    assert not count.any() and (lifts == -1).all() and len(rows) == len(values) == 0
    assert ring.var_multiplication_stack(1).shape == (0, 3)
    # R_2 = 0: no monomial to act on
    for a in ring.variable_action(2):
        assert a.dtype == np.int64 and a.shape in ((0, 3), (0,)), a.shape
    assert ring.var_multiplication_stack(2).shape == (0, 0)
    # x^2 = y^2 + z^2: x_0 sends x to two entries, at increasing rows; every
    # other product of degree 2 is standard
    ring = make_ring(s, [x * x - y * y - z * z])
    start, count, rows, values, lifts = ring.variable_action(1)
    index = ring.piece_index(2)
    at = slice(start[0, 0], start[0, 0] + count[0, 0])
    assert count[0, 0] == 2 and count.sum() == 10
    assert rows[at].tolist() == sorted([index[(0, 2, 0)], index[(0, 0, 2)]]) and values[at].tolist() == [1, 1]
    # each of the 5 standard monomials of degree 2 once, from u / x_v with
    # x_v its first variable
    assert lifts[0].tolist() == [-1, -1, -1]
    assert lifts[1].tolist() == [index[(1, 1, 0)], index[(0, 2, 0)], -1]
    assert lifts[2].tolist() == [index[(1, 0, 1)], index[(0, 1, 1)], index[(0, 0, 2)]]
    assert ring.var_multiplication_stack(1)[rows[at], 0].tolist() == [1, 1]


def _no_normal_forms(*_args):
    raise AssertionError("a table took a normal form by division")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["free", "monomial", "quadrics", "mixed", "cubic-gb"]),
    st.sampled_from(["degrevlex", "lex"]),
    st.sampled_from([2, 3, 32003, 2**31 - 1]),
    st.integers(0, 2**32),
)
def test_variable_action_takes_no_normal_form(kind, order, p, seed):
    # the tables are read off the lower tables and the reduced basis alone;
    # the degrees are asked for from the top, so the lower ones are built
    # on the way
    rng = random.Random(seed)
    ring = _table_ring(kind, order, p, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuotientRing, "monomial_nf", _no_normal_forms)
        mp.setattr(QuotientRing, "reduce", _no_normal_forms)
        tables = [ring.variable_action(e) for e in range(6, -1, -1)][::-1]
    for e, (*_entries, values, _lifts) in enumerate(tables):
        assert 0 < values.min(initial=1) and values.max(initial=0) < p, e
        high = ring.dim_piece(e + 1)
        for v in range(ring.nvars):
            block = _reference_var_multiplication(ring, v, e)
            got = ring.var_multiplication_stack(e)[v * high : (v + 1) * high]
            assert np.array_equal(got, block), (v, e)


def _graded_columns(ring, target, source, rng):
    """Random graded columns of degrees `source` in the free module with
    shifts `target`, their components reduced; some components and some
    whole columns are zero."""
    s = ring.poly_ring
    columns = []
    for d in source:
        zero = rng.random() < 0.2
        comps = tuple(
            s.zero() if zero or rng.random() < 0.3
            else s.from_dict({m: rng.randrange(ring.p) for m in ring.piece(d - t)})
            for t in target
        )
        columns.append(FreeModuleVector(comps, target))
    return columns


def _as_nonzeros(a):
    """The array as a `Nonzeros`, sorted by column, then row."""
    cols, rows = np.nonzero(a.T)
    return Nonzeros(a.shape, rows, cols, a[rows, cols])


_SHIFTS = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["free", "monomial", "quadrics", "mixed", "cubic-gb"]),
    st.sampled_from(["degrevlex", "lex"]),
    st.sampled_from([2, 3, 32003, 2**31 - 1]),
    _SHIFTS,
    _SHIFTS.map(sorted).map(tuple),
    st.integers(0, 2**32),
)
@example("cubic-gb", "degrevlex", 32003, (1, 0, 2), (1, 1, 2), 0)
@example("monomial", "lex", 2**31 - 1, (2, 2, 0, 2), (0, 0, 3), 1)
def test_next_degree_map_matches_dense_reference(kind, order, p, target, source, seed):
    # every degree from below the lowest shift, where the pieces and so
    # the maps have no rows or no columns, to past the highest; target
    # shifts unsorted and repeated, blocks whose pieces vanish at d - 1
    # (a shift of d) or at d (R_{d-t} = 0 for a nonzero R_{d-1-t})
    rng = random.Random(seed)
    ring = _table_ring(kind, order, p, rng)
    columns = _graded_columns(ring, target, source, rng)
    for d in range(min(target + source), max(target + source) + 5):
        prev = _as_nonzeros(_reference_degree_map(ring, target, source, columns, d - 1))
        got = _next_degree_map(ring, target, source, prev, d)
        want = _reference_degree_map(ring, target, source, columns, d)
        # the generator columns (j, 1) of degree d are left zero
        offsets = np.cumsum([0] + [ring.dim_piece(d - s) for s in source])[:-1]
        want[:, offsets[np.array(source) == d]] = 0
        want = _as_nonzeros(want)
        assert got.shape == want.shape, d
        for a, b in ((got.rows, want.rows), (got.cols, want.cols), (got.values, want.values)):
            assert a.dtype == np.int64 and a.tolist() == b.tolist(), (target, source, d)


# ------------------------------------------------ graded pieces of a module
#
# The references read the leading monomials of the presentation's Groebner
# basis at each position: the standard module monomials by a `mono_divides`
# filter, and the Hilbert numerator as the sum of the shifted numerators of
# the positions.


def _module_leading(module):
    key = top_order_key(module.shifts, module.ring.order)
    lts = [[] for _ in module.shifts]
    for elt in module._presentation_basis:
        (pos, m), _c = _melt_lt(elt, key)
        lts[pos].append(m)
    return lts


def _reference_module_piece(module, d, lts):
    monos = module.ring.poly_ring.monomials_of_degree
    return tuple(
        (pos, m)
        for pos, s in enumerate(module.shifts)
        for m in monos(d - s)
        if not any(mono_divides(lt, m) for lt in lts[pos])
    )


def _reference_module_numerator(module, lts):
    base = min(module.shifts, default=0)
    total = []
    for pos, s in enumerate(module.shifts):
        num = [0] * (s - base) + _monomial_quotient_numerator(lts[pos], module.ring.nvars)
        total = [sum(c) for c in zip_longest(total, num, fillvalue=0)]
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


def _random_element(ring, rng, d):
    """A random element of R_d: random coefficients on its standard basis."""
    return ring.poly_ring.from_dict({m: rng.randrange(ring.p) for m in ring.piece(d)})


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["free", "monomial", "quadrics", "mixed", "cubic-gb"]),
    st.sampled_from(["degrevlex", "lex"]),
    st.sampled_from([2, 3, 32003, 2**31 - 1]),
    st.integers(0, 2**32),
)
def test_module_pieces_match_per_position_references(kind, order, p, seed):
    rng = random.Random(seed)
    ring = _table_ring(kind, order, p, rng)
    shifts = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
    columns = []
    for _ in range(rng.randint(1, 3)):
        top = rng.randint(max(shifts) + 1, max(shifts) + 2)
        columns.append([_random_element(ring, rng, top - s) for s in shifts])
    # a linear form that kills one generator: it kills the module only when
    # it kills every other one too
    killer, at = _random_element(ring, rng, 1), rng.randrange(len(shifts))
    columns.append([killer if j == at else ring.poly_ring.zero() for j in range(len(shifts))])
    module = make_module(ring, shifts, columns)
    lts = _module_leading(module)
    for d in range(-1, 7):
        assert module.piece_basis(d) == _reference_module_piece(module, d, lts), d
    h = module.hilbert_series(6)
    assert h.numerator == _reference_module_numerator(module, lts)
    assert list(h.expansion) == [len(module.piece_basis(d)) for d in range(7)]
    forms = [ring.poly_ring.zero(), killer, *ring.poly_ring.gens(), _random_element(ring, rng, 1)]
    for f in forms + list(ring.gb.generators):
        want = True
        for j in range(module.rank):
            comps = [ring.poly_ring.zero()] * module.rank
            comps[j] = f
            want = want and all(c.is_zero() for c in module.module_nf(comps))
        assert module.annihilated_by(f) == want, f
    free = free_module(ring, shifts)
    for d in range(-1, 7):
        want = tuple((j, m) for j, s in enumerate(shifts) for m in ring.piece(d - s))
        assert free.piece_basis(d) == want, d


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["free", "monomial", "quadrics", "mixed", "cubic-gb"]),
    st.sampled_from(["degrevlex", "lex"]),
    st.sampled_from([2, 3, 32003, 2**31 - 1]),
    st.integers(0, 2**32),
)
def test_normal_forms_return_an_input_with_no_divisible_term_itself(kind, order, p, seed):
    # `reduce`, and `normal_form` on a list, equal the full division by the
    # first divisor, and set no division up when no leading monomial divides
    # a term: then they return the object they were given
    rng = random.Random(seed)
    ring = _table_ring(kind, order, p, rng)
    s = ring.poly_ring
    elements = []
    for d in range(5):
        monos = s.monomials_of_degree(d)
        elements.append(_random_element(ring, rng, d))
        picked = rng.sample(monos, min(3, len(monos)))
        elements.append(s.from_dict({m: rng.randrange(p) for m in picked}))
    elements.append(elements[-1] + elements[2])
    gens = list(ring.defining_generators)
    for basis, divisors in ((ring.gb, ring.gb.generators), (gens, gens)):
        leading = [g.leading_monomial() for g in divisors]
        for f in elements:
            got = ring.reduce(f) if basis is ring.gb else normal_form(f, basis)
            assert got == _reference_normal_form(f, basis), f
            divisible = any(mono_divides(a, m) for m, _c in f.terms for a in leading)
            assert (got is f) == (not divisible), f


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["free", "monomial", "quadrics", "mixed", "cubic-gb"]),
    st.sampled_from([2, 3, 32003, 2**31 - 1]),
    st.integers(0, 2**32),
)
def test_monomial_normal_forms_are_reduce_of_the_product(kind, p, seed):
    rng = random.Random(seed)
    ring = _table_ring(kind, "degrevlex", p, rng)
    s = ring.poly_ring
    for m in s.monomials_of_degree(3):
        want = _reference_normal_form(s.monomial(m), ring.gb)
        assert ring.monomial_nf(m) == ring.reduce(s.monomial(m)) == want, m
    # f need not be reduced
    every_quadric = s.from_dict(dict.fromkeys(s.monomials_of_degree(2), 1))
    for f in (_random_element(ring, rng, 1), every_quadric):
        u = rng.choice(s.monomials_of_degree(rng.randint(0, 2)))
        product = f * s.monomial(u)
        want = _reference_normal_form(product, ring.gb)
        assert ring.mul_monomial_nf(f, u) == ring.reduce(product) == want, (f, u)
