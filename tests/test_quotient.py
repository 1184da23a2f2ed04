"""Quotient rings, graded pieces, Hilbert series, module presentations."""

import pytest

from koszulkit.arith import polynomial_ring
from koszulkit.quotient import (
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
)
from oracles import poly_to_dict, quotient_piece_dim


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
