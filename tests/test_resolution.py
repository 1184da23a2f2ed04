"""Resolutions, Betti tables, regularity, linear parts and homology."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from koszulkit.arith import polynomial_ring
from koszulkit.groebner import (
    FreeModuleVector,
    _candidate_rows,
    _generator_stage,
    coords_of_vector,
    minimal_module_generators,
    normal_form,
    shift_runs,
    variable_rows,
    vector_from_coords,
)
from koszulkit.quotient import (
    cyclic_module,
    free_module,
    make_module,
    make_ring,
    residue_field_module,
)
import koszulkit.resolution as resolution_mod
from koszulkit.koszul import koszul_verdict
from koszulkit.linalg import Echelon, matmul_mod, nullspace, rank
from koszulkit.resolution import (
    _degree_maps,
    betti_table,
    homology_dims,
    linear_part,
    regularity_verdict,
    resolve,
)
from koszulkit.corpus import random_module
from oracles import monomials_of_degree, poly_to_dict, quotient_piece_dim


def test_nk3_periodic_shifts(nk3):
    k = residue_field_module(nk3)
    res = resolve(k, 5, 8)
    assert res.free_shifts == [(0,), (1,), (3,), (4,), (6,), (7,)]
    t = betti_table(res)
    assert dict(t.entries) == {
        (0, 0): 1, (1, 1): 1, (2, 3): 1, (3, 4): 1, (4, 6): 1, (5, 7): 1
    }


def test_ci2_diagonal(ci2):
    k = residue_field_module(ci2)
    res = resolve(k, 4, 8)
    t = betti_table(res)
    # frozen from the coefficients of 1/(1-t)^2
    assert [t.total(i) for i in range(5)] == [1, 2, 3, 4, 5]
    assert all(i == j for (i, j) in t.entries)


def test_free_module_resolution(ci2):
    m = free_module(ci2, (0, 2))
    res = resolve(m, 4, 8)
    assert all(not s for s in res.steps)
    t = betti_table(res)
    assert dict(t.entries) == {(0, 0): 1, (0, 2): 1}
    v = regularity_verdict(t)
    assert v.kind == "Exact" and v.value == 2


def test_zero_module_resolution(ci2):
    x, y = ci2.poly_ring.gens()
    z = make_module(ci2, (0,), [[ci2.poly_ring.one()]])
    assert z.is_zero()
    res = resolve(z, 3, 5)
    t = betti_table(res)
    assert t.is_empty()
    v = regularity_verdict(t)
    assert v.kind == "Exact" and v.value is None


def test_bounds_validation(ci2):
    k = residue_field_module(ci2)
    with pytest.raises(ValueError):
        resolve(k, 0, 8)


def test_composites_are_zero(ci2, crv26):
    for ring in (ci2, crv26):
        k = residue_field_module(ring)
        res = resolve(k, 4, 7)
        for i in range(2, len(res.steps) + 1):
            cols = res.differential(i)
            prev = res.differential(i - 1)
            for col in cols:
                # evaluate sum_j col_j * prev_j componentwise, reduce
                acc = [ring.poly_ring.zero()] * len(res.free_shifts[i - 2])
                for a, w in zip(col.components, prev):
                    for r, entry in enumerate(w.components):
                        acc[r] = acc[r] + a * entry
                assert all(ring.is_zero(e) for e in acc)


def test_minimality_no_constant_entries(ci2, fitz3):
    for ring, seed in ((ci2, 3), (fitz3, 4)):
        m = random_module(ring, 2, 2, seed)
        res = resolve(m, 4, 7)
        for i in range(1, len(res.steps) + 1):
            for col in res.differential(i):
                for comp in col.components:
                    assert comp.constant_coefficient() == 0


def test_exactness_audit(ci2, nk3, crv26):
    for ring in (ci2, nk3, crv26):
        k = residue_field_module(ring)
        res = resolve(k, 4, 7)
        for i in range(1, 4):
            for d in range(0, 8):
                assert homology_dims(res, i, d) == 0


def test_h0_equals_module_dims(ci2):
    x, y = ci2.poly_ring.gens()
    m = cyclic_module(ci2, [x])
    res = resolve(m, 3, 6)
    h = m.hilbert_series(6)
    for d in range(7):
        assert homology_dims(res, 0, d) == h.coefficient(d)


def test_euler_characteristic(ci2, crv26):
    # sum_i (-1)^i H_{F_i} = H_M in every trusted degree
    x, y = ci2.poly_ring.gens()
    cases = [
        (random_module(ci2, 2, 2, 11), 6),
        (random_module(crv26, 2, 2, 12), 6),
        # generators in degree 1 over ci2: the pieces of F_i vanish from
        # degree shift + 3, so the sieve and the maps meet empty blocks
        (make_module(ci2, (1, 1), [[x, y]]), 5),
    ]
    for m, i_max in cases:
        ring = m.ring
        d_max = 7
        res = resolve(m, i_max, d_max)
        hm = m.hilbert_series(d_max)
        hr = ring.hilbert_series(d_max)
        for d in range(d_max + 1):
            acc = 0
            for i, shifts in enumerate(res.free_shifts):
                for s in shifts:
                    if d - s >= 0:
                        acc += (-1) ** i * hr.coefficient(d - s)
            # the truncation at i_max contributes nothing in degrees where the
            # resolution has settled; restrict to degrees below the last step
            if res.free_shifts[-1] and d < min(res.free_shifts[-1]):
                assert acc == hm.coefficient(d)


def test_largest_modulus_resolution_is_exact():
    # five dense quadrics in k[a,b,c,d] at p = 2^31 - 1: int64 sums of
    # products near p^2 wrap here unless the product is done exactly
    p = 2147483647
    rng = random.Random("overflow-0")
    s, _ = polynomial_ring(p, "abcd")
    quadrics = [
        s.from_dict({m: rng.randrange(1, p) for m in monomials_of_degree(4, 2)})
        for _ in range(5)
    ]
    ring = make_ring(s, quadrics)
    res = resolve(residue_field_module(ring), 5, 5)
    for i in range(2, len(res.steps) + 1):
        for col in res.differential(i):
            acc = [s.zero()] * len(res.free_shifts[i - 2])
            for a, w in zip(col.components, res.differential(i - 1)):
                for r, entry in enumerate(w.components):
                    acc[r] = acc[r] + a * entry
            assert all(ring.is_zero(e) for e in acc)
    # sum_i (-1)^i H_{F_i} = H_k; F_i starts in degree i, so degrees <= 4
    # are complete with i_max = 5
    gens = [poly_to_dict(q) for q in quadrics]
    h_ring = [quotient_piece_dim(gens, 4, d, p) for d in range(5)]
    for d in range(5):
        euler = sum(
            (-1) ** i * h_ring[d - sh]
            for i, shifts in enumerate(res.free_shifts)
            for sh in shifts
            if sh <= d
        )
        assert euler == (1 if d == 0 else 0)


def _reference_degree_map(ring, target_shifts, source_shifts, columns, d):
    """Degree-d map built one (column, monomial) pair at a time from normal forms."""
    blocks = [
        coords_of_vector(
            ring, target_shifts, [ring.mul_monomial_nf(c, u) for c in col.components], d
        )
        for col, s in zip(columns, source_shifts)
        for u in ring.piece(d - s)
    ]
    if not blocks:
        tgt_dim = sum(ring.dim_piece(d - t) for t in target_shifts)
        return np.zeros((tgt_dim, 0), dtype=np.int64)
    return np.stack(blocks, axis=1)


def _degree_map(ring, target_shifts, source_shifts, rows, d):
    """The degree-d matrix of `_degree_maps` (no columns below the lowest
    source shift)."""
    mat = np.zeros((sum(ring.dim_piece(d - t) for t in target_shifts), 0), dtype=np.int64)
    for _d, mat in _degree_maps(ring, target_shifts, source_shifts, rows, d):
        pass
    return mat


_MAP_RINGS = {
    "ci2": ("xy", lambda x, y: [x**2, y**2]),
    "crv26": ("xyz", lambda x, y, z: [x**2, x * y, y * z, z**2]),
    "fitz3": ("xyz", lambda x, y, z: [x**2, y**2, z**2, x * y]),
    "ring4": ("abcd", lambda a, b, c, d: [a**2, b**2, c * d, a * c + b * d]),
    "5-cycle": ("abcde", lambda a, b, c, d, e: [a * b, b * c, c * d, d * e, e * a]),
    # x*y and x*z have one normal form, so x times R_e is no copy for e >= 1
    "xy-xz": ("xyz", lambda x, y, z: [x * y - x * z]),
}


def _map_ring(name, p, rng):
    if name == "quadrics":
        n = rng.choice((3, 4))
        s, _ = polynomial_ring(p, "abcd"[:n])
        quadrics = [
            s.from_dict({m: rng.randrange(p) for m in monomials_of_degree(n, 2)})
            for _ in range(rng.randint(1, n))
        ]
        return make_ring(s, quadrics)
    names, gens = _MAP_RINGS[name]
    s, xs = polynomial_ring(p, names)
    return make_ring(s, gens(*xs))


def _random_columns(ring, rng):
    """Graded columns between free modules with mixed shifts; some are zero."""
    target = tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
    source = tuple(rng.randint(min(target), max(target) + 2) for _ in range(rng.randint(1, 4)))
    columns = []
    for s in source:
        comps = []
        for t in target:
            keep = rng.random() < 0.8
            terms = {m: rng.randrange(ring.p) for m in ring.piece(s - t)} if keep else {}
            comps.append(ring.poly_ring.from_dict(terms))
        columns.append(FreeModuleVector(tuple(comps), target))
    return target, source, columns


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_MAP_RINGS) + ["quadrics"]),
    st.sampled_from([2, 3, 32003, 2147483647]),
    st.integers(0, 2**32),
)
def test_degree_map_matches_per_monomial_reference(ring_name, p, seed):
    rng = random.Random(seed)
    ring = _map_ring(ring_name, p, rng)
    d_max = 4
    # random maps, and the steps of a resolution and of its linear part, whose
    # quadric entries leave zero columns
    cases = [_random_columns(ring, rng)]
    res = resolve(random_module(ring, rng.randint(1, 2), 2, seed), 3, d_max)
    for cx in (res, linear_part(res)):
        for i in range(1, len(cx.steps) + 1):
            if cx.differential(i):
                cases.append((cx.free_shifts[i - 1], cx.free_shifts[i], cx.differential(i)))
    for target, source, columns in cases:
        rows = [coords_of_vector(ring, target, c.components, s) for c, s in zip(columns, source)]
        maps = dict(_degree_maps(ring, target, source, rows, d_max))
        assert sorted(maps) == list(range(min(source), d_max + 1))
        for d in range(min(source) - 1, d_max + 1):
            want = _reference_degree_map(ring, target, source, columns, d)
            got = _degree_map(ring, target, source, rows, d)
            assert got.shape == want.shape and np.array_equal(got, want), (target, source, d)
            if d in maps:
                assert np.array_equal(maps[d], want)


@pytest.mark.parametrize("p", [2, 3, 32003, 2147483647])
def test_colliding_products_are_added_not_copied(p):
    # Modulo x*y - x*z, x*y and x*z both have the normal form x*z with
    # coefficient 1: multiplication by x from R_1 sends two standard monomials
    # to one, so copying columns would keep one of the two entries.
    rng = random.Random(p)
    ring = _map_ring("xy-xz", p, rng)
    x_times = ring.var_multiplication(0, 1)
    assert sorted(x_times.sum(axis=1).tolist()) == [0, 0, 0, 1, 2]
    assert set(x_times.ravel().tolist()) == {0, 1}
    assert ring.var_copies(0, 1) is None
    assert ring.var_copies(0, 0) is not None and ring.var_copies(1, 1) is not None
    np_rng = np.random.default_rng(p)
    for shifts in ((0,), (0, 0, 1), (1, 0, 2)):
        for e in range(4):
            runs = shift_runs(ring, shifts, e)
            dim = sum(m * low for _s, m, low, _high in runs)
            coords = np_rng.integers(0, p, size=(dim, 4), dtype=np.int64)
            for v in range(3):
                want, row = [], 0
                for t in shifts:
                    piece = coords[row : row + ring.dim_piece(e - t)].astype(object)
                    if len(piece):
                        want.append(ring.var_multiplication(v, e - t).astype(object) @ piece % p)
                    else:
                        want.append(np.zeros((ring.dim_piece(e + 1 - t), 4), dtype=object))
                    row += len(piece)
                got = times_variable(ring, runs, coords, e, v)
                assert got.tolist() == np.concatenate(want).tolist(), (shifts, e, v)
    # the degree maps of a resolution over it, whose x-blocks are products
    # and whose other blocks are copies, against per-monomial normal forms
    res = resolve(random_module(ring, 2, 2, p), 3, 4)
    checked = 0
    for i in range(1, len(res.steps) + 1):
        target, source, columns = res.free_shifts[i - 1], res.free_shifts[i], res.differential(i)
        rows = _stored_rows(res, i)
        for d, mat in _degree_maps(ring, target, source, rows, 4) if rows else ():
            checked += 1
            assert np.array_equal(mat, _reference_degree_map(ring, target, source, columns, d))
    assert checked


def times_variable(ring, runs, coords, d, var):
    """Reference: x_var times the columns of `coords`, degree-d coordinate
    vectors of the free module with the block layout `runs` (`shift_runs` at
    d), as degree-(d+1) coordinate vectors: a row gather for the copy blocks
    of `variable_rows`, one stacked product for each other block."""
    n = coords.shape[1]
    out = np.zeros((sum(m * high for _s, m, _low, high in runs), n), dtype=np.int64)
    source, target, products = variable_rows(ring, runs, d, var)
    out[target] = coords[source]
    for row, prev_row, m, block in products:
        high, low = block.shape
        stack = coords[prev_row : prev_row + m * low].reshape(m, low, n)
        out[row : row + m * high] = matmul_mod(block, stack, ring.p).reshape(m * high, n)
    return out


def nakayama_sieve(ring, shifts, pieces):
    """Reference graded Nakayama sieve, row by row: `pieces` gives (d, rows)
    for consecutive degrees d; a row is kept when it is independent of
    R_1 * U_{d-1} (every x_v times a basis of U_{d-1}, fed to an incremental
    echelon) plus the rows kept before it in degree d. Yields (d, index in
    rows, row) for every kept row."""
    span = None
    for d, rows in pieces:
        runs = shift_runs(ring, shifts, d - 1)
        ech = Echelon(sum(m * high for _s, m, _low, high in runs), ring.p)
        if span is not None:
            for v in range(ring.nvars):
                products = times_variable(ring, runs, span.T, d - 1, v).T
                for row in products[products.any(axis=1)]:
                    ech.add(row)
        for i in range(len(rows)):
            if ech.add(rows[i]):
                yield d, i, np.array(rows[i])
        span = ech.rows


def _stage_inputs(ring, rng, d_max):
    """Shifts with repeats and graded vectors of that free module for the
    generator stage: random columns, then duplicates, scalar multiples,
    products x_v * (earlier column), columns that reduce to zero and columns
    above d_max, shuffled."""
    shifts = tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
    s = ring.poly_ring

    def column(d):
        comps = tuple(
            s.from_dict({m: rng.randrange(ring.p) for m in ring.piece(d - t)})
            if rng.random() < 0.8
            else s.zero()
            for t in shifts
        )
        return FreeModuleVector(comps, shifts)

    vectors = [column(min(shifts) + rng.randint(0, 2)) for _ in range(rng.randint(2, 6))]
    for _ in range(rng.randint(2, 6)):
        v = rng.choice(vectors)
        kind = rng.choice(["duplicate", "scaled", "product", "zero", "above"])
        if kind == "duplicate":
            vectors.append(v)
        elif kind == "scaled":
            c = rng.randrange(1, ring.p)
            vectors.append(FreeModuleVector(tuple(c * f for f in v.components), shifts))
        elif kind == "product":
            x = s.gen(rng.randrange(ring.nvars))
            vectors.append(FreeModuleVector(tuple(x * f for f in v.components), shifts))
        elif kind == "zero":
            k = rng.randrange(len(shifts))
            comps = [s.zero()] * len(shifts)
            comps[k] = rng.choice(ring.gb.generators)
            vectors.append(FreeModuleVector(tuple(comps), shifts))
        else:
            vectors.append(column(d_max + rng.randint(1, 2)))
    rng.shuffle(vectors)
    return shifts, vectors


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_MAP_RINGS)),
    st.sampled_from([2, 3, 32003, 2147483647]),
    st.integers(0, 2**32),
)
def test_generator_stage_matches_reference_sieve(ring_name, p, seed):
    # the stage keeps the rows the row-by-row sieve keeps, in its order, and
    # yields the degree maps of the kept generators up to d_max
    rng = random.Random(seed)
    ring = _map_ring(ring_name, p, rng)
    d_max = 4
    shifts, vectors = _stage_inputs(ring, rng, d_max)
    by_degree = {}
    for v in vectors:
        w = FreeModuleVector(tuple(ring.reduce(c) for c in v.components), shifts)
        if not w.is_zero() and w.internal_degree() <= d_max:
            by_degree.setdefault(w.internal_degree(), []).append(w)
    want = []
    if by_degree:
        pieces = (
            (d, [coords_of_vector(ring, shifts, w.components, d) for w in by_degree.get(d, [])])
            for d in range(min(by_degree), max(by_degree) + 1)
        )
        want = [(d, by_degree[d][i], row) for d, i, row in nakayama_sieve(ring, shifts, pieces)]
    assert minimal_module_generators(ring, shifts, vectors, d_max) == [w for _d, w, _r in want]
    candidates = _candidate_rows(ring, shifts, vectors, d_max)
    assert (not candidates) == (not by_degree)
    step = {}
    yielded = list(_generator_stage(ring, shifts, candidates, d_max, step))
    got = [(d, row) for d, mat in step.items() for row in mat]
    assert [d for d, _row in got] == [d for d, _w, _row in want]
    for (_d, row), (_e, _w, ref) in zip(got, want):
        assert np.array_equal(row, ref)
    kept_shifts = tuple(d for d, _w, _r in want)
    kept = [w for _d, w, _r in want]
    assert [d for d, _mat in yielded] == list(range(min(kept_shifts, default=d_max + 1), d_max + 1))
    for d, mat in yielded:
        assert np.array_equal(mat, _reference_degree_map(ring, shifts, kept_shifts, kept, d)), d


def test_step_one_warnings(ci2):
    # the window is read from the columns' degrees; a column above d_max
    # is dropped, and with none left step 1 is empty
    x, y = ci2.poly_ring.gens()
    dropped = (
        "presentation columns above d_max were dropped; step 1 is "
        "incomplete beyond the degree window"
    )
    too_small = "bounds too small to produce step 1"
    some = make_module(ci2, (0,), [[x], [x * y]])
    res = resolve(some, 2, 1)
    assert res.warnings == [dropped] and res.free_shifts[1] == (1,)
    assert resolve(some, 2, 2).warnings == []
    none = make_module(ci2, (0,), [[x * y]])
    res = resolve(none, 2, 1)
    assert res.warnings == [dropped, too_small] and res.free_shifts == [(0,), (), ()]
    assert resolve(none, 1, 2).warnings == []


def _stored_rows(cx, i):
    return [row for mat in cx.blocks[i - 1].values() for row in mat]


def _reference_syzygy_step(ring, target_shifts, source_shifts, rows, d_max):
    """New minimal syzygies of the columns with coordinate rows `rows`, step by
    step: each degree map's kernel, sieved by `nakayama_sieve` against the
    products R_1 * K_{d-1}. Returns (d, coordinate row) pairs."""
    kernels = (
        (d, nullspace(mat, ring.p))
        for d, mat in _degree_maps(ring, target_shifts, source_shifts, rows, d_max)
    )
    return [(d, row) for d, _i, row in nakayama_sieve(ring, source_shifts, kernels)]


def _assert_steps_match_reference(res):
    """Every step >= 2 of `res`, degree by degree, equals the reference step
    run on the step before it. Returns the number of (step, degree) pairs
    whose kernel is empty."""
    ring, empty = res.ring, 0
    for i in range(2, res.length_computed() + 1):
        prev = _stored_rows(res, i - 1)
        target, source = res.free_shifts[i - 2], res.free_shifts[i - 1]
        want = _reference_syzygy_step(ring, target, source, prev, res.d_max) if prev else []
        got = [(d, row) for d, mat in res.blocks[i - 1].items() for row in mat]
        assert [d for d, _row in got] == [d for d, _row in want], i
        for (d, row), (_d, ref) in zip(got, want):
            assert np.array_equal(row, ref), (i, d)
        if prev:
            maps = _degree_maps(ring, target, source, prev, res.d_max)
            empty += sum(1 for _d, mat in maps if not len(nullspace(mat, ring.p)))
    return empty


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(_MAP_RINGS) + ["quadrics"]),
    st.sampled_from([2, 3, 32003, 2147483647]),
    st.integers(0, 2**32),
)
def test_resolution_steps_match_reference_sieve(ring_name, p, seed):
    # the degree-by-degree stages keep the same rows, in the same order, as
    # the kernel of each degree map sieved step by step
    rng = random.Random(seed)
    ring = _map_ring(ring_name, p, rng)
    for module in (residue_field_module(ring), random_module(ring, rng.randint(1, 2), 2, seed)):
        _assert_steps_match_reference(resolve(module, 4, 5))


def test_resolution_steps_match_reference_with_empty_kernels():
    # generators in degree 1 over k[x,y]/(x^2,y^2): the pieces of F_i vanish
    # from degree shift + 3, so some degree maps have no kernel at all
    for p in (2, 3, 32003, 2147483647):
        ring = _map_ring("ci2", p, random.Random(0))
        x, y = ring.poly_ring.gens()
        for module in (make_module(ring, (1, 1), [[x, y]]), random_module(ring, 2, 2, p)):
            assert _assert_steps_match_reference(resolve(module, 5, 7)) > 0


def _reference_linear_part(res, i):
    """Columns of the linear part of step i, filtered component by component."""
    target = res.free_shifts[i - 1]
    cols = []
    for col, deg in zip(res.differential(i), res.free_shifts[i]):
        comps = []
        for comp, s in zip(col.components, target):
            comps.append(
                comp if (not comp.is_zero() and deg - s == 1) else res.ring.poly_ring.zero()
            )
        cols.append(FreeModuleVector(tuple(comps), col.shifts))
    return cols


def _reference_homology(cx, i, d):
    """dim H_i in degree d from the degree-d maps built for this (i, d) alone."""
    ring = cx.ring

    def map_rank(k):
        rows = _stored_rows(cx, k)
        if not rows:
            return 0
        return rank(_degree_map(ring, cx.free_shifts[k - 1], cx.free_shifts[k], rows, d), ring.p)

    ker = sum(ring.dim_piece(d - s) for s in cx.free_shifts[i])
    if i >= 1:
        ker -= map_rank(i)
    return ker - map_rank(i + 1)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(_MAP_RINGS) + ["quadrics"]),
    st.sampled_from([2, 3, 32003, 2147483647]),
    st.integers(0, 2**32),
)
def test_coordinate_steps_match_columns_linear_part_and_homology(ring_name, p, seed):
    rng = random.Random(seed)
    ring = _map_ring(ring_name, p, rng)
    d_max = 4
    module = residue_field_module(ring) if rng.random() < 0.3 else random_module(
        ring, rng.randint(1, 2), 2, seed
    )
    res = resolve(module, 3, d_max)
    lin = linear_part(res)
    n_steps = res.length_computed()
    for i in range(1, n_steps + 1):
        rows = _stored_rows(res, i)
        cols = res.differential(i)
        assert len(rows) == len(cols) == len(res.free_shifts[i])
        for row, col, d in zip(rows, cols, res.free_shifts[i]):
            assert col.shifts == res.free_shifts[i - 1]
            got = coords_of_vector(ring, res.free_shifts[i - 1], col.components, d)
            assert np.array_equal(got, row)
        assert list(lin.differential(i)) == _reference_linear_part(res, i)
    queries = [(i, d) for i in range(n_steps) for d in range(d_max + 1)]
    for cx in (res, lin):
        rng.shuffle(queries)
        for i, d in queries:
            assert homology_dims(cx, i, d) == _reference_homology(cx, i, d), (i, d)


def _rebuilt_ranks(cx, i):
    """Rank of every degree-d map of step i, from the rebuilt `_degree_maps`, at
    index d - (lowest shift of F_0) for d up to d_max."""
    lo = min(cx.free_shifts[0])
    ranks = np.zeros(cx.d_max + 1 - lo, dtype=np.int64)
    rows = _stored_rows(cx, i)
    if rows:
        target, source = cx.free_shifts[i - 1], cx.free_shifts[i]
        for d, mat in _degree_maps(cx.ring, target, source, rows, cx.d_max):
            ranks[d - lo] = rank(mat, cx.ring.p)
    return ranks


def _assert_recorded_ranks(res):
    """The ranks `resolve` recorded equal those of the rebuilt degree maps; the
    linear part shares the blocks and ranks of exactly the steps whose linear
    part zeroes no nonzero entry. Returns those dropping steps."""
    lin = linear_part(res)
    dropped = _dropped_steps(res, lin)
    for i in range(1, res.length_computed() + 1):
        want = _rebuilt_ranks(res, i)
        if res.i_max >= 2:
            assert np.array_equal(res._ranks[i], want), i
        else:
            assert i not in res._ranks
        assert np.array_equal(res.map_ranks(i), want), i
        if i in dropped or res.i_max < 2:
            assert i not in lin._ranks, i
        else:
            assert lin._ranks[i] is res._ranks[i], i
            assert all(lin.blocks[i - 1][d] is mat for d, mat in res.blocks[i - 1].items())
        assert np.array_equal(lin.map_ranks(i), _rebuilt_ranks(lin, i)), i
    return dropped


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["ci2", "crv26", "fitz3", "quadrics"]),
    st.sampled_from([2, 3, 32003, 2147483647]),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_recorded_ranks_match_rebuilt_maps(ring_name, p, i_max, seed):
    rng = random.Random(seed)
    ring = _map_ring(ring_name, p, rng)
    for module in (residue_field_module(ring), random_module(ring, rng.randint(1, 2), 2, seed)):
        _assert_recorded_ranks(resolve(module, i_max, rng.randint(2, 5)))


def test_recorded_ranks_edge_cases(ci2):
    x, y = ci2.poly_ring.gens()
    k = residue_field_module(ci2)
    # no stage: map 1 is ranked on demand
    _assert_recorded_ranks(resolve(k, 1, 5))
    # empty steps: F_4 and F_5 start above d_max; a free module has no maps
    res = resolve(k, 5, 3)
    assert not res.blocks[3] and not res.blocks[4]
    _assert_recorded_ranks(res)
    res = resolve(free_module(ci2, (0, 2)), 3, 5)
    assert not any(res.blocks)
    _assert_recorded_ranks(res)
    # generators in degree 1: some degree maps have an empty kernel; in
    # degree -1 the ranks start below degree 0
    _assert_recorded_ranks(resolve(make_module(ci2, (1, 1), [[x, y]]), 5, 7))
    res = resolve(make_module(ci2, (-1, -1), [[x, y]]), 3, 4)
    _assert_recorded_ranks(res)
    assert [homology_dims(res, 0, d) for d in range(-2, 2)] == [0, 2, 3, 0]
    # below the lowest shift of F_0 every piece is zero, whatever d_max ranks
    res = resolve(k, 3, 2)
    assert [homology_dims(res, i, -1) for i in range(3)] == [0, 0, 0]
    # k over ring4 at p = 2^31 - 1: steps 3-5 have quadric entries
    ring4 = _map_ring("ring4", 2147483647, random.Random(0))
    assert _assert_recorded_ranks(resolve(residue_field_module(ring4), 5, 6)) == [3, 4, 5]


def _dropped_steps(res, lin):
    """The steps whose linear part zeroes some nonzero entry."""
    return [
        i
        for i in range(1, res.length_computed() + 1)
        if any(
            not np.array_equal(lin.blocks[i - 1][d], mat) for d, mat in res.blocks[i - 1].items()
        )
    ]


def test_resolution_builds_columns_only_on_request(ci2, monkeypatch):
    built, maps, ranked = [], [], []
    real_vector, real_maps = resolution_mod.vector_from_coords, resolution_mod._degree_maps
    real_rank = resolution_mod.rank
    monkeypatch.setattr(
        resolution_mod, "vector_from_coords", lambda *a: built.append(a) or real_vector(*a)
    )
    monkeypatch.setattr(
        resolution_mod, "_degree_maps", lambda *a: maps.append(a) or real_maps(*a)
    )
    monkeypatch.setattr(resolution_mod, "rank", lambda *a: ranked.append(a) or real_rank(*a))
    dropped_any = kept_any = False
    # seed 5: every step of the linear part is the resolution's own; seed 4:
    # the linear part of step 1 drops a quadric entry
    for seed in (5, 4):
        m = random_module(ci2, 2, 2, seed)
        res = resolve(m, 4, 6)
        regularity_verdict(betti_table(res))
        koszul_verdict(m, 4, 6, method="betti-diagonal")
        # homology of the resolution reads the ranks its stages recorded
        maps.clear()
        ranked.clear()
        for i in range(res.length_computed()):
            for d in range(7):
                homology_dims(res, i, d)
        assert maps == [] and ranked == []
        # the linear part rebuilds only the steps whose linear part drops a
        # nonzero entry, once each, in step order
        lin = linear_part(res)
        rebuilt = [res.free_shifts[i] for i in _dropped_steps(res, lin)]
        for i in range(res.length_computed()):
            for d in range(7):
                homology_dims(lin, i, d)
        assert [a[2] for a in maps] == rebuilt
        dropped_any |= bool(rebuilt)
        kept_any |= len(rebuilt) < res.length_computed()
        # the verdict may stop at a witness before it reaches the last step
        maps.clear()
        koszul_verdict(m, 4, 6, method="linear-part-acyclic")
        assert [a[2] for a in maps] == rebuilt[: len(maps)]
        assert built == []
    assert dropped_any and kept_any
    cols = res.differential(2)
    assert len(built) == len(cols) == len(res.free_shifts[2]) > 0
    again = res.differential(2)
    assert again is cols and all(a is b for a, b in zip(again, cols))
    assert len(built) == len(cols)


def _action_matrix(module, poly, d_from, d_to):
    """Matrix of multiplication by poly: M_{d_from} -> M_{d_to}."""
    ring = module.ring
    src = module.piece_basis(d_from)
    tgt = module.piece_basis(d_to)
    index = {b: i for i, b in enumerate(tgt)}
    mat = np.zeros((len(tgt), len(src)), dtype=np.int64)
    zero = ring.poly_ring.zero()
    for c, (pos, mono) in enumerate(src):
        comps = [zero] * module.rank
        comps[pos] = poly * ring.poly_ring.monomial(mono)
        nf = module.module_nf(comps)
        for pos2, comp in enumerate(nf):
            for m2, coeff in comp.terms:
                mat[index[(pos2, m2)], c] = coeff
    return mat


def _tensor_homology(ring, module, res_k, i, d):
    """dim H_i((resolution of k) tensor M) in degree d, by module actions."""
    from oracles import rank_mod_p

    def step_matrix(step_idx):
        cols = res_k.differential(step_idx)
        tgt_shifts = res_k.free_shifts[step_idx - 1]
        blocks_rows = sum(module.dim_piece(d - s) for s in tgt_shifts)
        blocks_cols = sum(
            module.dim_piece(d - c.internal_degree()) for c in cols
        )
        mat = np.zeros((blocks_rows, blocks_cols), dtype=np.int64)
        col_off = 0
        for col in cols:
            cdim = module.dim_piece(d - col.internal_degree())
            row_off = 0
            for r, entry in enumerate(col.components):
                rdim = module.dim_piece(d - tgt_shifts[r])
                if not entry.is_zero() and cdim and rdim:
                    mat[row_off : row_off + rdim, col_off : col_off + cdim] = (
                        _action_matrix(
                            module, entry, d - col.internal_degree(), d - tgt_shifts[r]
                        )
                    )
                row_off += rdim
            col_off += cdim
        return mat

    dim_i = sum(module.dim_piece(d - s) for s in res_k.free_shifts[i])
    a = step_matrix(i) if i >= 1 and res_k.steps[i - 1] else None
    b = step_matrix(i + 1) if res_k.steps[i] else None
    rank_a = rank_mod_p(a.tolist(), ring.p) if a is not None and a.size else 0
    rank_b = rank_mod_p(b.tolist(), ring.p) if b is not None and b.size else 0
    ker = dim_i - rank_a
    return ker - rank_b


def test_tor_symmetry_small_fixtures(ci2):
    # beta_{ij}(M) equals dim H_i(res(k) tensor M)_j for i <= 3, j <= 4
    k = residue_field_module(ci2)
    res_k = resolve(k, 5, 8)
    for seed in (1, 2):
        m = random_module(ci2, 2, 2, seed)
        table = betti_table(resolve(m, 4, 6))
        for i in range(0, 4):
            for d in range(0, 5):
                got = _tensor_homology(ci2, m, res_k, i, d)
                assert got == table.beta(i, d), (seed, i, d)


def test_linear_part_fixed_point(ci2):
    k = residue_field_module(ci2)
    res = resolve(k, 4, 8)
    lin = linear_part(res)
    for i in range(1, 5):
        assert [str(c) for c in lin.differential(i)] == [
            str(c) for c in res.differential(i)
        ]


def test_linear_part_drops_higher_degree(ci2):
    x, y = ci2.poly_ring.gens()
    # column mixing entry degrees via shifts: [y^2 on the 0-row, x on the 1-row]
    m = make_module(ci2, (0, 1), [[x * y, x]])
    res = resolve(m, 2, 6)
    lin = linear_part(res)
    col = lin.differential(1)[0]
    assert col.components[0].is_zero()
    assert col.components[1] == x


def test_linear_part_nk3_homology(nk3):
    k = residue_field_module(nk3)
    res = resolve(k, 5, 8)
    lin = linear_part(res)
    # the x^2 entries die, leaving nonvanishing homology at (2, 3)
    assert lin.differential(2)[0].components[0].is_zero()
    assert homology_dims(lin, 2, 3) >= 1
    assert homology_dims(res, 2, 3) == 0


def test_homology_bounds_errors(ci2):
    k = residue_field_module(ci2)
    res = resolve(k, 3, 6)
    with pytest.raises(ValueError):
        homology_dims(res, 3, 2)
    with pytest.raises(ValueError):
        homology_dims(res, 1, 7)


def test_regularity_verdicts(ci2, nk3):
    k2 = residue_field_module(ci2)
    v = regularity_verdict(betti_table(resolve(k2, 5, 8)))
    assert (v.kind, v.value) == ("UpToBounds", 0)
    k1 = residue_field_module(nk3)
    v = regularity_verdict(betti_table(resolve(k1, 5, 8)))
    assert (v.kind, v.value) == ("AtLeast", 2)
    x, y = ci2.poly_ring.gens()
    rx = cyclic_module(ci2, [x])
    v = regularity_verdict(betti_table(resolve(rx, 5, 8)))
    assert (v.kind, v.value) == ("UpToBounds", 0)


def test_betti_render_shapes(ci2):
    k = residue_field_module(ci2)
    t = betti_table(resolve(k, 3, 6))
    text = t.render_text()
    lines = text.splitlines()
    assert lines[-1].lstrip().startswith("total:")
    assert "0: 1 2 3 4" in text
    empty = betti_table(resolve(make_module(ci2, (0,), [[ci2.poly_ring.one()]]), 2, 4))
    assert empty.render_text() == "0\n"


def test_resolution_cache(ci2):
    k = residue_field_module(ci2)
    r1 = resolve(k, 3, 6)
    r2 = resolve(k, 3, 6)
    assert r1 is r2
