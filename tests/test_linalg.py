"""Exact mod-p matrix routines against a plain-list oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from koszulkit import linalg
from koszulkit.linalg import (
    Echelon,
    Nonzeros,
    _last_entries,
    matmul_mod,
    nullspace,
    pivot_columns,
    rank,
    rref,
)
from oracles import rank_mod_p


def solve(a, b, p):
    """Reference: one solution x of a @ x = b mod p from the rref of [a | b],
    or None."""
    ncols = a.shape[1]
    r, pivots = rref(np.concatenate([a, b.reshape(-1, 1)], axis=1), p)
    x = np.zeros(ncols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = r[i, ncols]
    return x


def test_rref_known():
    a = np.array([[2, 4], [1, 2]], dtype=np.int64)
    r, pivots = rref(a, 5)
    assert pivots == [0]
    assert r.tolist() == [[1, 2]]


def test_rank_and_nullspace():
    p = 7
    a = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
    assert rank(a, p) == 2
    ns = nullspace(a, p)
    assert ns.shape[0] == 1
    for v in ns:
        assert not np.any((a @ v) % p)


def test_solve():
    p = 5
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    b = np.array([3, 2], dtype=np.int64)
    x = solve(a, b, p)
    assert x is not None and np.array_equal((a @ x) % p, b)
    a2 = np.array([[1, 1], [2, 2]], dtype=np.int64)
    assert solve(a2, np.array([0, 1]), p) is None


def test_echelon_incremental():
    p = 5
    e = Echelon(3, p)
    assert e.add([1, 2, 3])
    assert not e.add([2, 4, 6])
    assert e.add([0, 1, 0])
    assert e.rank == 2
    assert e.contains([1, 3, 3])
    assert not e.contains([0, 0, 1])


@st.composite
def _echelon_inputs(draw):
    """Rows over F_p, with scaled copies and sums of earlier rows mixed in."""
    p = draw(st.sampled_from([2, 7, 2147483647]))
    n = draw(st.integers(1, 6))
    entries = st.integers(0, p - 1)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["random", "scaled", "sum"]) if rows else st.just("random"))
        if kind == "random":
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
        elif kind == "scaled":
            c, r = draw(entries), draw(st.sampled_from(rows))
            rows.append([c * x % p for x in r])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([(x + y) % p for x, y in zip(a, b)])
    probe = draw(st.lists(entries, min_size=n, max_size=n))
    return p, n, rows, probe


@settings(max_examples=80, deadline=None)
@given(_echelon_inputs())
def test_echelon_matches_rank_oracle(inputs):
    p, n, rows, probe = inputs
    e = Echelon(n, p)
    for k, row in enumerate(rows):
        before, want = e.rank, rank_mod_p(rows[: k + 1], p)
        assert e.add(row) == (want > before)
        assert e.rank == want
        assert e.contains(row)
        # the stored rows stay reduced: each pivot column is a unit vector
        stored = e.rows.tolist()
        for i, r in enumerate(stored):
            piv = next(c for c, x in enumerate(r) if x)
            assert [s[piv] for s in stored] == [int(j == i) for j in range(len(stored))]
    assert e.contains(probe) == (rank_mod_p(rows + [probe], p) == e.rank)
    assert not np.any(e.reduce(rows[-1]))


_matrix = st.lists(
    st.lists(st.integers(0, 6), min_size=4, max_size=4), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(_matrix)
def test_rank_matches_oracle(rows):
    p = 7
    a = np.array(rows, dtype=np.int64)
    assert rank(a, p) == rank_mod_p(rows, p)


@settings(max_examples=60, deadline=None)
@given(_matrix)
def test_nullspace_is_kernel_of_right_dimension(rows):
    p = 7
    a = np.array(rows, dtype=np.int64)
    ns = nullspace(a, p)
    assert ns.shape[0] == a.shape[1] - rank(a, p)
    for v in ns:
        assert not np.any((a @ v) % p)
    assert rank(ns, p) == ns.shape[0] if ns.size else True


def _python_product(a, b, p):
    return [
        [sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in zip(*b)]
        for row in a
    ]


@st.composite
def _mod_p_operands(draw):
    p = draw(st.sampled_from([2, 3, 32003, 2147483647]))
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    entries = st.integers(0, p - 1)
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return p, a, b


@settings(max_examples=80, deadline=None)
@given(_mod_p_operands())
@example((2147483647, [[2147483646] * 6] * 2, [[2147483646] * 3] * 6))
def test_large_modulus_is_exact(operands):
    # int64 sums of k products near p^2 wrap for p near 2^31
    p, a, b = operands
    got = matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    assert got.tolist() == _python_product(a, b, p)
    # single products near p^2 must not overflow in row reduction
    sq = np.array([[p - 1, p - 2], [p - 3, p - 4]], dtype=np.int64) % p
    det = ((p - 1) * (p - 4) - (p - 2) * (p - 3)) % p
    assert rank(sq, p) == (2 if det else 1)


def test_matmul_mod_chunks_long_inner_dimension():
    p = 2147483647
    k = (1 << 15) + 5
    rng = np.random.default_rng(0)
    a = rng.integers(0, p, size=(2, k), dtype=np.int64)
    b = rng.integers(0, p, size=(k, 2), dtype=np.int64)
    a[0] = p - 1
    b[:, 0] = p - 1
    assert matmul_mod(a, b, p).tolist() == _python_product(a, b, p)
    # a stack of right operands gives one product each
    stacked = matmul_mod(a, np.stack([b, b[::-1]]), p)
    want = [_python_product(a, b, p), _python_product(a, b[::-1], p)]
    assert [m.tolist() for m in stacked] == want


@st.composite
def _stacked_operands(draw):
    p, a, b = draw(_mod_p_operands())
    entries = st.integers(0, p - 1)
    k, n = len(b), len(b[0])
    more = draw(st.lists(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k), max_size=3
    ))
    return p, a, [b] + more


@settings(max_examples=40, deadline=None)
@given(_stacked_operands())
def test_matmul_mod_stacked_matches_each_product(operands):
    p, a, stack = operands
    got = matmul_mod(np.array(a, dtype=np.int64), np.array(stack, dtype=np.int64), p)
    assert [m.tolist() for m in got] == [_python_product(a, b, p) for b in stack]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 32003, 2147483647]),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(0, 2**32),
)
def test_pivot_columns_match_rref(p, m, n, seed):
    # low-rank products and zero columns make the pivots skip columns
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(m, n) + 1))
    left = rng.integers(0, p, size=(m, k), dtype=np.int64)
    right = rng.integers(0, p, size=(k, n), dtype=np.int64)
    right[:, rng.random(n) < 0.3] = 0
    a = matmul_mod(left, right, p)
    assert pivot_columns(a, p) == rref(a, p)[1]
    assert rank(a, p) == rank_mod_p(a.tolist(), p)


@st.composite
def _gate_matrices(draw):
    """Matrices on both sides of the small path's size gate and of the sparse
    path's size and density gate, with entries that are negative or nonzero
    multiples of p, zero rows and columns, duplicate rows, ranks from 0 to
    full, shapes with no rows or no columns, and dense rows followed by sums
    of earlier rows."""
    p = draw(st.sampled_from([2, 3, 32003, 2147483647]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    m, n = draw(st.integers(0, 40)), draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["random", "multiples", "full", "sums"]))
    density = draw(st.sampled_from([0.005, 0.02, 0.05, 0.1, 0.4]))
    a = np.zeros((m, n), dtype=np.int64)
    hit = rng.random((m, n)) < density
    a[hit] = rng.integers(-3 * p, 3 * p, size=int(hit.sum()))
    if kind == "multiples":
        # nonzero as integers, zero mod p: rank 0 on either path
        a[hit] = p * rng.choice([-2, -1, 1, 2], size=int(hit.sum()))
    elif kind == "full":
        # a staircase of units with entries right of it: full rank
        cols = np.sort(rng.choice(n, size=min(m, n), replace=False))
        a[: len(cols)] *= np.arange(n) > cols[:, None]
        units = rng.integers(1, p, size=len(cols)) - p * rng.integers(0, 2, size=len(cols))
        a[np.arange(len(cols)), cols] = units
        a = a[rng.permutation(m)]
    elif kind == "sums":
        # dense rows, then each later row a combination of three or more
        # earlier ones, sums included: they reduce to zero only late, and
        # the dense pivot rows make long back-substitution chains
        first = (m + 1) // 2
        a[:first] = rng.integers(-3 * p, 3 * p, size=(first, n))
        for i in range(first, m):
            picked = rng.choice(i, size=int(rng.integers(min(3, i), i + 1)), replace=False)
            coeffs = rng.integers(1, p, size=(1, len(picked)))
            a[i] = matmul_mod(coeffs, a[picked] % p, p)[0] - p * rng.integers(0, 2, size=n)
    elif draw(st.booleans()):
        a[rng.random(m) < 0.2] = 0
        a[:, rng.random(n) < 0.2] = 0
        if m > 1:
            a[rng.integers(0, m)] = a[rng.integers(0, m)]
    return p, a


def _nonzeros(a):
    """The `Nonzeros` of the array `a`, column by column, as they are."""
    cols, rows = np.nonzero(a.T)
    return Nonzeros(a.shape, rows, cols, a[rows, cols])


# (_SMALL_MAX_ENTRIES, _SPARSE_MIN_ENTRIES, _SPARSE_MAX_DENSITY) that send
# every matrix to one path
_FORCED_PATHS = {
    "small": (10**18, 10**18, 0.0),
    "sparse": (-1, 0, 1.0),
    "dense": (-1, 10**18, 0.0),
}


def _forced(path, fn, *args):
    """fn(*args) with every matrix sent to the named path."""
    small_max, sparse_min, sparse_density = _FORCED_PATHS[path]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_SMALL_MAX_ENTRIES", small_max)
        mp.setattr(linalg, "_SPARSE_MIN_ENTRIES", sparse_min)
        mp.setattr(linalg, "_SPARSE_MAX_DENSITY", sparse_density)
        return fn(*args)


def _all_paths(fn, *args):
    """fn(*args) with every matrix sent to the small, the sparse and the dense
    path in turn."""
    return [_forced(path, fn, *args) for path in _FORCED_PATHS]


@settings(max_examples=150, deadline=None)
@given(_gate_matrices())
@example((3, np.zeros((0, 5), dtype=np.int64)))
@example((32003, np.full((4, 0), 7, dtype=np.int64)))
@example((2, np.zeros((0, 0), dtype=np.int64)))
def test_sparse_and_dense_elimination_agree(inputs):
    p, a = inputs
    rows, cols = a.nonzero()
    # the forward pivots of the dense loop, the sparse table and the list
    # kernel
    pivots = linalg._dense_echelon(a.copy(), p)[0]
    table = linalg._sparse_echelon(a.shape, rows, cols, a[rows, cols], p)
    assert sorted(table) == pivots == linalg._small_echelon(a, p, False)[1]
    # the rref of each path: the sparse and dense echelon forms reduced at
    # the free columns, and the list kernel's own
    dense = _forced("dense", rref, a, p)
    sparse = _forced("sparse", rref, a, p)
    small = linalg._small_echelon(a, p, True)
    assert sparse[1] == dense[1] == small[1] == pivots
    assert sparse[0].tolist() == dense[0].tolist() == small[0].tolist()
    assert small[0].shape == (len(pivots), a.shape[1])
    assert len(pivots) == rank_mod_p((a % p).tolist(), p)
    # the public functions, on each path and through the default gate, fed
    # the array and its nonzeros (unreduced, as `a` has them)
    nonzeros = _nonzeros(a)
    assert nonzeros.toarray().tolist() == a.tolist()
    for fn in (rref, pivot_columns, nullspace, rank):
        results = []
        for form in (a, nonzeros):
            results += _all_paths(fn, form, p) + [fn(form, p)]
        if fn is rref:
            results = [(r.tolist(), piv) for r, piv in results]
        elif fn is nullspace:
            results = [r.tolist() for r in results]
        assert results[1:] == results[:-1]
    last = _all_paths(_last_entries, nonzeros, p) + [_last_entries(nonzeros, p)]
    last = [x[0].tolist() for x in last]
    assert last[1:] == last[:-1]
    # the last nonzero entries of the column span are the pivots of the
    # reversed transpose
    want = sorted(a.shape[0] - 1 - c for c in rref(a[::-1].T, p)[1])
    assert np.flatnonzero(last[-1]).tolist() == want


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2147483647, 2147483629]),
    st.sampled_from(["p-1", "p-1 off a unit diagonal", "random", "low rank", "signed"]),
    st.integers(1, 14),
    st.integers(1, 14),
    st.integers(0, 2**32),
)
@example(2147483647, "p-1 off a unit diagonal", 14, 14, 0)
@example(2147483647, "p-1 off a unit diagonal", 5, 14, 0)
@example(2147483647, "signed", 5, 14, 0)
def test_dense_loop_is_exact_near_the_largest_modulus(p, kind, m, n, seed):
    # the dense loop reduces by floor division: every entry p - 1 makes
    # every update negative, and with unit pivots the pivot rows keep their
    # entries p - 1, so each update reaches -(p - 1)^2; signed entries up
    # to (p - 1)^2 in size test the reduction of the input. Back-substituting
    # the echelon form of a wide matrix of either kind forms products near
    # (p - 1)^2 in its free columns
    rng = np.random.default_rng(seed)
    a = np.full((m, n), p - 1, dtype=np.int64)
    if kind == "p-1 off a unit diagonal":
        np.fill_diagonal(a, 1)
    elif kind == "random":
        a = rng.integers(0, p, size=(m, n), dtype=np.int64)
    elif kind == "low rank":
        k = int(rng.integers(1, min(m, n) + 1))
        left = rng.integers(0, p, size=(m, k), dtype=np.int64)
        a = matmul_mod(left, rng.integers(0, p, size=(k, n), dtype=np.int64), p)
    elif kind == "signed":
        a = rng.integers(-((p - 1) ** 2), (p - 1) ** 2, size=(m, n), dtype=np.int64, endpoint=True)
    want, pivots = linalg._small_echelon(a, p, True)
    assert len(pivots) == rank_mod_p(a.tolist(), p)
    echelon = a.copy()
    got, at = linalg._dense_echelon(echelon, p)
    assert got == pivots
    every = np.arange(n)
    assert linalg._back_substitute(echelon[at], pivots, every, p).tolist() == want.tolist()
    r, got = _forced("dense", rref, a, p)
    assert got == pivots and r.tolist() == want.tolist()


@st.composite
def _profile_matrices(draw):
    """(p, a, swapped): matrices with dependent rows: random rows with leading
    zero columns, scaled copies and sums of earlier rows, in random order.
    With `swapped` the first three rows are v (0, then a unit), a scaled
    copy of v and a row with a unit in column 0. A loop that swaps its pivot
    row into place moves v behind the copy at column 0 and makes the copy a
    pivot row at column 1, where the row rank profile has v."""
    p = draw(st.sampled_from([2, 3, 32003, 2147483647]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    m, n = draw(st.integers(1, 14)), draw(st.integers(2, 14))
    swapped = draw(st.booleans())
    base = rng.integers(0, p, size=(m, n)) * (np.arange(n) >= rng.integers(0, n, size=(m, 1)))
    rows = []
    for row in base:
        kind = rng.integers(3) if rows else 0
        if kind == 1:
            row = rows[rng.integers(len(rows))] * rng.integers(0, p) % p
        elif kind == 2:
            row = (rows[rng.integers(len(rows))] + rows[rng.integers(len(rows))]) % p
        rows.append(row)
    a = np.array(rows)[rng.permutation(m)]
    if swapped:
        v, w = rng.integers(0, p, size=(2, n))
        v[0], v[1], w[0] = 0, rng.integers(1, p), rng.integers(1, p)
        a = np.concatenate(([v, v * rng.integers(1, p) % p, w], a))
    return p, a, swapped


def _swapping_pivot_rows(a, p):
    """The input rows that a loop which swaps each pivot row into place (the
    first nonzero row at or below the current one, as `_small_echelon` takes
    it) makes its pivot rows, sorted."""
    rows = [([x % p for x in row], i) for i, row in enumerate(a.tolist())]
    got, r = [], 0
    for c in range(a.shape[1]):
        piv = next((k for k in range(r, len(rows)) if rows[k][0][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, i = rows[r]
        inv = pow(top[c], -1, p)
        for k in range(r + 1, len(rows)):
            if f := rows[k][0][c] * inv % p:
                rows[k] = ([(x - f * y) % p for x, y in zip(rows[k][0], top)], rows[k][1])
        got.append(i)
        r += 1
    return sorted(got)


@settings(max_examples=120, deadline=None)
@given(_profile_matrices())
def test_dense_pivot_rows_are_the_row_rank_profile(inputs):
    p, a, swapped = inputs
    rows = (a % p).tolist()
    echelon = a.copy()
    pivots, at = linalg._dense_echelon(echelon, p)
    assert len(at) == len(pivots) == len(set(at))
    # the pivot rows left in the array, back-substituted over every column,
    # are the rref
    rref_rows = linalg._small_echelon(a, p, True)[0]
    every = list(range(a.shape[1]))
    assert linalg._back_substitute(echelon[at], pivots, every, p).tolist() == rref_rows.tolist()
    # a pivot row is independent of the rows before it; every other row
    # depends on them, so on the pivot rows before it
    for i in range(len(rows)):
        assert (i in at) == (rank_mod_p(rows[: i + 1], p) > rank_mod_p(rows[:i], p)), i
    if swapped:
        assert _swapping_pivot_rows(a, p) != sorted(at)
    # the pivots of the small path, and its rref through the gate's dense path
    assert pivots == linalg._small_echelon(a, p, False)[1]
    r, got = _forced("dense", rref, a, p)
    assert got == pivots and r.tolist() == rref_rows.tolist()
    # with the rows reversed, the pivot rows are the last entries of the
    # column span
    n = a.shape[0]
    last = linalg._dense_echelon(a[::-1].copy(), p)[1]
    assert sorted(n - 1 - i for i in last) == np.flatnonzero(_last_entries(_nonzeros(a), p)[0]).tolist()


@settings(max_examples=100, deadline=None)
@given(_gate_matrices(), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2**32))
def test_kernel_rows_are_the_wanted_nullspace_rows(inputs, share, seed):
    # the one kernel routine, on each path and through the default gate,
    # fed the array and its nonzeros: the nullspace rows of the wanted free
    # columns, in order, and the rank of the matrix
    p, a = inputs
    wanted = np.random.default_rng(seed).random(a.shape[1]) < share
    asked = wanted.copy()
    pivots = set(rref(a, p)[1])
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = nullspace(a, p)
    want = [row for row, c in zip(basis.tolist(), free) if wanted[c]]
    for form in (a, _nonzeros(a)):
        got = _all_paths(linalg._kernel_rows, form, p, wanted)
        for rows, rank_a in got + [linalg._kernel_rows(form, p, wanted)]:
            assert rows.shape == (len(want), a.shape[1])
            assert rows.tolist() == want
            assert rank_a == rank(a, p) == rank_mod_p((a % p).tolist(), p)
    assert np.array_equal(wanted, asked)
    # the rows lie in the kernel and are independent
    assert not matmul_mod(a % p, basis.T, p).any()
    assert rank(basis, p) == len(basis) == a.shape[1] - len(pivots)


@settings(max_examples=100, deadline=None)
@given(
    _gate_matrices(),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.integers(0, 2**32),
)
@example((32003, np.arange(30, dtype=np.int64).reshape(10, 3)), 3, 0.5, 7)
@example((2, np.eye(12, 5, dtype=np.int64)), 3, 1.0, 0)
def test_kernel_rows_from_a_kept_echelon_form(inputs, extra, share, seed):
    # M = [N | G] with G independent modulo the columns of N: the kernel
    # rows back-substituted from the dense form that `_last_entries` returns
    # of N, on the dense path, are those read off the rref of M
    p, n_mat = inputs
    rng = np.random.default_rng(seed)
    m = n_mat.copy()
    for _ in range(extra):
        column = rng.integers(0, p, size=(len(m), 1))
        if rank(np.concatenate((m, column), axis=1), p) > rank(m, p):
            m = np.concatenate((m, column), axis=1)
    wanted = rng.random(m.shape[1]) < share
    mask, handed = _forced("dense", _last_entries, _nonzeros(n_mat), p)
    assert handed is not None
    assert mask.tolist() == _last_entries(_nonzeros(n_mat), p)[0].tolist()
    want_rows, want_rank = linalg._kernel_rows(m, p, wanted)
    pivots = set(rref(m, p)[1])
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = nullspace(m, p).tolist()
    assert want_rows.tolist() == [row for row, c in zip(basis, free) if wanted[c]]
    for form in (m, _nonzeros(m)):
        rows, rank_m = linalg._kernel_rows(form, p, wanted, handed)
        assert rows.tolist() == want_rows.tolist()
        assert rank_m == want_rank
        for path in _FORCED_PATHS:
            rows, rank_m = _forced(path, linalg._kernel_rows, form, p, wanted)
            assert rows.tolist() == want_rows.tolist()
            assert rank_m == want_rank


def _no_rref(*_args):
    raise AssertionError("rref was called")


def test_wide_sparse_kernel_rows_build_only_the_wanted_columns(monkeypatch):
    # 300 x 6000 with three nonzeros a row: the sparse path, rank 300. The
    # kernel rows of five wanted free columns are back-substituted from the
    # forward pass at those columns alone: no rref is taken, and nothing of
    # the size of a rank x ncols array (14.4 MB) is built
    p, m, n = 32003, 300, 6000
    rng = np.random.default_rng(5)
    rows = np.repeat(np.arange(m), 3)
    cols = np.concatenate([rng.choice(n, size=3, replace=False) for _ in range(m)])
    a = Nonzeros((m, n), rows, cols, rng.integers(1, p, size=3 * m))
    assert not linalg._takes_dense_path(a)
    pivots = linalg.pivot_columns(a, p)
    assert len(pivots) == m
    wanted = np.zeros(n, dtype=bool)
    wanted[np.setdiff1d(np.arange(n), pivots)[:: (n - m) // 5][:5]] = True
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "rref", _no_rref)
        tracemalloc.start()
        try:
            got, rank_a = linalg._kernel_rows(a, p, wanted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # an eighth of the rank x ncols int64 array
    assert peak < m * n, peak
    assert rank_a == m
    assert got.shape == (5, n)
    assert got[:, wanted].tolist() == np.eye(5, dtype=np.int64).tolist()
    assert not matmul_mod(a.toarray(), got.T, p).any()
    assert got.tolist() == _forced("dense", linalg._kernel_rows, a, p, wanted)[0].tolist()


def test_dense_rref_back_substitutes_only_its_free_columns(monkeypatch):
    # the pivot columns of an rref are the identity: the dense path
    # back-substitutes its echelon form at the free columns alone
    p = 32003
    a = np.random.default_rng(3).integers(0, p, size=(6, 20))
    a[:, [4, 9]] = 0
    asked = []
    back = linalg._back_substitute

    def recorded(e, pivots, cols, p):
        asked.append(list(cols))
        return back(e, pivots, cols, p)

    monkeypatch.setattr(linalg, "_back_substitute", recorded)
    r, pivots = _forced("dense", rref, a, p)
    assert pivots == [0, 1, 2, 3, 5, 6]
    assert asked == [[c for c in range(20) if c not in pivots]]
    assert r.tolist() == linalg._small_echelon(a, p, True)[0].tolist()


@settings(max_examples=100, deadline=None)
@given(_gate_matrices())
def test_last_entries_keep_only_the_dense_echelon_form(inputs):
    # the path changes no mask; a dense form comes back exactly where the
    # matrix takes the dense path
    p, a = inputs
    vectors = _nonzeros(a)
    want = _last_entries(vectors, p)
    forms = [want[1]]
    for path in _FORCED_PATHS:
        mask, form = _forced(path, _last_entries, vectors, p)
        assert mask.tolist() == want[0].tolist()
        assert (form is not None) == (path == "dense")
        forms.append(form)
    assert (want[1] is not None) == linalg._takes_dense_path(vectors)
    r, r_pivots = rref(a, p)
    for form in forms:
        if form is not None:
            # the form is an echelon form of `a`: back-substituted over every
            # column, it is the rref
            back, pivots, width = form
            assert width == a.shape[1]
            assert (back(list(range(width))).tolist(), pivots) == (r.tolist(), r_pivots)


def _assert_paths(monkeypatch, cases):
    """Each (matrix, path) or (matrix, path, pivot_path) of `cases`, as an
    array and as its nonzeros, goes through `rref` and `nullspace` to the one
    elimination path named, and through `pivot_columns` and `rank` to
    `pivot_path` (`path` if not given), or to none where it is None."""
    taken = []

    def counting(name):
        kernel = getattr(linalg, name)

        def wrapper(*args):
            taken.append(name)
            return kernel(*args)

        return wrapper

    for name in ("_small_echelon", "_sparse_echelon", "_dense_echelon"):
        monkeypatch.setattr(linalg, name, counting(name))
    for a, path, *pivot_path in cases:
        pivot_path = pivot_path[0] if pivot_path else path
        # the nonzeros of a matrix take the path the matrix takes
        for form in (a, _nonzeros(a)):
            for fn in (rref, pivot_columns, nullspace, rank):
                want = pivot_path if fn in (pivot_columns, rank) else path
                taken.clear()
                fn(form, 5)
                assert taken == ([want] if want else []), (a.shape, fn.__name__, type(form))


def test_sparse_gate_takes_large_sparse_matrices_only(monkeypatch):
    # a row of the sparse path's least size, with as many nonzeros as its
    # density admits
    k = int(linalg._SPARSE_MIN_ENTRIES * linalg._SPARSE_MAX_DENSITY)
    sparse = np.zeros((1, linalg._SPARSE_MIN_ENTRIES), dtype=np.int64)
    sparse[0, :k] = 1
    denser = sparse.copy()
    denser[0, k] = 1
    _assert_paths(
        monkeypatch,
        (
            (sparse, "_sparse_echelon"),
            (sparse[:, 1:], "_dense_echelon"),
            (denser, "_dense_echelon"),
            (sparse + 1, "_dense_echelon"),
        ),
    )


def test_small_gate_takes_matrices_up_to_its_size_only(monkeypatch):
    n = linalg._SMALL_MAX_ENTRIES
    assert n + 1 < linalg._SPARSE_MIN_ENTRIES
    sparse = np.zeros((1, linalg._SPARSE_MIN_ENTRIES), dtype=np.int64)
    sparse[0, 0] = 1
    two = sparse.copy()
    two[0, -1] = 1
    _assert_paths(
        monkeypatch,
        (
            (np.ones((1, n), dtype=np.int64), "_small_echelon"),
            (np.zeros((1, n), dtype=np.int64), "_small_echelon"),
            (np.zeros((0, 7), dtype=np.int64), "_small_echelon"),
            (np.zeros((400, 0), dtype=np.int64), "_small_echelon"),
            (np.ones((1, n + 1), dtype=np.int64), "_dense_echelon"),
            # every row of these two has one nonzero entry: their pivots are
            # all structural, found with no elimination
            (np.ones((n + 1, 1), dtype=np.int64), "_dense_echelon", None),
            (sparse, "_sparse_echelon", None),
            # past the same sizes with two nonzero entries in every row
            (np.ones(((n + 2) // 2, 2), dtype=np.int64), "_dense_echelon"),
            (two, "_sparse_echelon"),
            (sparse + 1, "_dense_echelon"),
        ),
    )


@st.composite
def _structured_matrices(draw):
    """(p, a, settled): matrices whose pivots are mostly structural. Chains of
    rows, each with one entry that is a unit mod p and its other nonzeros in
    columns of earlier rows of its chain, so that peeling singleton rows
    settles them one after another; extra singleton rows at chain columns;
    zero rows; entries p, 2p and -p, also alone in a row, which are zero mod
    p; and, unless `settled`, random rows whose pivots need elimination."""
    p = draw(st.sampled_from([2, 3, 32003, 2147483647]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n = draw(st.integers(6, 30))
    chain = rng.permutation(n)[: draw(st.integers(1, n))]
    rows = []
    for i, c in enumerate(chain):
        row = np.zeros(n, dtype=np.int64)
        earlier = chain[:i][rng.random(i) < 0.5]
        row[earlier] = rng.integers(1, p, size=len(earlier))
        row[c] = rng.integers(1, p)
        rows.append(row)
    for c in rng.choice(chain, size=draw(st.integers(0, 3))):
        row = np.zeros(n, dtype=np.int64)
        row[c] = rng.integers(1, p)
        rows.append(row)
    rows += [np.zeros(n, dtype=np.int64)] * draw(st.integers(0, 3))
    settled = draw(st.booleans())
    if not settled:
        density = draw(st.sampled_from([0.1, 0.3, 0.7]))
        for _ in range(draw(st.integers(1, 8))):
            rows.append(rng.integers(1, p, size=n) * (rng.random(n) < density))
    a = np.array(rows)[rng.permutation(len(rows))]
    # multiples of p in zero places: inside rows, and alone in rows of their own
    zero = np.argwhere(a == 0)
    hit = zero[rng.random(len(zero)) < 0.1]
    a[hit[:, 0], hit[:, 1]] = p * rng.choice([-1, 1, 2], size=len(hit))
    lone = np.zeros((draw(st.integers(0, 3)), n), dtype=np.int64)
    at = rng.integers(0, n, size=len(lone))
    lone[np.arange(len(lone)), at] = p * rng.choice([-1, 1, 2], size=len(lone))
    return p, np.concatenate((a, lone)), settled


def _no_kernel(*_args):
    raise AssertionError("an elimination kernel was reached")


@settings(max_examples=150, deadline=None)
@given(_structured_matrices())
def test_structural_pivots_match_elimination(inputs):
    p, a, settled = inputs
    want = linalg._dense_echelon(a.copy(), p)[0]
    assert linalg._small_echelon(a, p, False)[1] == want
    assert len(want) == rank_mod_p((a % p).tolist(), p)
    for form in (a, _nonzeros(a)):
        assert _all_paths(pivot_columns, form, p) + [pivot_columns(form, p)] == [want] * 4
        assert _all_paths(rank, form, p) + [rank(form, p)] == [len(want)] * 4
        if settled:
            # every pivot is structural: past the small path, no elimination runs
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "_SMALL_MAX_ENTRIES", -1)
                for name in ("_small_echelon", "_sparse_echelon", "_dense_echelon"):
                    mp.setattr(linalg, name, _no_kernel)
                assert pivot_columns(form, p) == want
                assert rank(form, p) == len(want)
    # the columns of a[:, ::-1].T have a as their reversed transpose
    last = _last_entries(_nonzeros(a[:, ::-1].T), p)[0]
    assert np.flatnonzero(last).tolist() == sorted(a.shape[1] - 1 - c for c in want)
