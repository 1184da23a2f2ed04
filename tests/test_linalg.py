"""Exact mod-p matrix routines against a plain-list oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from koszulkit import linalg
from koszulkit.linalg import Echelon, matmul_mod, nullspace, pivot_columns, rank, rref
from koszulkit.resolution import _last_entries
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
    """Matrices on both sides of the sparse path's size and density gate, with
    entries that are negative or nonzero multiples of p, zero rows and
    columns, duplicate rows, and ranks from 0 to full."""
    p = draw(st.sampled_from([2, 3, 32003, 2147483647]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["random", "multiples", "full"]))
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
    elif draw(st.booleans()):
        a[rng.random(m) < 0.2] = 0
        a[:, rng.random(n) < 0.2] = 0
        if m > 1:
            a[rng.integers(0, m)] = a[rng.integers(0, m)]
    return p, a


def _both_paths(fn, *args):
    """fn(*args) with every matrix sent to the dense path, then to the sparse one."""
    out = []
    for min_entries, max_density in ((10**18, 0.0), (0, 1.0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_SPARSE_MIN_ENTRIES", min_entries)
            mp.setattr(linalg, "_SPARSE_MAX_DENSITY", max_density)
            out.append(fn(*args))
    return out


@settings(max_examples=150, deadline=None)
@given(_gate_matrices())
def test_sparse_and_dense_elimination_agree(inputs):
    p, a = inputs
    rows, cols = a.nonzero()
    for reduced in (True, False):
        dense = linalg._dense_echelon(a, p, reduced)
        sparse = linalg._sparse_echelon(a.shape, rows, cols, a[rows, cols], p, reduced)
        assert sparse[1] == dense[1]
        if reduced:
            assert sparse[0].tolist() == dense[0].tolist()
    assert len(dense[1]) == rank_mod_p((a % p).tolist(), p)
    # the public functions, on either path and through the default gate
    for fn in (rref, pivot_columns, nullspace):
        results = _both_paths(fn, a, p) + [fn(a, p)]
        if fn is rref:
            results = [(r.tolist(), piv) for r, piv in results]
        elif fn is nullspace:
            results = [r.tolist() for r in results]
        assert results[0] == results[1] == results[2]
    last = _both_paths(_last_entries, a, p) + [_last_entries(a, p)]
    assert last[0].tolist() == last[1].tolist() == last[2].tolist()
    # the last nonzero entries of the column span are the pivots of the
    # reversed transpose
    want = sorted(a.shape[0] - 1 - c for c in rref(a[::-1].T, p)[1])
    assert np.flatnonzero(last[2]).tolist() == want


def test_sparse_gate_takes_large_sparse_matrices_only():
    n = linalg._SPARSE_MIN_ENTRIES
    k = int(n * linalg._SPARSE_MAX_DENSITY)
    a = np.zeros((1, n), dtype=np.int64)
    a[0, :k] = 1
    assert [x.tolist() for x in linalg._sparse_nonzeros(a)] == [[0] * k, list(range(k))]
    assert linalg._sparse_nonzeros(a[:, 1:]) is None
    a[0, k] = 1
    assert linalg._sparse_nonzeros(a) is None
