"""Exact linear algebra over F_p on int64 numpy arrays.

Matrices hold canonical representatives in [0, p). `rref` and the
back-substitution of `Echelon.add` form one product of two entries before
each reduction, which stays below p^2 < 2^62, so it is exact in int64 for
every allowed modulus (p < 2^31). A matrix product sums k such products,
which can pass 2^63; `matmul_mod` is the one product that is exact for every
allowed modulus, and `Echelon.reduce` goes through it.

No code of the package uses the incremental `Echelon`: it serves only the
tests, as the reference the sieves are checked against, and the
benchmark's span recorder, which counts its calls.

`rref` and `pivot_columns` eliminate on one of two paths, chosen from the
matrix alone. A matrix with at least `_SPARSE_MIN_ENTRIES` entries of which
at most a `_SPARSE_MAX_DENSITY` share are nonzero goes to
`_sparse_echelon`, which keeps each row as a dict of its nonzero entries
reduced mod p and computes in Python ints, so it is exact for every p; the
degree maps of resolutions over monomial rings are such matrices. Every
other matrix goes to `_dense_echelon`, the int64 loop whose single products
stay below 2^62 as said above. The sparse path is faster where few entries are
nonzero, the dense one where many are. Both take the columns left to right
and make every pivot 1, and the pivot columns and the rref of a matrix are
unique, so the two paths give identical results.
"""

from __future__ import annotations

import numpy as np


def as_matrix(rows, ncols: int, p: int) -> np.ndarray:
    a = np.array(rows, dtype=np.int64)
    if a.size == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    a = a.reshape(-1, ncols)
    return np.mod(a, p)


_LIMB_BITS = 16
_CHUNK = 1 << 15


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 matrices with entries in [0, p), p < 2^31;
    `b` may also be a stack of matrices, one product each.

    With inner dimension k, the plain int64 product is used when
    k * (p-1)^2 < 2^63 (always so at p = 32003). Otherwise `a` is split into
    16-bit limbs and k is cut into chunks of 2^15, so that every partial sum
    stays below 2^15 * 2^16 * 2^31 = 2^62.
    """
    k = a.shape[1]
    if k * (p - 1) ** 2 < 1 << 63:
        return (a @ b) % p
    low, high = a & ((1 << _LIMB_BITS) - 1), a >> _LIMB_BITS
    out = np.zeros(b.shape[:-2] + (a.shape[0], b.shape[-1]), dtype=np.int64)
    for lo in range(0, k, _CHUNK):
        b_c = b[..., lo : lo + _CHUNK, :]
        out += (low[:, lo : lo + _CHUNK] @ b_c) % p
        out += (((high[:, lo : lo + _CHUNK] @ b_c) % p) << _LIMB_BITS) % p
        out %= p
    return out


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix without zero rows, pivot columns)."""
    return _echelon(a, p, reduced=True)


def pivot_columns(a: np.ndarray, p: int) -> list[int]:
    """The pivot columns of `a` (those of its rref), found by elimination below
    the pivots only."""
    return _echelon(a, p, reduced=False)[1]


# Chosen by timing both paths on each of the 7,123 eliminations of one pass
# of the four benchmark workloads. At most 5% nonzero, the sparse path was
# the faster at every size; at 10-20% nonzero and 3,000 entries or more the
# dense path was 2-4 times faster. The density test costs about 3 us, and
# of the 6,435 matrices under 300 entries (the certificate checks make
# nearly 4,000) only 60 are that sparse, so smaller matrices skip the test.
_SPARSE_MIN_ENTRIES = 300
_SPARSE_MAX_DENSITY = 0.05


def _echelon(a, p, reduced):
    """(rref without zero rows, pivot columns) of `a` with `reduced`, and
    (None, pivot columns) without, by the path the module docstring names."""
    a = np.asarray(a, dtype=np.int64)
    nonzeros = _sparse_nonzeros(a)
    if nonzeros is None:
        return _dense_echelon(a, p, reduced)
    rows, cols = nonzeros
    return _sparse_echelon(a.shape, rows, cols, a[rows, cols], p, reduced)


def _sparse_nonzeros(a):
    """The (row, column) index arrays of the nonzero entries of `a` when it
    takes the sparse path, else None."""
    if a.size < _SPARSE_MIN_ENTRIES:
        return None
    flat = np.flatnonzero(a.ravel() != 0)
    if len(flat) > _SPARSE_MAX_DENSITY * a.size:
        return None
    return np.divmod(flat, a.shape[1])


def _dense_echelon(a, p, reduced):
    """`_echelon` on a dense copy of `a`: row echelon form with monic pivots,
    and with `reduced` every pivot column also cleared above its pivot."""
    a = np.mod(a, p, order="C")
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        if a[r, c]:
            piv = r
        else:
            below = a[r + 1 :, c].nonzero()[0]
            if below.size == 0:
                continue
            piv = r + 1 + int(below[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # row r is zero left of c, so only columns c.. change
        a[r, c:] = (a[r, c:] * pow(int(a[r, c]), p - 2, p)) % p
        if reduced:
            col = a[:, c].copy()
            col[r] = 0
            nz = col.nonzero()[0]
        else:
            nz = r + 1 + a[r + 1 :, c].nonzero()[0]
        if nz.size:
            # updating one copy in place makes two temporaries of its size, not four
            sub = a[nz, c:]
            sub -= sub[:, :1] * a[r, c:]
            sub %= p
            a[nz, c:] = sub
        pivots.append(c)
        r += 1
    return (a[:r] if reduced else None), pivots


def _sparse_echelon(shape, rows, cols, values, p, reduced):
    """`_echelon` of the matrix of the given shape whose only nonzero entries
    are values[k] at (rows[k], cols[k]) (index pairs distinct), without
    building it.

    Each row is a dict {column: entry}, entries reduced mod p first and
    combined in Python ints. Columns are taken left to right; the pivot of a
    column is its remaining row with the fewest nonzeros, which keeps fill-in
    low, and it is cleared from the other remaining rows only. With
    `reduced`, the pivot rows are then cleared above each other, last pivot
    first, and returned as a dense matrix.
    """
    nrows, ncols = shape
    entries: list[dict[int, int]] = [{} for _ in range(nrows)]
    # rows_at[c]: the rows not yet used as pivots with a nonzero in column c
    rows_at: list[set[int]] = [set() for _ in range(ncols)]
    for r, c, v in zip(rows.tolist(), cols.tolist(), (values % p).tolist()):
        if v:
            entries[r][c] = v
            rows_at[c].add(r)
    pivots: list[int] = []
    echelon: list[dict[int, int]] = []
    for c in range(ncols):
        if len(pivots) == nrows:
            break
        if not rows_at[c]:
            continue
        r = min(rows_at[c], key=lambda r: len(entries[r]))
        row = entries[r]
        for k in row:
            rows_at[k].discard(r)
        inv = pow(row[c], p - 2, p)
        if inv != 1:
            row = {k: v * inv % p for k, v in row.items()}
        for r2 in list(rows_at[c]):
            other = entries[r2]
            f = other[c]
            for k, v in row.items():
                old = other.get(k)
                if old is None:
                    # f and v are nonzero mod the prime p, so this is too
                    other[k] = -f * v % p
                    rows_at[k].add(r2)
                elif w := (old - f * v) % p:
                    other[k] = w
                else:
                    del other[k]
                    rows_at[k].discard(r2)
        pivots.append(c)
        echelon.append(row)
    if not reduced:
        return None, pivots
    where = {c: i for i, c in enumerate(pivots)}
    for i in range(len(echelon) - 2, -1, -1):
        # the rows after i are reduced, so clearing one pivot column of row i
        # leaves its other pivot columns as they are
        row = echelon[i]
        for k in [k for k in row if k in where and k != pivots[i]]:
            f = row[k]
            for kk, v in echelon[where[k]].items():
                w = (row.get(kk, 0) - f * v) % p
                if w:
                    row[kk] = w
                else:
                    del row[kk]
    out = np.zeros((len(echelon), ncols), dtype=np.int64)
    at = np.repeat(np.arange(len(echelon)), [len(row) for row in echelon])
    out[at, [k for row in echelon for k in row]] = [v for row in echelon for v in row.values()]
    return out, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(pivot_columns(a, p))


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of {v : a @ v = 0 mod p}, rows of the result, canonical from rref."""
    nrows, ncols = a.shape
    r, pivots = rref(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
    if pivots:
        basis[:, pivots] = (-r[:, free].T) % p
    return basis


class Echelon:
    """Incremental reduced row-echelon basis of a span over F_p.

    The rows live in a preallocated int64 matrix that doubles when full. Every
    stored row is zero in the other rows' pivot columns and 1 in its own, so
    the rows are the RREF of the span, in insertion order.
    """

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self._rows = np.zeros((min(ncols, 16), ncols), dtype=np.int64)
        self._pivots = np.zeros(min(ncols, 16), dtype=np.int64)
        self.rank = 0

    @property
    def rows(self) -> np.ndarray:
        """The stored rows, a view of the first `rank` rows of the buffer."""
        return self._rows[: self.rank]

    def reduce(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64) % self.p
        coeffs = v[self._pivots[: self.rank]]
        hit = coeffs.nonzero()[0]
        if hit.size:
            v -= matmul_mod(coeffs[hit][None], self._rows[hit], self.p)[0]
            v %= self.p
        return v

    def add(self, v) -> bool:
        """Reduce v against the span; insert if independent. True if inserted."""
        v = self.reduce(v)
        nz = v.nonzero()[0]
        if nz.size == 0:
            return False
        piv = nz[0]
        v *= pow(int(v[piv]), self.p - 2, self.p)
        v %= self.p
        r = self.rank
        if r == len(self._rows):
            grow = min(2 * r, self.ncols)
            self._rows = np.resize(self._rows, (grow, self.ncols))
            self._pivots = np.resize(self._pivots, grow)
        col = self._rows[:r, piv]
        hit = col.nonzero()[0]
        if hit.size:
            self._rows[hit] = (self._rows[hit] - col[hit, None] * v) % self.p
        self._rows[r] = v
        self._pivots[r] = piv
        self.rank += 1
        return True

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))
