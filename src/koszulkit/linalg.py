"""Exact linear algebra over F_p on int64 numpy arrays.

Matrices hold canonical representatives in [0, p). `rref` and the
back-substitution of `Echelon.add` form one product of two entries before
each reduction, which stays below p^2 < 2^62, so it is exact in int64 for
every allowed modulus (p < 2^31). A matrix product sums k such products,
which can pass 2^63; `matmul_mod` is the one product that is exact for every
allowed modulus, and `Echelon.reduce` goes through it.
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


def _echelon(a, p, reduced):
    """Row echelon form of a copy of `a` with monic pivots: (matrix without
    zero rows, pivot columns). With `reduced`, every pivot column is also
    cleared above its pivot, which gives the rref."""
    a = np.mod(np.asarray(a, dtype=np.int64), p, order="C")
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
    return a[:r], pivots


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


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a @ x = b mod p, or None."""
    nrows, ncols = a.shape
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    r, pivots = rref(aug, p)
    x = np.zeros(ncols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = r[i, ncols]
    return x


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
