"""Exact linear algebra over F_p on int64 numpy arrays.

Matrices hold canonical representatives in [0, p). Row reduction (`rref`,
`Echelon`) forms one product of two entries before each reduction, which
stays below p^2 < 2^62, so it is exact in int64 for every allowed modulus
(p < 2^31). A matrix product sums k such products, which can pass 2^63;
`matmul_mod` is the one product that is exact for every allowed modulus.
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
    """Exact (a @ b) mod p for int64 matrices with entries in [0, p), p < 2^31.

    With inner dimension k, the plain int64 product is used when
    k * (p-1)^2 < 2^63 (always so at p = 32003). Otherwise `a` is split into
    16-bit limbs and k is cut into chunks of 2^15, so that every partial sum
    stays below 2^15 * 2^16 * 2^31 = 2^62.
    """
    k = a.shape[1]
    if k * (p - 1) ** 2 < 1 << 63:
        return (a @ b) % p
    low, high = a & ((1 << _LIMB_BITS) - 1), a >> _LIMB_BITS
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, k, _CHUNK):
        b_c = b[lo : lo + _CHUNK]
        out += (low[:, lo : lo + _CHUNK] @ b_c) % p
        out += (((high[:, lo : lo + _CHUNK] @ b_c) % p) << _LIMB_BITS) % p
        out %= p
    return out


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix without zero rows, pivot columns)."""
    a = np.mod(np.array(a, dtype=np.int64), p)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            a[nz] = (a[nz] - col[nz, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return rref(a, p)[0].shape[0]


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of {v : a @ v = 0 mod p}, rows of the result, canonical from rref."""
    nrows, ncols = a.shape
    r, pivots = rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(r[i, fc])) % p
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
    """Incremental row-echelon container for span bookkeeping over F_p."""

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> np.ndarray:
        v = np.mod(np.array(v, dtype=np.int64), self.p)
        for row, piv in zip(self.rows, self.pivots):
            c = int(v[piv])
            if c:
                v = (v - c * row) % self.p
        return v

    def add(self, v) -> bool:
        """Reduce v against the span; insert if independent. True if inserted."""
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(v[piv]), self.p - 2, self.p)
        v = (v * inv) % self.p
        for i, row in enumerate(self.rows):
            c = int(row[piv])
            if c:
                self.rows[i] = (row - c * v) % self.p
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))
