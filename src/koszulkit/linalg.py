"""Exact linear algebra over F_p on int64 numpy arrays.

Matrices hold canonical representatives in [0, p). The dense loop and the
back-substitutions form one product of two entries before each reduction,
which stays below p^2 < 2^62, so it is exact in int64 for every allowed
modulus (p < 2^31); the small and sparse paths compute in Python ints,
which are exact at any p. A matrix product sums k such products, which
can pass 2^63; `matmul_mod` is the one product that is exact for every
allowed modulus, and `Echelon.reduce` goes through it.

No code of the package uses the incremental `Echelon`: it serves only the
tests, as the reference the sieves are checked against, and the
benchmark's span recorder, which counts its calls.

`rref`, `pivot_columns`, `rank` and `nullspace` take a matrix as an int64
array or as its `Nonzeros`: its shape and nonzero entries, the form in
which the resolution engine keeps its degree maps. One gate sends it to one
of three paths, from the shape and the count of nonzero entries alone. A
matrix of at most `_SMALL_MAX_ENTRIES` entries goes to `_small_echelon`,
which keeps its rows as Python lists; the certificate checks and most
syzygy steps of the theorem suites make thousands of such matrices, whose
cost on the other paths is per-call and per-column set-up. A larger array
is read into its `Nonzeros` by one scan, and from there both forms meet the
same test: a matrix with at least `_SPARSE_MIN_ENTRIES` entries of which at
most a `_SPARSE_MAX_DENSITY` share are nonzero goes to `_sparse_echelon`,
which keeps each row as a dict of its nonzero entries and reduces it by the
pivot rows found so far with `_reduce_row`, the reducer pass of F4 that
`groebner` also reduces its Macaulay rows with; the degree maps of
resolutions over monomial rings are such matrices. Both reduce entries mod
p and combine them in Python ints. Every other matrix goes to
`_dense_echelon`, the int64 loop whose single products stay below 2^62 as
said above; it is the fastest where the matrix is large and many entries
are nonzero. It eliminates forward only, reducing its input and each
rank-1 update by floor division, x - (x // p) * p, exact for every int64 x
and in NumPy two to four times as fast as x % p. It moves no row: the
pivot of each column is the first row in input order that is not yet a
pivot row, so it returns its pivot rows, the row rank profile of the
matrix, with its pivot columns, the column rank profile (Dumas, Pernet and
Sultan, ISSAC 2013). `_takes_dense_path` is the gate's test for this path.
The small path keeps its Gauss-Jordan rref, cheaper on tiny matrices than a
second pass. Past it, a path eliminates forward only, and one
back-substitution gives the rref at the asked columns alone: the sparse
path reduces each pivot row of its table by the later ones
(`_sparse_columns`), the dense one clears those columns above each pivot
(`_back_substitute`), and `rref` writes the identity at the pivots. Only
the small and dense paths build an array from a `Nonzeros`. All three make
every pivot 1, and the pivot columns and the rref of a matrix are unique,
so the three paths, and the two forms, give identical results.

`pivot_columns` and `rank` take the structural pivots of a matrix past the
small path before the gate (`_structural_pivots`): a row with one nonzero
entry mod p makes its column a pivot column, whatever the other rows hold.
Those columns are deleted with their entries until no row has one nonzero
entry, and only the rest is eliminated, or nothing where no entry is
left. This is the first stage of structured Gaussian elimination
(LaMacchia and Odlyzko, CRYPTO 1990). The sieves of resolutions over Koszul
fixtures rank degree maps that are nearly all structure: in one seed-101
pass of the `suites` benchmark, 7,687 of the 7,695 pivots that
`pivot_columns` finds past the small path are structural. `rref` and
`nullspace` go to the gate at once, as few of the pivots of their matrices
are (361 of 3,551 in that pass).

The kernel sieves of the resolution engine eliminate through two private
helpers, so that the choice of path is made here alone. `_last_entries`
marks the coordinates that are the last nonzero entry of a vector in the
column span of a degree map: the pivot columns of its reversed transpose,
structural pass included, or, where the caller keeps the echelon form and
the map takes the dense path, the pivot rows of one run of the dense loop
on its reversed rows, their echelon form kept for the next step. The one
routine that builds kernel rows is `_kernel_rows`, for `nullspace` (every
free column) and for the sieves (the free columns they keep): it reads
them off the small path's rref, or reduces at them alone the echelon form
of the sparse or dense path, or one kept of a dense map (`_back_substitute`),
so each dense degree map is eliminated once, and no sparse one is an array.
"""

from __future__ import annotations

import heapq

import numpy as np


class Nonzeros:
    """The matrix of the given shape whose only nonzero entries are values[k]
    at (rows[k], cols[k]), the index pairs distinct. The entries of a map
    built by the resolution engine are reduced mod p and sorted by column,
    then by row; `linalg` itself needs neither. Not to be changed once
    made."""

    __slots__ = ("shape", "rows", "cols", "values")

    def __init__(
        self, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ):
        self.shape = shape
        self.rows = rows
        self.cols = cols
        self.values = values

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def toarray(self) -> np.ndarray:
        a = np.zeros(self.shape, dtype=np.int64)
        a[self.rows, self.cols] = self.values
        return a

    def append_columns(self, columns: np.ndarray) -> "Nonzeros":
        """This matrix followed by the rows of the array `columns` as its last
        columns."""
        new, rows = np.nonzero(columns)
        values = columns[new, rows]
        new += self.shape[1]
        return Nonzeros(
            (self.shape[0], self.shape[1] + len(columns)),
            np.concatenate((self.rows, rows)),
            np.concatenate((self.cols, new)),
            np.concatenate((self.values, values)),
        )


def _int64_rows(rows, p: int) -> np.ndarray:
    """The integer rows as an int64 array, each entry outside int64 reduced
    mod p first: such entries come from certificate documents."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array([[x % p for x in row] for row in rows], dtype=np.int64)


def as_matrix(rows, ncols: int, p: int) -> np.ndarray:
    a = _int64_rows(rows, p)
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


def rref(a: np.ndarray | Nonzeros, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix without zero rows, pivot columns)."""
    form, pivots = _echelon(a, p, reduced=True)
    if isinstance(form, np.ndarray):
        return form, pivots
    free = np.setdiff1d(np.arange(a.shape[1]), pivots)
    r = np.zeros((len(pivots), a.shape[1]), dtype=np.int64)
    r[np.arange(len(pivots)), pivots] = 1
    r[:, free] = form(free)
    return r, pivots


def pivot_columns(a: np.ndarray | Nonzeros, p: int) -> list[int]:
    """The pivot columns of `a` (those of its rref), found from its structural
    pivots and by elimination below the pivots only."""
    return _echelon(a, p, reduced=False)[1]


# Chosen by timing the sparse and dense paths on each of the 286
# eliminations past the small path of one seed-101 pass of the four
# benchmark workloads, on a 2-vCPU virtual machine (best of 7). At most 5%
# nonzero with 300 entries or more (125 matrices), the sparse path was the
# faster on every one, 3.4 times in sum. At p <= 32003 it was also the
# faster on all 89 matrices at 5-20% nonzero; at p = 2^31 - 1, whose
# products are multi-digit Python ints, the dense path was the faster on 38
# of the 44 matrices of 300 entries or more over 10% nonzero, 6.8 times in
# sum. Of the 89 matrices of 101 to 299 entries only 9 are that sparse. The
# gate reads the count of nonzeros (`len(a.values)`) at no cost, but the
# size band showed no gain when dropped: on the same machine, seed-101
# `wall_s` read +0.4% on `resolve` (4/8 pairs won) and +0.6% on `suites`
# (3/8), so it stays.
_SPARSE_MIN_ENTRIES = 300
_SPARSE_MAX_DENSITY = 0.05

# Chosen by timing the list kernel against the dense loop on the
# eliminations of one seed-101 pass of each benchmark workload, on a 2-vCPU
# virtual machine (matrices in the range: dense -> list seconds, summed,
# best of 9):
#
#   workload        at most 100 entries          101 to 300 entries
#   certificates    3,987: 0.076  -> 0.025 s      12: 0.0008 -> 0.0003 s
#   suites          2,208: 0.048  -> 0.017 s     136: 0.0135 -> 0.0058 s
#   resolve            81: 0.0047 -> 0.0024 s     36: 0.0043 -> 0.0016 s
#   resolve-largep     43: 0.0014 -> 0.0011 s     25: 0.0029 -> 0.0055 s
#
# The dense loop pays per numpy call, whatever the size (some six per column
# when this was timed, fewer now); the list kernel pays per entry, and more
# at p = 2^31 - 1, whose products near p^2 are multi-digit Python ints.
# Past 100 entries it still wins at p <= 32003 but loses at p = 2^31 - 1.
_SMALL_MAX_ENTRIES = 100


def _echelon(a, p, reduced):
    """(form, pivot columns) of `a` by the path the module docstring names:
    with `reduced`, the small path's rref or the function `_gate` returns,
    and without it None. Without `reduced`, a matrix past the small path has
    its structural pivots taken first, and only the rest is eliminated."""
    if not isinstance(a, Nonzeros):
        a = np.asarray(a, dtype=np.int64)
    if a.size <= _SMALL_MAX_ENTRIES:
        return _small_echelon(a.toarray() if isinstance(a, Nonzeros) else a, p, reduced)
    if not isinstance(a, Nonzeros):
        rows, cols = np.nonzero(a)
        a = Nonzeros(a.shape, rows, cols, a[rows, cols])
    return _gate(a, p) if reduced else (None, _structural_pivots(a, p))


def _takes_dense_path(a: Nonzeros) -> bool:
    """Whether the gate sends the `Nonzeros` `a` to the dense loop: past the
    small path, and below the size or over the density of the sparse one."""
    return a.size > _SMALL_MAX_ENTRIES and (
        a.size < _SPARSE_MIN_ENTRIES or len(a.values) > _SPARSE_MAX_DENSITY * a.size
    )


def _gate(a, p):
    """(form, pivot columns) of the `Nonzeros` `a`, past the small path, by
    the sparse or dense path, chosen from its shape and its count of nonzero
    entries: the form is the function that gives its rref at given columns."""
    if not _takes_dense_path(a):
        table = _sparse_echelon(a.shape, a.rows, a.cols, a.values, p)
        return (lambda cols: _sparse_columns(table, a.shape[1], p, cols)), sorted(table)
    e = a.toarray()
    pivots, at = _dense_echelon(e, p)
    return (lambda cols: _back_substitute(e[at], pivots, cols, p)), pivots


def _structural_pivots(a, p):
    """The pivot columns of the `Nonzeros` `a`, its structural pivots first.

    A row whose only nonzero entry mod p lies in column c makes c a pivot
    column, as every column before c is zero in that row. The same row
    forces the coefficient of c to 0 in any combination of columns equal to
    a later column, which is zero there too. So the pivots of `a` are the
    columns so found together with the pivots of what is left once they and
    their rows are deleted. Deleting them can leave new rows with one
    nonzero entry, so this is repeated until no row has one; the rest,
    renumbered to its rows and columns that still hold a nonzero, takes the
    small path or the gate; a matrix with no such row takes the gate as it is.
    """
    nrows, ncols = a.shape
    rows, cols, values = a.rows, a.cols, a.values % p
    if not values.all():
        nz = np.flatnonzero(values)
        rows, cols, values = rows[nz], cols[nz], values[nz]
    peeled = np.zeros(ncols, dtype=bool)
    while True:
        count = np.bincount(rows, minlength=nrows)
        single = count[rows] == 1
        if not single.any():
            break
        peeled[cols[single]] = True
        kept = np.flatnonzero(~peeled[cols])
        rows, cols, values = rows[kept], cols[kept], values[kept]
    if not peeled.any():
        return _gate(a, p)[1]
    if len(values):
        live = np.bincount(cols, minlength=ncols) > 0
        row_at = np.cumsum(count > 0) - 1
        col_at = np.cumsum(live) - 1
        shape = (int(row_at[-1]) + 1, int(col_at[-1]) + 1)
        rest = Nonzeros(shape, row_at[rows], col_at[cols], values)
        small = rest.size <= _SMALL_MAX_ENTRIES
        at = (_small_echelon(rest.toarray(), p, False) if small else _gate(rest, p))[1]
        peeled[np.flatnonzero(live)[at]] = True
    return np.flatnonzero(peeled).tolist()


def _small_echelon(a, p, reduced):
    """`_echelon` of `a` on Python lists: row echelon form with monic pivots,
    and with `reduced` every pivot column also cleared above its pivot.

    The rows are lists reduced mod p and combined in Python ints. The pivot
    of a column is its first nonzero row at or below the current one, swapped
    into place; the rows it clears are each rebuilt by one list
    comprehension.
    """
    rows = [[x % p for x in row] for row in a.tolist()]
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for piv in range(r, nrows):
            if rows[piv][c]:
                break
        else:
            continue
        row = rows[piv]
        rows[piv] = rows[r]
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row = [x * inv % p for x in row]
        rows[r] = row
        for i in range(0 if reduced else r + 1, nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], row)]
        pivots.append(c)
        r += 1
    if not reduced:
        return None, pivots
    return np.array(rows[:r], dtype=np.int64).reshape(r, ncols), pivots


def _floor_mod(x, p):
    """Reduce the int64 array x mod p into [0, p), in place, as
    x - (x // p) * p: NumPy's `//` by a scalar needs no hardware divide per
    entry, and its `%` does. One temporary of x's size, not two."""
    q = x // p
    q *= p
    x -= q


def _dense_echelon(a, p):
    """(pivot columns, pivot rows in the same order) of `a`, a C-contiguous
    int64 array that it overwrites: `a[pivot rows]` is then a row echelon
    form with monic pivots, which `_back_substitute` reduces.

    No row is moved. Each column costs one scan of its rows that are
    nonzero there and not yet pivot rows: the first, in input order, is the
    pivot row of the column, and it clears the rest. A row that is not a
    pivot row is zero left of the column, so a rank-1 update changes only
    the columns from it on, and it has been cleared only by pivot rows
    above it in the input. So each pivot row is independent of the rows
    above it, every other row depends on them, and the pivot rows are the
    row rank profile of `a`. A pivot that is already 1 is not scaled. An
    update leaves its entries in (-(p-1)^2, p), and `_floor_mod` brings
    them back to [0, p)."""
    _floor_mod(a, p)
    nrows, ncols = a.shape
    pivots: list[int] = []
    at: list[int] = []
    free = np.ones(nrows, dtype=bool)
    for c in range(ncols):
        if len(at) == nrows:
            break
        live = a[:, c].nonzero()[0]
        live = live[free[live]]
        if not len(live):
            continue
        piv, live = int(live[0]), live[1:]
        row = a[piv, c:]
        f = int(row[0])
        if f != 1:
            row *= pow(f, -1, p)
            row %= p
        if len(live):
            sub = a[live, c:]
            sub -= sub[:, :1] * row
            _floor_mod(sub, p)
            a[live, c:] = sub
        free[piv] = False
        pivots.append(c)
        at.append(piv)
    return pivots, at


def _reduce_row(row: dict[int, int], table: dict[int, list], p: int) -> dict[int, int]:
    """The row {column: entry} reduced by the monic reducers of `table`
    ({leading column: its other entries, at larger columns}) until no column
    of the row leads one; reducers are taken at increasing columns, so a
    column once cleared never returns."""
    heap = [c for c in row if c in table]
    heapq.heapify(heap)
    while heap:
        c = heapq.heappop(heap)
        f = row.pop(c, None)
        if f is None:
            continue
        for k, v in table[c]:
            old = row.get(k)
            if old is None:
                # f and v are nonzero mod the prime p, so this is too
                row[k] = -f * v % p
                if k in table:
                    heapq.heappush(heap, k)
            elif w := (old - f * v) % p:
                row[k] = w
            else:
                del row[k]
    return row


def _sparse_echelon(shape, rows, cols, values, p):
    """The table {pivot column: the other entries of its monic pivot row} of
    a row echelon form of the matrix of the given shape whose only nonzero
    entries are values[k] at (rows[k], cols[k]) (index pairs distinct),
    without building it.

    Each row is a dict {column: entry}, entries reduced mod p first and
    combined in Python ints. The rows are taken in order, each reduced by
    the pivot rows found so far (`_reduce_row`, the reducer pass of F4); a
    remainder, made monic, is the pivot row of its first column.
    """
    entries: list[dict[int, int]] = [{} for _ in range(shape[0])]
    for r, c, v in zip(rows.tolist(), cols.tolist(), (values % p).tolist()):
        if v:
            entries[r][c] = v
    table: dict[int, list] = {}
    for row in entries:
        if row := _reduce_row(row, table, p):
            c = min(row)
            inv = pow(row.pop(c), -1, p)
            tail = row.items()
            table[c] = list(tail) if inv == 1 else [(k, v * inv % p) for k, v in tail]
    return table


def _sparse_columns(table, ncols, p, cols):
    """The columns `cols` of the rref of the matrix of `ncols` columns whose
    pivot rows `_sparse_echelon` returns as `table`: each is reduced by the
    later ones, last pivot first, and only those columns are gathered."""
    pivots = sorted(table)
    for c in reversed(pivots):
        # most tails hold no pivot column; those are left as they are
        if any(k in table for k, _v in table[c]):
            table[c] = list(_reduce_row(dict(table[c]), table, p).items())
    at = np.full(ncols, len(cols))  # the other columns go to a last one, dropped
    at[cols] = np.arange(len(cols))
    out = np.zeros((len(pivots), len(cols) + 1), dtype=np.int64)
    i = np.repeat(np.arange(len(pivots)), [len(table[c]) for c in pivots])
    out[i, at[[k for c in pivots for k, _ in table[c]]]] = [v for c in pivots for _, v in table[c]]
    return out[:, :-1]


def rank(a: np.ndarray | Nonzeros, p: int) -> int:
    return len(pivot_columns(a, p))


def nullspace(a: np.ndarray | Nonzeros, p: int) -> np.ndarray:
    """Basis of {v : a @ v = 0 mod p}, rows of the result, canonical from rref."""
    return _kernel_rows(a, p)[0]


def _kernel_rows(a, p, wanted=None, echelon=None):
    """(rows, rank of `a`): the rows of the rref kernel basis of `a`, one for
    each free column F in the mask `wanted` (for every free column where it
    is None), 1 at F, -rref[:, F] at the pivot columns and 0 elsewhere.

    Those columns of the rref are read off the small path's rref of `a`, or
    reduced alone from its forward pass or, where `echelon` is given, from
    the dense echelon form (rows, pivot columns) `_last_entries` keeps of its
    leading columns; the later columns must be independent modulo those.

    `nullspace` asks for every free column by None: the certificate checks
    take hundreds of kernels of small matrices, whose free columns cost less
    to list than to mask."""
    ncols = a.shape[1]
    if echelon is None:
        (form, pivots), width = _echelon(a, p, reduced=True), ncols
    else:
        e, pivots = echelon
        form, width = (lambda cols: _back_substitute(e, pivots, cols, p)), e.shape[1]
    # the columns past the echelon form's are pivots
    if wanted is None:
        pivot_set = set(pivots)
        free = [c for c in range(width) if c not in pivot_set]
    else:
        free = wanted[:width].copy()
        free[pivots] = False
        free = free.nonzero()[0]
    r_free = form[:, free] if isinstance(form, np.ndarray) else form(free)
    rows = np.zeros((len(free), ncols), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    if pivots:
        # the columns are a copy: negate them in place
        np.negative(r_free, out=r_free)
        r_free %= p
        rows[:, pivots] = r_free.T
    return rows, len(pivots) + ncols - width


def _last_entries(vectors, p, keep=False):
    """(mask, echelon or None): the mask of the coordinates that are the last
    nonzero entry of some vector in the span of the columns of the
    `Nonzeros` `vectors`, their row rank profile read from the bottom.

    Coordinate j is such an entry exactly when row j is independent of the
    rows below it. With `keep`, where `vectors` takes the dense path, one
    run of the dense loop on its rows in reverse order finds those rows as
    its pivot rows, and its echelon form of `vectors`, (pivot rows, pivot
    columns), is returned for `_kernel_rows`. Otherwise the mask is read
    from the pivot columns of the reversed transpose, whose nonzeros are
    those of `vectors` with the roles swapped, structural pivots first, and
    no echelon form is returned."""
    n, k = vectors.shape
    last = np.zeros(n, dtype=bool)
    if keep and _takes_dense_path(vectors):
        a = Nonzeros((n, k), n - 1 - vectors.rows, vectors.cols, vectors.values).toarray()
        pivots, at = _dense_echelon(a, p)
        last[n - 1 - np.array(at, dtype=np.int64)] = True
        return last, (a[at], pivots)
    if k:
        reversed_rows = Nonzeros((k, n), vectors.cols, n - 1 - vectors.rows, vectors.values)
        last[n - 1 - np.array(pivot_columns(reversed_rows, p), dtype=np.int64)] = True
    return last, None


def _back_substitute(e: np.ndarray, pivots: list[int], cols, p: int) -> np.ndarray:
    """The columns `cols` of the rref of the row echelon form `e`, whose row j
    is monic at pivots[j] and zero before it. Only those columns are cleared
    above each pivot, last pivot first, so the pivot columns are read but
    never updated."""
    u = e[:, pivots]
    b = e[:, cols]
    for j in range(len(pivots) - 1, 0, -1):
        above = u[:j, j].nonzero()[0]
        if len(above):
            sub = b[above]
            sub -= u[above, j, None] * b[j]
            _floor_mod(sub, p)
            b[above] = sub
    return b


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
        v *= pow(int(v[piv]), -1, self.p)
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
