"""Independent checks of koszulkit's outputs.

Nothing here imports koszulkit. Polynomials are plain dicts
``{exponent tuple: coefficient mod p}`` and every statement about an ideal or
a module is settled degree by degree, by ranks of spanning sets inside the
monomial basis of the polynomial ring ``S = F_p[x_1..x_n]``. Row reduction
keeps every product below ``p^2 < 2^62``, so int64 is exact for ``p < 2^31``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np


@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    if d < 0:
        return ()
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict:
    return {m: i for i, m in enumerate(monomials(n, d))}


def degree(f: dict) -> int:
    return sum(next(iter(f)))


def mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def add_into(acc: dict, f: dict, p: int) -> None:
    for m, c in f.items():
        acc[m] = (acc.get(m, 0) + c) % p


def linear_form(row, p: int) -> dict:
    n = len(row)
    out = {}
    for i, c in enumerate(row):
        if c % p:
            e = [0] * n
            e[i] = 1
            out[tuple(e)] = c % p
    return out


def vector(f: dict, n: int, d: int) -> np.ndarray:
    idx = monomial_index(n, d)
    v = np.zeros(len(idx), dtype=np.int64)
    for m, c in f.items():
        v[idx[m]] = c
    return v


# ------------------------------------------------------------ linear algebra


def echelon(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon basis of the row span, and its pivot columns."""
    a = np.array(rows, dtype=np.int64) % p
    if a.ndim != 2 or a.shape[0] == 0:
        width = a.shape[1] if a.ndim == 2 else 0
        return np.zeros((0, width), dtype=np.int64), []
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - col[hit, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(rows: np.ndarray, p: int) -> int:
    return len(echelon(rows, p)[1])


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for entries in [0, p), p < 2^31, inner size < 2^16.

    The left operand is split into 16-bit limbs, so every partial sum stays
    below 2^16 * 2^16 * 2^31 = 2^63.
    """
    lo = a & 0xFFFF
    hi = a >> 16
    return ((((hi @ b) % p) * 65536) % p + (lo @ b) % p) % p


def remainder(rows: np.ndarray, basis: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Rows reduced modulo a reduced echelon basis (canonical remainders)."""
    rows = np.asarray(rows, dtype=np.int64) % p
    if not pivots or rows.shape[0] == 0:
        return rows
    return (rows - _matmul_mod(rows[:, pivots], basis, p)) % p


# ---------------------------------------------------------- quotient rings


class Quotient:
    """S/I for homogeneous generators of I, one degree piece at a time."""

    def __init__(self, n: int, p: int, gens: list[dict]):
        self.n = n
        self.p = p
        self.gens = [g for g in gens if g]
        self._ideal: dict[int, tuple[np.ndarray, list[int]]] = {}

    def ideal_piece(self, d: int) -> tuple[np.ndarray, list[int]]:
        """Echelon basis of I_d inside S_d."""
        got = self._ideal.get(d)
        if got is None:
            rows = [
                vector(mul(g, {u: 1}, self.p), self.n, d)
                for g in self.gens
                for u in monomials(self.n, d - degree(g))
            ]
            width = len(monomials(self.n, d))
            got = echelon(np.array(rows).reshape(-1, width), self.p)
            self._ideal[d] = got
        return got

    def hilbert(self, d_max: int) -> list[int]:
        return [len(monomials(self.n, d)) - len(self.ideal_piece(d)[1]) for d in range(d_max + 1)]

    def in_ideal(self, polys: list[dict], d: int) -> bool:
        """True when every degree-d polynomial of the list lies in I."""
        if not polys:
            return True
        rows = np.stack([vector(f, self.n, d) for f in polys])
        basis, pivots = self.ideal_piece(d)
        return not remainder(rows, basis, pivots, self.p).any()


class Presentation:
    """M = F/U with F free on shifted generators and U = columns + I*F."""

    def __init__(self, ring: Quotient, shifts: tuple[int, ...], columns: list[list[dict]]):
        self.ring = ring
        self.shifts = tuple(shifts)
        self.columns = [c for c in columns if any(c)]
        self._pieces: dict[int, tuple[np.ndarray, list[int]]] = {}

    def free_vector(self, comps: list[dict], d: int) -> np.ndarray:
        n = self.ring.n
        return np.concatenate(
            [vector(f, n, d - s) for f, s in zip(comps, self.shifts)]
            or [np.zeros(0, dtype=np.int64)]
        )

    def relation_piece(self, d: int) -> tuple[np.ndarray, list[int]]:
        """Echelon basis of U_d inside F_d."""
        got = self._pieces.get(d)
        if got is not None:
            return got
        n, p = self.ring.n, self.ring.p
        widths = [len(monomials(n, d - s)) for s in self.shifts]
        rows = []
        for col in self.columns:
            e = column_degree(col, self.shifts)
            for u in monomials(n, d - e):
                rows.append(self.free_vector([mul(f, {u: 1}, p) for f in col], d))
        offset = 0
        for s, w in zip(self.shifts, widths):
            basis, _ = self.ring.ideal_piece(d - s)
            for r in basis:
                row = np.zeros(sum(widths), dtype=np.int64)
                row[offset : offset + w] = r
                rows.append(row)
            offset += w
        got = echelon(np.array(rows, dtype=np.int64).reshape(-1, sum(widths)), p)
        self._pieces[d] = got
        return got

    def hilbert(self, d_max: int) -> list[int]:
        n = self.ring.n
        return [
            sum(len(monomials(n, d - s)) for s in self.shifts) - len(self.relation_piece(d)[1])
            for d in range(d_max + 1)
        ]


def column_degree(comps: list[dict], shifts) -> int:
    degs = {degree(f) + s for f, s in zip(comps, shifts) if f}
    if len(degs) != 1:
        raise ValueError(f"column is not graded: degrees {sorted(degs)}")
    return degs.pop()


def series_quotient(num: list[int], den: list[int], d_max: int) -> list[int]:
    """Power-series coefficients of num/den to degree d_max (den[0] = 1)."""
    out = []
    for d in range(d_max + 1):
        acc = num[d] if d < len(num) else 0
        for k in range(1, d + 1):
            acc -= (den[k] if k < len(den) else 0) * out[d - k]
        out.append(acc)
    return out


# ------------------------------------------------------------- resolutions


def check_resolution(
    pres: Presentation,
    free_shifts: list[tuple[int, ...]],
    steps: list[list[list[dict]]],
    entries: dict[tuple[int, int], int],
    i_max: int,
    d_max: int,
) -> list[str]:
    """Problems found in a truncated minimal resolution (empty when none).

    Checks that every differential entry lies in the maximal ideal, that the
    first differential maps into the relations, that consecutive
    differentials compose to zero modulo I, that the table matches the free
    modules, and the Euler characteristic sum_i (-1)^i b_ij = [t^j] H_M/H_R
    for j <= min(i_max, d_max) (modules generated in degree 0).
    """
    ring, p = pres.ring, pres.ring.p
    problems = []
    for i, cols in enumerate(steps, start=1):
        for k, col in enumerate(cols):
            e = column_degree(col, free_shifts[i - 1])
            if e != free_shifts[i][k]:
                problems.append(f"d_{i} column {k} has degree {e}, shift {free_shifts[i][k]}")
            if any(f and degree(f) < 1 for f in col):
                problems.append(f"d_{i} column {k} has a unit entry")
    for k, col in enumerate(steps[0] if steps else []):
        e = column_degree(col, free_shifts[0])
        basis, pivots = pres.relation_piece(e)
        if remainder(pres.free_vector(col, e)[None, :], basis, pivots, p).any():
            problems.append(f"d_1 column {k} is not a relation of the module")
    for i in range(1, len(steps)):
        outer, inner = steps[i], steps[i - 1]
        for k, col in enumerate(outer):
            e = column_degree(col, free_shifts[i])
            comps: list[dict] = [{} for _ in free_shifts[i - 1]]
            for coeff, target in zip(col, inner):
                if not coeff:
                    continue
                for r, entry in enumerate(target):
                    if entry:
                        add_into(comps[r], mul(coeff, entry, p), p)
            for r, s in enumerate(free_shifts[i - 1]):
                f = {m: c for m, c in comps[r].items() if c}
                if f and not ring.in_ideal([f], e - s):
                    problems.append(f"d_{i} o d_{i + 1} is nonzero on column {k}")
                    break
    counted: dict[tuple[int, int], int] = {}
    for i, shifts in enumerate(free_shifts):
        for j in shifts:
            counted[(i, j)] = counted.get((i, j), 0) + 1
    if {k: v for k, v in entries.items() if v} != counted:
        problems.append("Betti table does not match the free modules")
    j_top = min(i_max, d_max)
    expected = series_quotient(pres.hilbert(j_top), ring.hilbert(j_top), j_top)
    for j in range(j_top + 1):
        euler = sum((-1) ** i * entries.get((i, j), 0) for i in range(i_max + 1))
        if euler != expected[j]:
            problems.append(f"Euler characteristic fails at j = {j}: {euler} != {expected[j]}")
            break
    return problems


def froberg_totals(ring: Quotient, i_max: int) -> list[int]:
    """Coefficients of 1/H_R(-t): the Betti totals of k over a Koszul ring."""
    signed = [c if d % 2 == 0 else -c for d, c in enumerate(ring.hilbert(i_max))]
    return series_quotient([1], signed, i_max)


def poincare_rhs(pres: Presentation, expand_to: int) -> list[int]:
    """Coefficients of H_M(-t)/H_R(-t) (modules generated in degree 0)."""
    def at_minus_t(series):
        return [c if d % 2 == 0 else -c for d, c in enumerate(series)]

    return series_quotient(
        at_minus_t(pres.hilbert(expand_to)), at_minus_t(pres.ring.hilbert(expand_to)), expand_to
    )


# ------------------------------------------------------- linear-form colons


class LinearColons:
    """Colon and linear-ideal pieces in S/I for ideals spanned by linear forms."""

    def __init__(self, ring: Quotient):
        self.ring = ring
        self._sums: dict[tuple, tuple[np.ndarray, list[int]]] = {}
        self._colon: dict[tuple, tuple[int, ...]] = {}

    def sum_piece(self, rows: tuple, d: int) -> tuple[np.ndarray, list[int]]:
        """Echelon basis of ((rows) + I)_d inside S_d."""
        key = (rows, d)
        got = self._sums.get(key)
        if got is None:
            n, p = self.ring.n, self.ring.p
            vecs = [
                vector(mul(linear_form(r, p), {u: 1}, p), n, d)
                for r in rows
                for u in monomials(n, d - 1)
            ]
            basis, _ = self.ring.ideal_piece(d)
            width = len(monomials(n, d))
            stacked = np.concatenate(
                [np.array(vecs, dtype=np.int64).reshape(-1, width), basis]
            )
            got = echelon(stacked, p)
            self._sums[key] = got
        return got

    def ideal_dims(self, rows: tuple, d_top: int) -> tuple[int, ...]:
        """dim ((rows) + I)_d for d = 1..d_top."""
        return tuple(len(self.sum_piece(rows, d)[1]) for d in range(1, d_top + 1))

    def colon_dims(self, j_rows: tuple, g: tuple, d_top: int) -> tuple[int, ...]:
        """dim {f in S_d : f*g in (J) + I} for d = 1..d_top."""
        key = (j_rows, g, d_top)
        got = self._colon.get(key)
        if got is None:
            n, p = self.ring.n, self.ring.p
            gf = linear_form(g, p)
            dims = []
            for d in range(1, d_top + 1):
                basis, pivots = self.sum_piece(j_rows, d + 1)
                images = np.stack(
                    [vector(mul(gf, {u: 1}, p), n, d + 1) for u in monomials(n, d)]
                )
                dims.append(len(monomials(n, d)) - rank(remainder(images, basis, pivots, p), p))
            got = tuple(dims)
            self._colon[key] = got
        return got

    def contains_product(self, k_rows: tuple, g: tuple, j_rows: tuple) -> bool:
        """True when (k_rows)*g lies in (J) + I, checked in degree 2."""
        n, p = self.ring.n, self.ring.p
        if not k_rows:
            return True
        gf = linear_form(g, p)
        basis, pivots = self.sum_piece(j_rows, 2)
        prods = np.stack([vector(mul(linear_form(r, p), gf, p), n, 2) for r in k_rows])
        return not remainder(prods, basis, pivots, p).any()

    def colon_is(self, j_rows: tuple, g: tuple, k_rows: tuple, d_top: int) -> bool:
        """(J : g) = (K) in degrees 1..d_top: K*g in J + I and equal piece dimensions."""
        return self.contains_product(k_rows, g, j_rows) and (
            self.colon_dims(j_rows, g, d_top) == self.ideal_dims(k_rows, d_top)
        )


def span_rows(vectors, p: int) -> tuple:
    """Canonical (reduced echelon) rows of the span of integer vectors."""
    if not len(vectors):
        return ()
    basis, _ = echelon(np.array(vectors, dtype=np.int64), p)
    return tuple(tuple(int(c) for c in row) for row in basis)


def subspace_count(n: int, p: int) -> int:
    """Number of subspaces of F_p^n, as a sum of Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p**n - p**i
            den *= p**k - p**i
        total += num // den
    return total


def lines(n: int, p: int) -> list[tuple[int, ...]]:
    """One nonzero vector per line of F_p^n."""
    out = []
    for v in product(range(p), repeat=n):
        nz = [c for c in v if c]
        if nz and nz[0] == 1:
            out.append(v)
    return out


def complete_flags(n: int, p: int) -> list[list[tuple[int, ...]]]:
    """Every complete flag of F_p^n, once each, as forms whose prefixes span it.

    Each next form is a line representative that vanishes at the leading
    positions of the forms before it; these represent the lines of the
    quotient space, so every flag arises exactly once.
    """
    flags: list[list[tuple[int, ...]]] = [[]]
    for _ in range(n):
        flags = [
            forms + [v]
            for forms in flags
            for v in lines(n, p)
            if all(v[next(i for i, c in enumerate(u) if c)] == 0 for u in forms)
        ]
    return flags


def flag_count(n: int, p: int) -> int:
    """Number of complete flags of F_p^n: prod_k (p^k - 1)/(p - 1)."""
    out = 1
    for k in range(1, n + 1):
        out *= (p**k - 1) // (p - 1)
    return out


def flag_colon_index(
    colons: LinearColons, forms: list, step: int, d_top: int
) -> int | None:
    """The j with (l_1..l_{step-1}) : l_step = (l_1..l_j), or None."""
    p = colons.ring.p
    j_rows = span_rows(forms[: step - 1], p)
    for j in range(len(forms) + 1):
        if colons.colon_is(j_rows, tuple(forms[step - 1]), span_rows(forms[:j], p), d_top):
            return j
    return None
