"""Standard graded quotient rings R = F_p[x]/I and graded R-modules.

Quotient elements are canonical normal forms against the reduced Groebner
basis of the defining ideal, by the divisors that basis builds once
(`groebner.normal_form`, which returns an element with no term in the
leading-term ideal as it is). Graded pieces, Hilbert series (exact rational
form via the monomial-ideal pivot recursion), minimal module presentations
and linear-form eliminations live here.
So do the one set of exact integer-series helpers (`_poly_add`, `_poly_mul`,
`_trim`, `_one_minus_t_power`, `_one_minus_t_inverse_power`,
`_series_divide`): every series computation of the package, in `filtration`
and `koszul` too, goes through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import comb
from typing import Callable, Sequence

import numpy as np

from .arith import (
    Monomial,
    Polynomial,
    PolynomialRing,
    mono_degree,
)
from .groebner import (
    FreeModuleVector,
    ModKey,
    buchberger,
    module_buchberger,
    normal_form,
    syzygies_over_poly_ring,
    top_order_key,
    _at_each_position,
    _division_leads,
    _melt_from_components,
    _melt_reduce,
    _melt_to_components,
    _minimalize_monomials,
)
from .linalg import rref


class QuotientRing:
    """Presentation of a standard graded algebra F_p[x_1..x_n]/I.

    The tables of the graded pieces are built by exponent arithmetic: the
    basis of R_d by a componentwise test of the degree-d exponent vectors
    against the leading monomials (`piece`), and the multiplication by every
    variable on R_e from exponent sums (`variable_action`). Over a
    non-monomial Groebner basis the normal form of a nonstandard product is
    read off the table of R_{e-1} and the reduced basis, by recursion on the
    tables: no table divides a `Polynomial`. `reduce` serves the edges,
    where polynomials come in or go out; `monomial_nf` and `mul_monomial_nf`
    are each one `reduce`, kept in no memo.

    Immutable after construction. Fill-once caches, so concurrent readers
    are safe: piece bases and their indices, the variable action of each
    degree (its entries grouped by monomial and variable, with the
    first-variable lifts into the next degree), its stacked matrix, and the
    public `linear_numerators`, `linear_eliminations` and `linear_colons`
    that `filtration` and `quotient_by_linear_forms` fill. Every table of
    the graded pieces is keyed by a degree alone: the degree maps between
    free modules read the variable action one block of equal shifts at a
    time.
    """

    def __init__(self, poly_ring: PolynomialRing, ideal_gens: Sequence[Polynomial]):
        self.poly_ring = poly_ring
        self.defining_generators = tuple(ideal_gens)
        self.gb = buchberger(list(ideal_gens), poly_ring.order)
        # whether every element of the reduced basis is a monomial
        self._monomial_gb = all(len(g.terms) == 1 for g in self.gb.generators)
        self._pieces: dict[int, tuple[Monomial, ...]] = {}
        self._piece_index: dict[int, dict[Monomial, int]] = {}
        self._actions: dict[int, tuple[np.ndarray, ...]] = {}
        self._var_stack: dict[int, np.ndarray] = {}
        # filtration._linear_numerator and quotient_by_linear_forms, keyed by
        # the RREF rows of a linear ideal, and filtration._linear_colon, keyed
        # by (J rows, J+(g) rows), as J:g = J:(J+(g))
        self.linear_numerators: dict[tuple[tuple[int, ...], ...], tuple[int, ...]] = {}
        self.linear_colons: dict[tuple, tuple] = {}
        self.linear_eliminations: dict[tuple[tuple[int, ...], ...], LinearElimination] = {}

    @property
    def p(self) -> int:
        return self.poly_ring.p

    @property
    def names(self) -> tuple[str, ...]:
        return self.poly_ring.names

    @property
    def nvars(self) -> int:
        return self.poly_ring.nvars

    @property
    def order(self):
        return self.poly_ring.order

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.defining_generators) or "0"
        return f"{self.poly_ring!r} / ({gens})"

    # -- arithmetic in the quotient

    def reduce(self, f: Polynomial) -> Polynomial:
        self.poly_ring.check_compatible(f.ring)
        return normal_form(f, self.gb)

    def is_zero(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def monomial_nf(self, m: Monomial) -> Polynomial:
        return self.reduce(self.poly_ring.monomial(m))

    def mul_monomial_nf(self, f: Polynomial, u: Monomial) -> Polynomial:
        """Normal form of u * f."""
        return self.reduce(f * self.poly_ring.monomial(u))

    def linear_form(self, coeffs: Sequence[int]) -> Polynomial:
        return self.poly_ring.linear_form(coeffs)

    # -- graded pieces

    def piece(self, d: int) -> tuple[Monomial, ...]:
        """Standard monomial basis of R_d (monomials outside the LT ideal), in
        the order of `monomials_of_degree(d)` (`_standard_monomials`)."""
        got = self._pieces.get(d)
        if got is None:
            monos = self.poly_ring.monomials_of_degree(d)
            got = _standard_monomials(monos, self.gb.leading_monomials())
            self._pieces[d] = got
        return got

    def piece_index(self, d: int) -> dict[Monomial, int]:
        got = self._piece_index.get(d)
        if got is None:
            got = {m: i for i, m in enumerate(self.piece(d))}
            self._piece_index[d] = got
        return got

    def dim_piece(self, d: int) -> int:
        return len(self.piece(d))

    def coords(self, f: Polynomial, d: int) -> np.ndarray:
        """Coordinates of a reduced degree-d element in the piece basis."""
        idx = self.piece_index(d)
        v = np.zeros(len(idx), dtype=np.int64)
        for m, c in f.terms:
            v[idx[m]] = c
        return v

    def variable_action(self, e: int) -> tuple[np.ndarray, ...]:
        """Multiplication by every variable from R_e to R_{e+1}, and the
        first-variable lifts into R_{e+1}: (start, count, rows, values,
        lifts), with start, count and lifts dim R_e x nvars arrays. x_v sends
        basis monomial k of R_e to values[i] at coordinate rows[i] for the
        count[k, v] indices i from start[k, v] on, rows increasing; the
        entries are sorted by v, then k, then row. lifts[k, v] is the index
        of x_v * m_k in the basis of R_{e+1} if it is standard and x_v is its
        first variable, else -1: every standard monomial u of degree e + 1
        is the lift of u / x_v, x_v its first variable (a divisor of a
        standard monomial is standard). Fill-once cache.

        Built from exponent sums: a standard product x_v * m is its own
        normal form, one entry 1 found by index lookup. A product outside the
        piece lies in the leading-term ideal; it is 0 when the reduced
        Groebner basis is monomial (the ideal then holds every such
        monomial), and only otherwise is its normal form read off the
        tables (`_nonstandard_entries`), with no polynomial division."""
        got = self._actions.get(e)
        if got is not None:
            return got
        n, src, index = self.nvars, self.piece(e), self.piece_index(e + 1)
        dim = len(src)
        exps = np.array(src, dtype=np.int64).reshape(dim, n)
        products = (exps + np.eye(n, dtype=np.int64)[:, None]).reshape(n * dim, n).tolist()
        # entry i = v * dim + k is x_v times basis monomial k
        rows = np.array([index.get(m, -1) for m in map(tuple, products)], dtype=np.int64)
        # x_v is the first variable of x_v * m_k when m_k has no variable before it
        lifts = np.where(exps.cumsum(1) == exps, rows.reshape(n, dim).T, -1)
        extra = [] if self._monomial_gb else self._nonstandard_entries(e, products, rows)
        at = np.flatnonzero(rows >= 0)
        rows, values = rows[at], np.ones(len(at), dtype=np.int64)
        if extra:
            more = np.array(extra, dtype=np.int64).T
            at, rows, values = (np.concatenate(z) for z in zip((at, rows, values), more))
            order = np.lexsort((rows, at))
            at, rows, values = at[order], rows[order], values[order]
        count = np.bincount(at, minlength=n * dim)
        start = count.cumsum() - count
        got = (start.reshape(n, dim).T, count.reshape(n, dim).T, rows, values, lifts)
        self._actions[e] = got
        return got

    def _nonstandard_entries(self, e, products, rows):
        """The entries (i, row, value) of `variable_action(e)` at its
        nonstandard products i = v * dim R_e + k (rows[i] < 0), by recursion
        on the tables, as FGLM (Faugere, Gianni, Lazard and Mora, 1993) does.

        Each distinct product b = x_v * m_k is taken once, in increasing
        term order. If some x_w divides m_k with b / x_w nonstandard, then
        b / x_w = x_v * (m_k / x_w) is an entry of `variable_action(e - 1)`,
        NF(b / x_w) = sum c_j n_j, and NF(b) = sum c_j NF(x_w * n_j): each
        x_w * n_j is smaller than b, so it is standard or a product already
        taken. Otherwise every divisor of b of degree e is standard, so b is
        the leading monomial of exactly one g of the reduced basis, whose
        other terms are standard, and NF(b) = b - g."""
        nonstandard = np.flatnonzero(rows < 0).tolist()
        first: dict[Monomial, int] = {}
        for i in nonstandard:
            first.setdefault(tuple(products[i]), i)
        if not first:
            return []
        p, src, index, index_e = self.p, self.piece(e), self.piece_index(e + 1), self.piece_index(e)
        dim, rows = len(src), rows.tolist()
        if e:
            # the missing tables below are built from the lowest up, so that
            # none recurses more than one degree
            low = e
            while low and low - 1 not in self._actions:
                low -= 1
            for d in range(low, e):
                self.variable_action(d)
            start, count, low_rows, low_values = (a.tolist() for a in self._actions[e - 1][:4])
            low_index = self.piece_index(e - 1)
        tails = {g.terms[0][0]: g.terms[1:] for g in self.gb.generators}
        nf: dict[Monomial, list[tuple[int, int]]] = {}
        for b in sorted(first, key=self.order.key):
            v, k = divmod(first[b], dim)
            m = src[k]
            for w, x in enumerate(m):
                if x and b[:w] + (b[w] - 1,) + b[w + 1 :] not in index_e:
                    break
            else:
                nf[b] = [(index[u], -c % p) for u, c in tails[b]]
                continue
            below = low_index[m[:w] + (x - 1,) + m[w + 1 :]]
            at = slice(start[below][v], start[below][v] + count[below][v])
            acc: dict[int, int] = {}
            for j, c in zip(low_rows[at], low_values[at]):
                t = w * dim + j
                if rows[t] >= 0:
                    acc[rows[t]] = acc.get(rows[t], 0) + c
                else:
                    for u, cu in nf[tuple(products[t])]:
                        acc[u] = acc.get(u, 0) + c * cu
            nf[b] = [(u, c % p) for u, c in acc.items() if c % p]
        return [(i, u, c) for i in nonstandard for u, c in nf[tuple(products[i])]]

    def var_multiplication_stack(self, d: int) -> np.ndarray:
        """The matrices of multiplication by x_v from R_d to R_{d+1}
        coordinates, for v = 0..n-1, stacked into one (n * dim R_{d+1}) x
        dim R_d matrix: R_1 * R_d in one product."""
        got = self._var_stack.get(d)
        if got is None:
            _start, count, rows, values, _lifts = self.variable_action(d)
            dim, high = self.dim_piece(d), self.dim_piece(d + 1)
            # the entries are sorted by v, then k: the (v, k) of each
            v, k = np.divmod(np.arange(self.nvars * dim).repeat(count.T.ravel()), max(dim, 1))
            got = np.zeros((self.nvars * high, dim), dtype=np.int64)
            got[v * high + rows, k] = values
            self._var_stack[d] = got
        return got

    def hilbert_series(self, expand_to: int) -> "HilbertSeries":
        return _hilbert_series([self.gb.leading_monomials()], (0,), self.nvars, expand_to)


def make_ring(
    poly_ring: PolynomialRing, ideal_gens: Sequence[Polynomial]
) -> QuotientRing:
    """Validated quotient-ring constructor.

    Generators must be homogeneous of degree >= 2; degree-1 generators are
    rejected (eliminate the variable instead).
    """
    kept = []
    for k, g in enumerate(ideal_gens):
        poly_ring.check_compatible(g.ring)
        if g.is_zero():
            continue
        if not g.is_homogeneous():
            comps = g.homogeneous_components()
            degs = sorted(comps)
            bad = comps[degs[-1]] if len(comps) > 1 else g
            raise ValueError(
                f"non-homogeneous generator #{k + 1}: "
                f"term of degree {degs[-1]} ({bad}) mixed with degree {degs[0]}"
            )
        if g.degree() < 2:
            raise ValueError(
                f"degree-{g.degree()} generator #{k + 1} ({g}); "
                "eliminate the variable instead of quotienting by a linear form"
            )
        kept.append(g)
    return QuotientRing(poly_ring, kept)


# ------------------------------------------------------------ Hilbert series


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _one_minus_t_power(k: int) -> list[int]:
    """The coefficients of (1 - t)^k."""
    return [(-1) ** i * comb(k, i) for i in range(k + 1)]


def _one_minus_t_inverse_power(k: int, j: int) -> int:
    """The coefficient of t^j in 1 / (1 - t)^k, for j >= 0."""
    return comb(j + k - 1, k - 1) if k else int(j == 0)


def _series_divide(num: list[int], den: list[int], d_max: int) -> list[int]:
    """Coefficients of num / den up to degree d_max, as power series; den
    must have constant term +-1, so that the quotient is integral."""
    c0 = den[0]
    if abs(c0) != 1:
        raise ValueError("division requires a unit constant term")
    out: list[int] = []
    for d in range(d_max + 1):
        acc = num[d] if d < len(num) else 0
        for k in range(1, min(d, len(den) - 1) + 1):
            acc -= den[k] * out[d - k]
        out.append(acc * c0)
    return out


def _monomial_quotient_numerator(gens: list[Monomial], nvars: int) -> list[int]:
    """Numerator of H_{S/(gens)} over (1-t)^nvars, by the pivot recursion.

    Splits along 0 -> S/(I:x)(-1) -> S/I -> S/(I+(x)) -> 0 with x a variable
    dividing some minimal generator; base case is a pairwise-coprime set.
    """
    gens = _minimalize_monomials(gens)
    if not gens:
        return [1]
    if any(mono_degree(m) == 0 for m in gens):
        return []
    coprime = all(
        all(gens[i][v] == 0 or gens[j][v] == 0 for v in range(nvars))
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
    if coprime:
        num = [1]
        for m in gens:
            factor = [1] + [0] * (mono_degree(m) - 1) + [-1]
            num = _poly_mul(num, factor)
        return _trim(num)
    counts = [sum(1 for m in gens if m[v] > 0) for v in range(nvars)]
    v = max(range(nvars), key=lambda i: counts[i])
    colon = [tuple(e - 1 if i == v else e for i, e in enumerate(m)) if m[v] > 0 else m
             for m in gens]
    plus = [m for m in gens if m[v] == 0]
    xv = tuple(1 if i == v else 0 for i in range(nvars))
    plus.append(xv)
    n_colon = _monomial_quotient_numerator(colon, nvars)
    n_plus = _monomial_quotient_numerator(plus, nvars)
    return _trim(_poly_add([0, *n_colon], n_plus))


def _standard_monomials(
    monos: Sequence[Monomial], leading: Sequence[Monomial]
) -> tuple[Monomial, ...]:
    """The monomials of `monos` that no monomial of `leading` divides, in
    order: one componentwise test of every exponent vector against every
    leading one."""
    if monos and leading:
        exps, lts = (np.array(m, dtype=np.int64) for m in (monos, leading))
        monos = compress(monos, ~(exps[:, None] >= lts).all(axis=2).any(axis=1))
    return tuple(monos)


# The numerator is a dense list, in `HilbertSeries` and in the JSON, so one
# whose degree may pass this bound cannot be written out.
_MAX_NUMERATOR_DEGREE = 10**6


def _hilbert_series(
    leading: Sequence[Sequence[Monomial]], shifts: Sequence[int], nvars: int, expand_to: int
) -> "HilbertSeries":
    """Hilbert series of the direct sum over positions j of S/(leading[j])
    shifted by shifts[j]: the sum of the shifted numerators. Their degree is
    at most the shift spread plus the sum of the degrees of all the minimal
    generators, which is checked before any list is built."""
    base = min(shifts, default=0)
    top = max(shifts, default=0) - base + sum(mono_degree(m) for lts in leading for m in lts)
    if top > _MAX_NUMERATOR_DEGREE:
        raise ValueError(
            f"the Hilbert series numerator may reach degree {top}, "
            f"above the limit {_MAX_NUMERATOR_DEGREE} of a dense numerator"
        )
    total: list[int] = []
    for lts, s in zip(leading, shifts):
        num = _monomial_quotient_numerator(list(lts), nvars)
        total = _poly_add(total, [0] * (s - base) + num)
    return HilbertSeries.from_rational(total, base, nvars, expand_to)


@dataclass(frozen=True)
class HilbertSeries:
    """Rational form numerator * t^offset / (1-t)^denominator_power.

    The truncated expansion is the Hilbert function in the degrees
    0..expand_to (a piece below degree 0 shows only in the numerator and the
    offset); krull_dim is the pole order at t = 1 and multiplicity the
    cancelled numerator evaluated at 1.
    """

    numerator: tuple[int, ...]
    offset: int
    denominator_power: int
    expansion: tuple[int, ...]
    krull_dim: int
    multiplicity: int
    codim: int

    @staticmethod
    def from_rational(
        numerator: list[int], offset: int, nvars: int, expand_to: int
    ) -> "HilbertSeries":
        num = _trim(list(numerator))
        if not num:
            return HilbertSeries((), offset, nvars, (0,) * (expand_to + 1), -1, 0, nvars + 1)
        # cancel the factors (1 - t) of the numerator: each divides exactly
        reduced, cancelled = num, 0
        while sum(reduced) == 0:
            reduced = _trim(_series_divide(reduced, [1, -1], len(reduced) - 2))
            cancelled += 1
        krull = nvars - cancelled
        # one sum over the numerator per degree, however far off the offset
        expansion = [
            sum(
                c * _one_minus_t_inverse_power(nvars, d - offset - k)
                for k, c in enumerate(num[: max(d - offset + 1, 0)])
            )
            for d in range(expand_to + 1)
        ]
        return HilbertSeries(
            tuple(num), offset, nvars, tuple(expansion), krull, sum(reduced), nvars - krull
        )

    def coefficient(self, d: int) -> int:
        if 0 <= d < len(self.expansion):
            return self.expansion[d]
        raise IndexError(f"expansion not computed to degree {d}")

    def to_json(self) -> dict:
        return {
            "numerator": list(self.numerator),
            "offset": self.offset,
            "denominator_power": self.denominator_power,
            "expansion": list(self.expansion),
            "krull_dim": self.krull_dim,
            "multiplicity": self.multiplicity,
            "codim": self.codim,
        }


# --------------------------------------------------------------- modules


class GradedModule:
    """Minimal presentation of a graded module: cokernel of the column matrix.

    Always normalized: entries lie in the maximal ideal (no degree-0 units),
    all entries reduced, zero columns dropped. shifts are the generator
    degrees.

    Its relations over the polynomial ring S, the columns and then g * e_j
    for every g in the ring's reduced Groebner basis, are built once
    (`_relations`), as are its term-over-position order (`_key`), their
    Groebner basis in it (`_presentation_basis`), that basis as the divisors
    `module_nf` divides by (`_presentation_divisors`, from
    `groebner._division_leads`) and their minimal leading monomials at each
    position (`_presentation_leading`), from which pieces and the Hilbert
    series come by the ring's own helpers (`_standard_monomials`,
    `_hilbert_series`); `scaled_submodule` reads the relations too.
    """

    def __init__(
        self,
        ring: QuotientRing,
        shifts: tuple[int, ...],
        columns: tuple[FreeModuleVector, ...],
    ):
        self.ring = ring
        self.shifts = shifts
        self.columns = columns
        self._pieces: dict[int, tuple[tuple[int, Monomial], ...]] = {}
        self.resolutions: dict[tuple[int, int], object] = {}

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def is_zero(self) -> bool:
        return self.rank == 0

    def generation_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.shifts)))

    def __repr__(self) -> str:
        return (
            f"GradedModule(rank={self.rank}, shifts={self.shifts}, "
            f"{len(self.columns)} relations over {self.ring!r})"
        )

    # -- presentation Groebner data over the polynomial ring

    @cached_property
    def _relations(self) -> list[tuple[Polynomial, ...]]:
        """The relations of the module over S: the columns, then g * e_j for
        every g in the ring's reduced Groebner basis (outer) and position j
        (inner)."""
        return [col.components for col in self.columns] + _at_each_position(
            self.ring.gb.generators, self.rank
        )

    @cached_property
    def _key(self) -> ModKey:
        """The term-over-position order of the presentation."""
        return top_order_key(self.shifts, self.ring.poly_ring.order)

    @cached_property
    def _presentation_basis(self) -> list:
        """Module GB over S of `_relations`."""
        elements = [_melt_from_components(rel) for rel in self._relations]
        return module_buchberger(elements, self._key, self.ring.p, self.shifts)

    @cached_property
    def _presentation_divisors(self) -> list[tuple]:
        """That basis as the divisors `module_nf` divides by."""
        return _division_leads(self._presentation_basis, self._key, self.ring.p)

    @cached_property
    def _presentation_leading(self) -> list[list[Monomial]]:
        """The minimal leading monomials of that basis at each position."""
        lts: list[list[Monomial]] = [[] for _ in range(self.rank)]
        for (pos, m), _inv, _elt in self._presentation_divisors:
            lts[pos].append(m)
        return [_minimalize_monomials(l) for l in lts]

    def piece_basis(self, d: int) -> tuple[tuple[int, Monomial], ...]:
        """Standard module monomials (position, monomial) of degree d."""
        got = self._pieces.get(d)
        if got is None:
            monos = self.ring.poly_ring.monomials_of_degree
            got = tuple(
                (pos, m)
                for pos, (s, lts) in enumerate(zip(self.shifts, self._presentation_leading))
                for m in _standard_monomials(monos(d - s), lts)
            )
            self._pieces[d] = got
        return got

    def dim_piece(self, d: int) -> int:
        return len(self.piece_basis(d))

    def module_nf(self, components: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
        """Canonical representative of a vector of F_0 modulo the presentation:
        `rank` polynomials of the ring's polynomial ring, else ValueError."""
        if len(components) != self.rank:
            raise ValueError(f"vector has {len(components)} entries, expected {self.rank}")
        for c in components:
            self.ring.poly_ring.check_compatible(c.ring)
        elt = _melt_from_components(components)
        nf = _melt_reduce(elt, self._presentation_divisors, self._key, self.ring.p)
        return _melt_to_components(nf, self.rank, self.ring.poly_ring)

    def annihilated_by(self, f: Polynomial) -> bool:
        """Whether f * e_j lies in the relations at every position j."""
        self.ring.poly_ring.check_compatible(f.ring)
        return all(
            all(c.is_zero() for c in self.module_nf(v))
            for v in _at_each_position([f], self.rank)
        )

    def hilbert_series(self, expand_to: int) -> HilbertSeries:
        return _hilbert_series(self._presentation_leading, self.shifts, self.ring.nvars, expand_to)


def make_module(
    ring: QuotientRing,
    shifts: Sequence[int],
    columns: Sequence[Sequence[Polynomial]],
) -> GradedModule:
    """Normalized module presentation: unit entries pruned, entries reduced.

    Entries go through `ring.reduce`, which keeps an entry with no term in
    the leading-term ideal of the ring, zero entries too, as given."""
    shifts = list(shifts)
    cols: list[list[Polynomial]] = []
    for k, col in enumerate(columns):
        if len(col) != len(shifts):
            raise ValueError(f"column #{k + 1} has {len(col)} entries, expected {len(shifts)}")
        reduced = [ring.reduce(c) for c in col]
        vec = FreeModuleVector(tuple(reduced), tuple(shifts))
        if not vec.is_graded():
            raise ValueError(f"inhomogeneous presentation column #{k + 1}")
        if not vec.is_zero():
            cols.append(reduced)

    field = ring.poly_ring.field
    # the first unit entry, column by column (the zero polynomial has degree -1)
    while unit := next(
        ((r, c) for c, col in enumerate(cols) for r, e in enumerate(col) if e.degree() == 0), None
    ):
        r, c = unit
        uinv = field.inv(cols[c][r].constant_coefficient())
        pivot = cols[c]
        for c2, col in enumerate(cols):
            if c2 == c or col[r].is_zero():
                continue
            factor = col[r].scale(uinv)
            cols[c2] = [
                ring.reduce(col[k] - factor * pivot[k]) for k in range(len(shifts))
            ]
        del cols[c]
        shifts.pop(r)
        cols = [col[:r] + col[r + 1 :] for col in cols]
        cols = [col for col in cols if any(not e.is_zero() for e in col)]

    vecs = tuple(
        FreeModuleVector(tuple(col), tuple(shifts)) for col in cols
    )
    return GradedModule(ring, tuple(shifts), vecs)


def free_module(ring: QuotientRing, shifts: Sequence[int]) -> GradedModule:
    return make_module(ring, shifts, [])


def residue_field_module(ring: QuotientRing) -> GradedModule:
    """k = R/m as a cyclic module in degree 0."""
    return cyclic_module(ring, [ring.poly_ring.gen(i) for i in range(ring.nvars)])


def cyclic_module(ring: QuotientRing, ideal_gens: Sequence[Polynomial]) -> GradedModule:
    """R/(ideal_gens) as a module generated in degree 0."""
    return make_module(ring, (0,), [(g,) for g in ideal_gens])


def hilbert_series(obj, expand_to: int) -> HilbertSeries:
    """Hilbert series of a quotient ring or graded module, expanded to degree."""
    if expand_to < 1:
        raise ValueError("expansion degree must be >= 1")
    return obj.hilbert_series(expand_to)


def graded_piece_basis(obj, d: int):
    """Standard basis of the degree-d piece of a ring or module."""
    if isinstance(obj, QuotientRing):
        return obj.piece(d)
    return obj.piece_basis(d)


# ------------------------------------------------- linear form elimination


@dataclass(frozen=True)
class LinearElimination:
    """Change of presentation R -> R/(linear forms) by variable elimination.
    It holds no reference to R, which caches it."""

    target: QuotientRing
    substitute: Callable[[Polynomial], Polynomial]
    inject: Callable[[Polynomial], Polynomial]


def quotient_by_linear_forms(
    ring: QuotientRing, rows: Sequence[Sequence[int]]
) -> LinearElimination:
    """R/(span of linear forms) presented on the surviving variables.

    Cached on the ring, keyed by the RREF rows of the span, so one span given
    in any basis gets one object (immutable, with pure closures).
    """
    p = ring.p
    n = ring.nvars
    rows = list(rows)
    if rows:
        mat, pivots = rref(np.array(rows, dtype=np.int64).reshape(-1, n), p)
    else:
        mat, pivots = np.zeros((0, n), dtype=np.int64), []
    key = tuple(tuple(int(c) for c in row) for row in mat)
    cached = ring.linear_eliminations.get(key)
    if cached is not None:
        return cached
    free = tuple(c for c in range(n) if c not in pivots)
    source_poly = ring.poly_ring
    target_poly = PolynomialRing(p, [ring.names[c] for c in free], ring.order.kind)
    pos_of = {c: i for i, c in enumerate(free)}

    images: list[Polynomial] = []
    for i in range(n):
        if i in pos_of:
            images.append(target_poly.gen(pos_of[i]))
        else:
            k = pivots.index(i)
            coeffs = [(-int(mat[k, c])) % p for c in free]
            images.append(target_poly.linear_form(coeffs))

    def substitute(f: Polynomial) -> Polynomial:
        out = target_poly.zero()
        for m, c in f.terms:
            term = target_poly.constant(c)
            for var, e in enumerate(m):
                for _ in range(e):
                    term = term * images[var]
            out = out + term
        return out

    def inject(f: Polynomial) -> Polynomial:
        d: dict[Monomial, int] = {}
        for m, c in f.terms:
            e = [0] * n
            for i, var in enumerate(free):
                e[var] = m[i]
            d[tuple(e)] = c
        return source_poly.from_dict(d)

    gens = []
    for g in ring.gb.generators:
        img = substitute(g)
        if not img.is_zero():
            gens.append(img)
    elim = LinearElimination(make_ring(target_poly, gens), substitute, inject)
    ring.linear_eliminations[key] = elim
    return elim


def restrict_module_to_quotient(
    module: GradedModule, elim: LinearElimination
) -> GradedModule:
    """View a module annihilated by the eliminated forms over the smaller ring."""
    cols = [
        [elim.substitute(c) for c in col.components] for col in module.columns
    ]
    return make_module(elim.target, module.shifts, cols)


def scaled_submodule(
    module: GradedModule, forms: Sequence[Polynomial]
) -> GradedModule:
    """The submodule (forms) * M presented on the generators f_t * g_r.

    Relations are the syzygies of those products inside M, computed over the
    polynomial ring from the products, the presentation columns and the
    defining ideal, then projected to the product coordinates.
    """
    ring = module.ring
    kept = [f for f in map(ring.reduce, forms) if not f.is_zero()]
    if not all(f.is_homogeneous() and f.degree() == 1 for f in kept):
        raise ValueError("scaling forms must be homogeneous of degree 1")
    columns = _at_each_position(kept, module.rank)
    if not columns:
        return make_module(ring, (), [])
    rel_cols = syzygies_over_poly_ring(columns, module.shifts, module._relations)
    return make_module(ring, tuple(s + 1 for _f in kept for s in module.shifts), rel_cols)
