"""Standard graded quotient rings R = F_p[x]/I and graded R-modules.

Quotient elements are canonical normal forms against the reduced Groebner
basis of the defining ideal. Graded pieces, Hilbert series (exact rational
form via the monomial-ideal pivot recursion), minimal module presentations
and linear-form eliminations live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arith import (
    Monomial,
    Polynomial,
    PolynomialRing,
    mono_degree,
    mono_divides,
    mono_mul,
)
from .groebner import (
    FreeModuleVector,
    GroebnerBasis,
    buchberger,
    module_buchberger,
    normal_form,
    syzygies_over_poly_ring,
    top_order_key,
    _melt_from_components,
    _melt_lt,
)
from .linalg import rref


class QuotientRing:
    """Presentation of a standard graded algebra F_p[x_1..x_n]/I.

    Immutable after construction; piece bases, monomial normal forms,
    variable multiplication matrices, their copy maps and first-variable
    splits are cached lazily (fill-once, so concurrent readers are safe).
    """

    def __init__(self, poly_ring: PolynomialRing, ideal_gens: Sequence[Polynomial]):
        self.poly_ring = poly_ring
        self.defining_generators = tuple(ideal_gens)
        self.gb = buchberger(list(ideal_gens), poly_ring.order) if ideal_gens else \
            GroebnerBasis((), poly_ring.order, True)
        self._pieces: dict[int, tuple[Monomial, ...]] = {}
        self._piece_index: dict[int, dict[Monomial, int]] = {}
        self._mono_nf: dict[Monomial, Polynomial] = {}
        self._var_mult: dict[tuple[int, int], np.ndarray] = {}
        self._var_copies: dict[tuple[int, int], tuple[np.ndarray, np.ndarray] | None] = {}
        self._first_var_splits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # filtration._linear_numerator, keyed by the RREF rows of a linear ideal
        self.linear_numerators: dict[tuple[tuple[int, ...], ...], tuple[int, ...]] = {}

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

    def mul(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return self.reduce(f * g)

    def monomial_nf(self, m: Monomial) -> Polynomial:
        nf = self._mono_nf.get(m)
        if nf is None:
            nf = self.reduce(self.poly_ring.monomial(m))
            self._mono_nf[m] = nf
        return nf

    def mul_monomial_nf(self, f: Polynomial, u: Monomial) -> Polynomial:
        """Normal form of u * f for f already reduced."""
        out = self.poly_ring.zero()
        for m, c in f.terms:
            out = out + self.monomial_nf(mono_mul(m, u)).scale(c)
        return out

    def linear_form(self, coeffs: Sequence[int]) -> Polynomial:
        return self.poly_ring.linear_form(coeffs)

    # -- graded pieces

    def piece(self, d: int) -> tuple[Monomial, ...]:
        """Standard monomial basis of R_d (monomials outside the LT ideal)."""
        got = self._pieces.get(d)
        if got is not None:
            return got
        if d < 0:
            basis: tuple[Monomial, ...] = ()
        else:
            lts = self.gb.leading_monomials()
            basis = tuple(
                m
                for m in self.poly_ring.monomials_of_degree(d)
                if not any(mono_divides(lt, m) for lt in lts)
            )
        self._pieces[d] = basis
        return basis

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

    def var_multiplication(self, var: int, d: int) -> np.ndarray:
        """Matrix of multiplication by x_var from R_d to R_{d+1} coordinates."""
        key = (var, d)
        got = self._var_mult.get(key)
        if got is not None:
            return got
        src = self.piece(d)
        tgt_idx = self.piece_index(d + 1)
        mat = np.zeros((len(tgt_idx), len(src)), dtype=np.int64)
        e = [0] * self.nvars
        e[var] = 1
        xv = tuple(e)
        for j, m in enumerate(src):
            nf = self.monomial_nf(mono_mul(m, xv))
            for mm, c in nf.terms:
                mat[tgt_idx[mm], j] = c
        self._var_mult[key] = mat
        return mat

    def var_copies(self, var: int, d: int) -> tuple[np.ndarray, np.ndarray] | None:
        """(source, target) index arrays when multiplication by x_var from R_d
        to R_{d+1} is a partial permutation: every nonzero column of
        `var_multiplication(var, d)` is a unit vector with entry 1 and no two
        of them share a row, so x_var moves coordinate source[k] unchanged to
        coordinate target[k]. None otherwise, for instance when two products
        have the same normal form and their coefficients must be added."""
        key = (var, d)
        if key in self._var_copies:
            return self._var_copies[key]
        mat = self.var_multiplication(var, d)
        nonzero = mat != 0
        got = None
        if (
            (mat[nonzero] == 1).all()
            and (nonzero.sum(axis=0) <= 1).all()
            and (nonzero.sum(axis=1) <= 1).all()
        ):
            target, source = nonzero.nonzero()
            got = source, target
        self._var_copies[key] = got
        return got

    def first_variable_splits(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (v, k) over the standard monomials u of degree e >= 1, in basis
        order: x_v is the first variable of u and k the index of u / x_v in the
        degree e-1 basis (a divisor of a standard monomial is standard)."""
        got = self._first_var_splits.get(e)
        if got is not None:
            return got
        index = self.piece_index(e - 1)
        first, lower = [], []
        for u in self.piece(e):
            v = next(i for i, a in enumerate(u) if a)
            first.append(v)
            lower.append(index[u[:v] + (u[v] - 1,) + u[v + 1 :]])
        got = np.array(first, dtype=np.int64), np.array(lower, dtype=np.int64)
        self._first_var_splits[e] = got
        return got

    def hilbert_series(self, expand_to: int) -> "HilbertSeries":
        lts = list(self.gb.leading_monomials())
        num = _monomial_quotient_numerator(lts, self.nvars)
        return HilbertSeries.from_rational(num, 0, self.nvars, expand_to)


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


def _poly_shift(a: list[int], k: int) -> list[int]:
    return [0] * k + list(a)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _minimalize_monomials(gens: list[Monomial]) -> list[Monomial]:
    out: list[Monomial] = []
    for m in sorted(set(gens), key=lambda m: (mono_degree(m), m)):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
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
    return _trim(_poly_add(_poly_shift(n_colon, 1), n_plus))


@dataclass(frozen=True)
class HilbertSeries:
    """Rational form numerator * t^offset / (1-t)^denominator_power.

    The truncated expansion is the Hilbert function; krull_dim is the pole
    order at t = 1 and multiplicity the cancelled numerator evaluated at 1.
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
        reduced = list(num)
        cancelled = 0
        while reduced and sum(reduced) == 0:
            # synthetic division by (1 - t)
            out = []
            acc = 0
            for c in reduced[:-1]:
                acc += c
                out.append(acc)
            reduced = _trim(out)
            cancelled += 1
        krull = nvars - cancelled
        mult = sum(reduced)
        expansion = _expand_rational(num, offset, nvars, expand_to)
        return HilbertSeries(
            tuple(num), offset, nvars, tuple(expansion), krull, mult, nvars - krull
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


def _expand_rational(num: list[int], offset: int, n: int, d_max: int) -> list[int]:
    """Coefficients of num * t^offset / (1-t)^n up to degree d_max."""
    from math import comb

    out = [0] * (d_max + 1)
    for i, c in enumerate(num):
        if not c:
            continue
        base = i + offset
        for d in range(max(base, 0), d_max + 1):
            out[d] += c * comb(d - base + n - 1, n - 1) if n > 0 else (c if d == base else 0)
    return out


# --------------------------------------------------------------- modules


class GradedModule:
    """Minimal presentation of a graded module: cokernel of the column matrix.

    Always normalized: entries lie in the maximal ideal (no degree-0 units),
    all entries reduced, zero columns dropped. shifts are the generator
    degrees.
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
        self._pres_gb: list | None = None
        self._pres_lts: list[list[Monomial]] | None = None
        self._pieces: dict[int, tuple[tuple[int, Monomial], ...]] = {}
        self.resolutions: dict[tuple[int, int], object] = {}

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def is_zero(self) -> bool:
        return self.rank == 0

    def is_free(self) -> bool:
        return not self.columns

    def generation_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.shifts)))

    def __repr__(self) -> str:
        return (
            f"GradedModule(rank={self.rank}, shifts={self.shifts}, "
            f"{len(self.columns)} relations over {self.ring!r})"
        )

    # -- presentation Groebner data over the polynomial ring

    def _presentation_basis(self):
        """Module GB over S of the column span together with I * (each row)."""
        if self._pres_gb is not None:
            return self._pres_gb
        ring = self.ring
        elements = []
        for col in self.columns:
            elements.append(_melt_from_components(col.components))
        zero = ring.poly_ring.zero()
        for g in ring.gb.generators:
            for pos in range(self.rank):
                comps = [zero] * self.rank
                comps[pos] = g
                elements.append(_melt_from_components(comps))
        key = top_order_key(self.shifts, ring.poly_ring.order)
        self._pres_gb = module_buchberger(elements, key, ring.p, shifts=self.shifts)
        lts: list[list[Monomial]] = [[] for _ in range(self.rank)]
        for elt in self._pres_gb:
            (pos, m), _ = _melt_lt(elt, key)
            lts[pos].append(m)
        self._pres_lts = [_minimalize_monomials(l) for l in lts]
        return self._pres_gb

    def piece_basis(self, d: int) -> tuple[tuple[int, Monomial], ...]:
        """Standard module monomials (position, monomial) of degree d."""
        got = self._pieces.get(d)
        if got is not None:
            return got
        self._presentation_basis()
        out = []
        for pos in range(self.rank):
            lts = self._pres_lts[pos]
            for m in self.ring.poly_ring.monomials_of_degree(d - self.shifts[pos]):
                if not any(mono_divides(lt, m) for lt in lts):
                    out.append((pos, m))
        got = tuple(out)
        self._pieces[d] = got
        return got

    def dim_piece(self, d: int) -> int:
        return len(self.piece_basis(d))

    def module_nf(self, components: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
        """Canonical representative of a vector of F_0 modulo the presentation."""
        from .groebner import module_normal_form, _melt_to_components

        basis = self._presentation_basis()
        key = top_order_key(self.shifts, self.ring.poly_ring.order)
        elt = _melt_from_components(components)
        nf = module_normal_form(elt, basis, key, self.ring.p)
        return _melt_to_components(nf, self.rank, self.ring.poly_ring)

    def contains_in_relations(self, components: Sequence[Polynomial]) -> bool:
        return all(c.is_zero() for c in self.module_nf(components))

    def annihilated_by(self, f: Polynomial) -> bool:
        zero = self.ring.poly_ring.zero()
        for pos in range(self.rank):
            comps = [zero] * self.rank
            comps[pos] = f
            if not self.contains_in_relations(comps):
                return False
        return True

    def hilbert_series(self, expand_to: int) -> HilbertSeries:
        self._presentation_basis()
        nvars = self.ring.nvars
        base = min(self.shifts) if self.shifts else 0
        total: list[int] = []
        for pos in range(self.rank):
            num = _monomial_quotient_numerator(list(self._pres_lts[pos]), nvars)
            total = _poly_add(total, _poly_shift(num, self.shifts[pos] - base))
        return HilbertSeries.from_rational(total, base, nvars, expand_to)


def make_module(
    ring: QuotientRing,
    shifts: Sequence[int],
    columns: Sequence[Sequence[Polynomial]],
) -> GradedModule:
    """Normalized module presentation: unit entries pruned, entries reduced."""
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
    while True:
        unit = None
        for c, col in enumerate(cols):
            for r, entry in enumerate(col):
                if not entry.is_zero() and entry.degree() == 0:
                    unit = (r, c)
                    break
            if unit:
                break
        if unit is None:
            break
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
    """Change of presentation R -> R/(linear forms) by variable elimination."""

    source: QuotientRing
    target: QuotientRing
    kept_vars: tuple[int, ...]
    substitute: Callable[[Polynomial], Polynomial]
    inject: Callable[[Polynomial], Polynomial]


def quotient_by_linear_forms(
    ring: QuotientRing, rows: Sequence[Sequence[int]]
) -> LinearElimination:
    """R/(span of linear forms) presented on the surviving variables."""
    p = ring.p
    n = ring.nvars
    rows = list(rows)
    if rows:
        mat, pivots = rref(np.array(rows, dtype=np.int64).reshape(-1, n), p)
    else:
        mat, pivots = np.zeros((0, n), dtype=np.int64), []
    free = tuple(c for c in range(n) if c not in pivots)
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
        return ring.poly_ring.from_dict(d)

    gens = []
    for g in ring.gb.generators:
        img = substitute(g)
        if not img.is_zero():
            gens.append(img)
    target = make_ring(target_poly, gens)
    return LinearElimination(ring, target, free, substitute, inject)


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
    zero = ring.poly_ring.zero()
    gens: list[list[Polynomial]] = []
    gen_shifts: list[int] = []
    for f in forms:
        f = ring.reduce(f)
        if f.is_zero():
            continue
        if not (f.is_homogeneous() and f.degree() == 1):
            raise ValueError("scaling forms must be homogeneous of degree 1")
        for r in range(module.rank):
            col = [zero] * module.rank
            col[r] = f
            gens.append(col)
            gen_shifts.append(module.shifts[r] + 1)
    if not gens:
        return make_module(ring, (), [])
    columns = [tuple(c) for c in gens]
    extra = [tuple(col.components) for col in module.columns]
    for g in ring.gb.generators:
        for pos in range(module.rank):
            rel = [zero] * module.rank
            rel[pos] = g
            extra.append(tuple(rel))
    raw = syzygies_over_poly_ring(columns, module.shifts, extra)
    rel_cols = [comps for comps, _ in raw]
    return make_module(ring, tuple(gen_shifts), rel_cols)
