"""Groebner bases and module machinery over F_p[x_1..x_n].

Polynomial-level Buchberger with both classical pair criteria and a
degree-ordered S-pair queue (so graded computations can be truncated soundly),
module Groebner bases for submodules of shifted free modules, syzygy
generators via tagged elimination, colon ideals and ideal intersections.

Quotient rings enter only through duck-typed parameters (`ring.gb`,
`ring.reduce`, `ring.piece`, ...) supplied by `koszulkit.quotient`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .arith import (
    Monomial,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    mono_coprime,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
)
from .linalg import Echelon, matmul_mod

# ---------------------------------------------------------------- ideals


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis; `reduced` means monic, auto-reduced and LT-minimal."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool = True

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.order == other.order and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.order, self.generators))

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.generators)


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    mf, cf = f.leading_term()
    mg, cg = g.leading_term()
    lcm = mono_lcm(mf, mg)
    field = f.ring.field
    a = f.mul_monomial(mono_quotient(lcm, mf), field.inv(cf))
    b = g.mul_monomial(mono_quotient(lcm, mg), field.inv(cg))
    return a - b


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under full division by the basis (a GroebnerBasis or list).

    When the basis is a reduced Groebner basis the result is the canonical
    representative mod the ideal; normal_form(f) == 0 iff f lies in the ideal.
    """
    if isinstance(basis, GroebnerBasis):
        if basis.order != f.ring.order:
            raise ValueError("monomial order mismatch between polynomial and basis")
        gens = basis.generators
    else:
        gens = tuple(g for g in basis if not g.is_zero())
    if not gens:
        return f
    field = f.ring.field
    lts = [(g.leading_monomial(), g.leading_coefficient(), g) for g in gens]
    remainder: dict[Monomial, int] = {}
    h = f
    while not h.is_zero():
        m, c = h.leading_term()
        hit = None
        for mg, cg, g in lts:
            if mono_divides(mg, m):
                hit = (mg, cg, g)
                break
        if hit is None:
            remainder[m] = c
            h = Polynomial(h.ring, h.terms[1:])
        else:
            mg, cg, g = hit
            h = h - g.mul_monomial(mono_quotient(m, mg), field.div(c, cg))
    return f.ring.from_dict(remainder)


def _interreduce(gens: list[Polynomial]) -> list[Polynomial]:
    """Minimalize leading terms, then fully auto-reduce and sort ascending."""
    gens = [g.monic() for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    key = ring.order.key
    gens.sort(key=lambda g: key(g.leading_monomial()))
    minimal: list[Polynomial] = []
    for g in gens:
        lm = g.leading_monomial()
        if any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            continue
        minimal.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1 :]
            r = normal_form(minimal[i], others).monic()
            if r != minimal[i]:
                minimal[i] = r
                changed = True
    minimal = [g for g in minimal if not g.is_zero()]
    minimal.sort(key=lambda g: key(g.leading_monomial()))
    return minimal


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    *,
    max_degree: int | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    S-pairs are processed in increasing lcm degree, so with homogeneous input
    and `max_degree` set, the result contains exactly the elements of degree
    <= max_degree of the full reduced basis. Output is independent of the
    input order (reduced bases are unique for a fixed monomial order).
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        ring_order = order
        if ring_order is None:
            raise ValueError("cannot infer order from an empty generator list")
        return GroebnerBasis((), ring_order, True)
    ring = gens[0].ring
    for g in gens:
        ring.check_compatible(g.ring)
    if order is not None and order != ring.order:
        raise ValueError("order does not match the generators' ring order")

    basis: list[Polynomial] = []
    for g in gens:
        r = normal_form(g, basis).monic()
        if not r.is_zero():
            basis.append(r)

    key = ring.order.key
    heap: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        mj = basis[j].leading_monomial()
        for i in range(j):
            lcm = mono_lcm(basis[i].leading_monomial(), mj)
            if max_degree is not None and mono_degree(lcm) > max_degree:
                continue
            heapq.heappush(heap, (mono_degree(lcm), key(lcm), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        fi, fj = basis[i], basis[j]
        mi, mj = fi.leading_monomial(), fj.leading_monomial()
        if mono_coprime(mi, mj):
            continue
        lcm = mono_lcm(mi, mj)
        # chain criterion: another basis element divides the lcm and both
        # companion pairs were already handled
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_divides(basis[k].leading_monomial(), lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form(spolynomial(fi, fj), basis)
        if not r.is_zero():
            basis.append(r.monic())
            push_pairs(len(basis) - 1)

    return GroebnerBasis(tuple(_interreduce(basis)), ring.order, True)


def in_ideal(f: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(f, gb).is_zero()


# ---------------------------------------------------- free module vectors


@dataclass(frozen=True)
class FreeModuleVector:
    """Element of a shifted free module; shifts are the target's row degrees."""

    components: tuple[Polynomial, ...]
    shifts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.shifts):
            raise ValueError("component/shift length mismatch")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def is_graded(self) -> bool:
        degs = {
            c.degree() + s
            for c, s in zip(self.components, self.shifts)
            if not c.is_zero()
        }
        if len(degs) > 1:
            return False
        return all(c.is_homogeneous() for c in self.components)

    def internal_degree(self) -> int | None:
        """Common degree (component degree + shift) of a graded vector."""
        degs = {
            c.degree() + s
            for c, s in zip(self.components, self.shifts)
            if not c.is_zero()
        }
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("vector is not graded")
        return degs.pop()

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


# -------------------------------------------- module Groebner machinery
#
# Module elements are flat term dicts {(position, monomial): coeff}. Orders
# are key functions on (position, monomial); larger key = leading.

ModElt = dict[tuple[int, Monomial], int]
ModKey = Callable[[tuple[int, Monomial]], tuple]


def top_order_key(shifts: Sequence[int], order: MonomialOrder) -> ModKey:
    """Term-over-position order, degree-compatible with the column shifts."""

    def key(pm: tuple[int, Monomial]):
        pos, m = pm
        return (mono_degree(m) + shifts[pos], order.key(m), -pos)

    return key


def pot_elim_key(n_first_block: int, order: MonomialOrder) -> ModKey:
    """Position-over-term order; positions below n_first_block dominate."""

    def key(pm: tuple[int, Monomial]):
        pos, m = pm
        return (1 if pos < n_first_block else 0, -pos, order.key(m))

    return key


def _melt_from_components(components: Sequence[Polynomial]) -> ModElt:
    d: ModElt = {}
    for pos, poly in enumerate(components):
        for m, c in poly.terms:
            d[(pos, m)] = c
    return d


def _melt_lt(elt: ModElt, key: ModKey) -> tuple[tuple[int, Monomial], int]:
    pm = max(elt, key=key)
    return pm, elt[pm]


def _melt_degree(elt: ModElt, shifts: Sequence[int]) -> int:
    pos, m = next(iter(elt))
    return shifts[pos] + mono_degree(m)


def _melt_axpy(a: ModElt, b: ModElt, u: Monomial, c: int, p: int) -> ModElt:
    """a - c * u * b (in place on a copy)."""
    out = dict(a)
    for (pos, m), bc in b.items():
        k = (pos, mono_mul(m, u))
        nc = (out.get(k, 0) - c * bc) % p
        if nc:
            out[k] = nc
        else:
            out.pop(k, None)
    return out


def _melt_scale(elt: ModElt, c: int, p: int) -> ModElt:
    return {k: (v * c) % p for k, v in elt.items()}


def module_normal_form(
    elt: ModElt, basis: Sequence[ModElt], key: ModKey, p: int
) -> ModElt:
    lts = [(_melt_lt(b, key), b) for b in basis]
    remainder: ModElt = {}
    h = dict(elt)
    while h:
        pm = max(h, key=key)
        pos, m = pm
        c = h[pm]
        hit = None
        for ((bpos, bm), bc), b in lts:
            if bpos == pos and mono_divides(bm, m):
                hit = (bm, bc, b)
                break
        if hit is None:
            remainder[pm] = c
            del h[pm]
        else:
            bm, bc, b = hit
            h = _melt_axpy(h, b, mono_quotient(m, bm), c * pow(bc, p - 2, p) % p, p)
    return remainder


def module_buchberger(
    elements: Sequence[ModElt],
    key: ModKey,
    p: int,
    *,
    shifts: Sequence[int] | None = None,
    max_degree: int | None = None,
) -> list[ModElt]:
    """Groebner basis of the submodule generated by homogeneous `elements`.

    Only the chain criterion is used (the coprime criterion is unsound for
    modules). With `max_degree` and graded input the result is the full
    basis in internal degrees <= max_degree.
    """
    if max_degree is not None and shifts is None:
        raise ValueError("degree truncation needs the shift vector")

    basis: list[ModElt] = []
    for e in elements:
        e = {k: v % p for k, v in e.items() if v % p}
        if not e:
            continue
        if max_degree is not None and _melt_degree(e, shifts) > max_degree:
            continue
        _, c = _melt_lt(e, key)
        basis.append(_melt_scale(e, pow(c, p - 2, p), p))

    heap: list[tuple] = []
    pending: set[tuple[int, int]] = set()
    counter = 0

    def pair_degree(i: int, j: int) -> tuple | None:
        (pi, mi), _ = _melt_lt(basis[i], key)
        (pj, mj), _ = _melt_lt(basis[j], key)
        if pi != pj:
            return None
        lcm = mono_lcm(mi, mj)
        deg = mono_degree(lcm) + (shifts[pi] if shifts is not None else 0)
        return (deg, key((pi, lcm)))

    def push_pairs(j: int) -> None:
        nonlocal counter
        for i in range(j):
            pd = pair_degree(i, j)
            if pd is None:
                continue
            if max_degree is not None and pd[0] > max_degree:
                continue
            counter += 1
            heapq.heappush(heap, (pd[0], pd[1], counter, i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        (pi, mi), ci = _melt_lt(basis[i], key)
        (pj, mj), cj = _melt_lt(basis[j], key)
        if pi != pj:
            continue
        lcm = mono_lcm(mi, mj)
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            (pk, mk), _ = _melt_lt(basis[k], key)
            if pk == pi and mono_divides(mk, lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        # s = u_i * basis[i] - u_j * basis[j], both already monic
        s = _melt_axpy({}, basis[i], mono_quotient(lcm, mi), p - 1, p)
        s = _melt_axpy(s, basis[j], mono_quotient(lcm, mj), 1, p)
        r = module_normal_form(s, basis, key, p)
        if r:
            _, c = _melt_lt(r, key)
            basis.append(_melt_scale(r, pow(c, p - 2, p), p))
            push_pairs(len(basis) - 1)

    return basis


def _melt_to_components(
    elt: ModElt, ncomps: int, ring: PolynomialRing
) -> tuple[Polynomial, ...]:
    buckets: list[dict[Monomial, int]] = [{} for _ in range(ncomps)]
    for (pos, m), c in elt.items():
        buckets[pos][m] = c
    return tuple(ring.from_dict(b) for b in buckets)


def syzygies_over_poly_ring(
    columns: Sequence[Sequence[Polynomial]],
    target_shifts: Sequence[int],
    extra_relations: Sequence[Sequence[Polynomial]] = (),
    *,
    max_degree: int | None = None,
) -> list[tuple[tuple[Polynomial, ...], int]]:
    """Syzygies of `columns` modulo `extra_relations` over the polynomial ring.

    Tagged elimination: each column i is extended by a tag e_i, the extra
    relations get zero tags, and a position-over-term basis is computed in
    which the target block dominates. Basis elements with zero target block
    are exactly the syzygy generators. Returns (tag components, degree) pairs.
    """
    if not columns:
        return []
    ring = columns[0][0].ring
    r = len(target_shifts)
    m = len(columns)
    col_degs = []
    for col in columns:
        degs = {
            q.degree() + s for q, s in zip(col, target_shifts) if not q.is_zero()
        }
        if len(degs) > 1:
            raise ValueError("ungraded column")
        col_degs.append(degs.pop() if degs else 0)

    shifts = tuple(target_shifts) + tuple(col_degs)
    elements: list[ModElt] = []
    for i, col in enumerate(columns):
        comps = list(col) + [ring.zero()] * m
        comps[r + i] = ring.one()
        elements.append(_melt_from_components(comps))
    for rel in extra_relations:
        comps = list(rel) + [ring.zero()] * m
        elements.append(_melt_from_components(comps))

    key = pot_elim_key(r, ring.order)
    basis = module_buchberger(
        elements, key, ring.p, shifts=shifts, max_degree=max_degree
    )
    out = []
    for elt in basis:
        if any(pos < r for (pos, _m) in elt):
            continue
        tag = {(pos - r, mono): c for (pos, mono), c in elt.items()}
        comps = _melt_to_components(tag, m, ring)
        degs = {q.degree() + col_degs[i] for i, q in enumerate(comps) if not q.is_zero()}
        out.append((comps, degs.pop()))
    return out


# ----------------------------------------------- graded pieces of free modules
#
# `ring` is a quotient ring object exposing piece(d), piece_index(d),
# monomial_nf(m), reduce(f), dim_piece(d), var_multiplication(v, d),
# var_copies(v, d), poly_ring, nvars, p.


def coords_of_vector(
    ring, shifts: Sequence[int], components: Sequence[Polynomial], d: int
) -> np.ndarray:
    """Coordinates of a degree-d graded vector (components already reduced)."""
    blocks = []
    for pos, s in enumerate(shifts):
        idx = ring.piece_index(d - s)
        v = np.zeros(len(idx), dtype=np.int64)
        comp = components[pos]
        if not comp.is_zero():
            for m, c in comp.terms:
                v[idx[m]] = c
        blocks.append(v)
    if not blocks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(blocks)


def vector_from_coords(
    ring, shifts: Sequence[int], coords: np.ndarray, d: int
) -> FreeModuleVector:
    """The degree-d graded vector with the given coordinates; only the nonzero
    coordinates are read."""
    comps = []
    off = 0
    for s in shifts:
        piece = ring.piece(d - s)
        block = coords[off : off + len(piece)]
        terms = {piece[k]: int(block[k]) for k in np.flatnonzero(block)}
        comps.append(ring.poly_ring.from_dict(terms))
        off += len(piece)
    return FreeModuleVector(tuple(comps), tuple(shifts))


def shift_runs(ring, shifts: Sequence[int], d: int) -> list[tuple[int, int, int, int]]:
    """The block layout of the degree-d and degree-(d+1) pieces of the free
    module with the given shifts: (s, m, dim R_{d-s}, dim R_{d+1-s}) for each
    run of m equal consecutive shifts s. Callers look it up once per degree
    and pass it to every `times_variable` of that degree."""
    return [
        (s, len(list(run)), ring.dim_piece(d - s), ring.dim_piece(d + 1 - s))
        for s, run in groupby(shifts)
    ]


def variable_rows(ring, runs, d: int, var: int):
    """Multiplication by x_var from degree-d to degree-(d+1) coordinates of the
    free module with the block layout `runs` (`shift_runs` at d), split by
    run: (source, target, products).

    Where the block of a run is a copy (`QuotientRing.var_copies`), x_var
    moves coordinate source[k] unchanged to coordinate target[k]. `products`
    lists (row, prev_row, m, block) for every other nonzero block: the m
    stacked pieces from coordinate prev_row on, times the
    `var_multiplication` matrix `block`, give the coordinates from row on.
    """
    empty = np.zeros(0, dtype=np.int64)
    source, target, products = [empty], [empty], []
    row = prev_row = 0
    for s, m, low, high in runs:
        if low and high:
            copies = ring.var_copies(var, d - s)
            if copies is None:
                products.append((row, prev_row, m, ring.var_multiplication(var, d - s)))
            else:
                k = np.arange(m)[:, None]
                source.append((prev_row + low * k + copies[0]).ravel())
                target.append((row + high * k + copies[1]).ravel())
        row += m * high
        prev_row += m * low
    return np.concatenate(source), np.concatenate(target), products


def times_variable(ring, runs, coords: np.ndarray, d: int, var: int) -> np.ndarray:
    """x_var times the columns of `coords`, degree-d coordinate vectors of the
    free module with the block layout `runs` (`shift_runs` at d), as
    degree-(d+1) coordinate vectors.

    The runs whose block is a copy (a partial permutation with entries 1, as
    every block of a monomial ring is) take one row gather of `coords`, with
    no product and no reduction mod p (`variable_rows`); each other run is
    one stacked product with the cached `QuotientRing.var_multiplication`
    matrix.
    """
    n = coords.shape[1]
    out = np.zeros((sum(m * high for _s, m, _low, high in runs), n), dtype=np.int64)
    source, target, products = variable_rows(ring, runs, d, var)
    out[target] = coords[source]
    for row, prev_row, m, block in products:
        high, low = block.shape
        stack = coords[prev_row : prev_row + m * low].reshape(m, low, n)
        out[row : row + m * high] = matmul_mod(block, stack, ring.p).reshape(m * high, n)
    return out


def nakayama_sieve(
    ring, shifts: Sequence[int], pieces: Iterable[tuple[int, Sequence[np.ndarray]]]
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Graded Nakayama sieve behind `minimal_module_generators`, in the free
    module with the given shifts.

    `pieces` gives (d, rows) for consecutive degrees d, where rows are
    coordinate vectors of degree d of the generators of a submodule U. A row
    is kept when it is independent of R_1 * U_{d-1} plus the rows kept
    before it in degree d. Yields (d, index in rows, row) for every kept row
    as soon as it is found, so that `pieces` may be produced lazily.
    """
    span = None
    for d, rows in pieces:
        runs = shift_runs(ring, shifts, d - 1)
        ech = Echelon(sum(m * high for _s, m, _low, high in runs), ring.p)
        if span is not None:
            # R_1 * U_{d-1}: rows v*len(span) + k hold x_v times span row k
            n = len(span)
            products = np.zeros((ring.nvars * n, ech.ncols), dtype=np.int64)
            for v in range(ring.nvars):
                products[v * n : (v + 1) * n] = times_variable(ring, runs, span.T, d - 1, v).T
            for k in np.flatnonzero(products.any(axis=1)):
                ech.add(products[k])
            del products
        # No name outlives this loop bound to a row or to `products`: it would
        # keep the whole degree-d matrix alive while degree d+1 is built.
        for i in range(len(rows)):
            if ech.add(rows[i]):
                yield d, i, np.array(rows[i])
        span = ech.rows


def minimal_module_generators(
    ring,
    shifts: Sequence[int],
    vectors: Sequence[FreeModuleVector],
    d_max: int | None = None,
) -> list[FreeModuleVector]:
    """Minimal homogeneous generating set of the span of `vectors` over the ring.

    Vectors of internal degree above `d_max` are dropped. The rest go through
    `nakayama_sieve`, from their lowest degree to their highest.
    """
    shifts = tuple(shifts)
    by_degree: dict[int, list[FreeModuleVector]] = {}
    for v in vectors:
        w = FreeModuleVector(tuple(ring.reduce(c) for c in v.components), shifts)
        if w.is_zero():
            continue
        d = w.internal_degree()
        if d_max is None or d <= d_max:
            by_degree.setdefault(d, []).append(w)
    if not by_degree:
        return []
    pieces = (
        (d, [coords_of_vector(ring, shifts, w.components, d) for w in by_degree.get(d, [])])
        for d in range(min(by_degree), max(by_degree) + 1)
    )
    return [by_degree[d][i] for d, i, _row in nakayama_sieve(ring, shifts, pieces)]


# ------------------------------------------------------------ public ops


def syzygy_basis(
    vectors: Sequence[FreeModuleVector],
    ring,
    *,
    max_degree: int | None = None,
) -> list[FreeModuleVector]:
    """Minimal generating set of {(a_i) : sum a_i v_i = 0 in the quotient ring}.

    Includes the syzygies induced by the ring's defining relations. With
    `max_degree`, complete in internal degrees <= max_degree.
    """
    if not vectors:
        return []
    shifts = vectors[0].shifts
    for v in vectors:
        if v.shifts != shifts:
            raise ValueError("vectors live in different free modules")
        if not v.is_graded():
            raise ValueError("ungraded input vector")
    columns = [tuple(ring.reduce(c) for c in v.components) for v in vectors]
    relations = []
    for g in ring.gb.generators:
        for pos in range(len(shifts)):
            rel = [ring.poly_ring.zero()] * len(shifts)
            rel[pos] = g
            relations.append(tuple(rel))
    raw = syzygies_over_poly_ring(
        columns, shifts, relations, max_degree=max_degree
    )
    col_degs = [v.internal_degree() or 0 for v in vectors]
    out = []
    for comps, _deg in raw:
        reduced = tuple(ring.reduce(c) for c in comps)
        w = FreeModuleVector(reduced, tuple(col_degs))
        if not w.is_zero():
            out.append(w)
    minimal = minimal_module_generators(ring, tuple(col_degs), out, d_max=max_degree)
    minimal.sort(key=lambda v: (v.internal_degree(), str(v)))
    return minimal


def _colon_by_element(
    j_gens: Sequence[Polynomial], g: Polynomial, poly_ring: PolynomialRing
) -> list[Polynomial]:
    """Generators of (J : g) over the polynomial ring (J given by j_gens)."""
    columns = [(g,)] + [(h,) for h in j_gens]
    raw = syzygies_over_poly_ring(columns, (0,))
    return [comps[0] for comps, _ in raw if not comps[0].is_zero()]


def ideal_intersection(
    a_gens: Sequence[Polynomial],
    b_gens: Sequence[Polynomial],
    poly_ring: PolynomialRing,
) -> list[Polynomial]:
    """Generators of (a_gens) ∩ (b_gens) over the polynomial ring."""
    a = [g for g in a_gens if not g.is_zero()]
    b = [g for g in b_gens if not g.is_zero()]
    if not a or not b:
        return []
    columns = [(g,) for g in a] + [(h,) for h in b]
    raw = syzygies_over_poly_ring(columns, (0,))
    out = []
    for comps, _ in raw:
        f = poly_ring.zero()
        for u, g in zip(comps[: len(a)], a):
            f = f + u * g
        if not f.is_zero():
            out.append(f)
    return out


def colon_ideal(
    j_gens: Sequence[Polynomial], i_gens: Sequence[Polynomial], ring
) -> GroebnerBasis:
    """Reduced Groebner basis of the preimage of (J : I) in the quotient ring.

    The preimage (containing the defining ideal) is the canonical
    representation of an ideal of the quotient; equality of ideals is
    equality of these bases. For I with several generators the result is the
    intersection of the single-element colons.
    """
    poly_ring = ring.poly_ring
    j_full = [ring.reduce(g) for g in j_gens] + list(ring.gb.generators)
    j_full = [g for g in j_full if not g.is_zero()]
    colons: list[list[Polynomial]] = []
    for g in i_gens:
        g = ring.reduce(g)
        if g.is_zero():
            continue
        if g.degree() == 0:
            # unit generator: (J : unit) = J
            colons.append(list(j_full))
            continue
        if not g.is_homogeneous():
            raise ValueError("non-homogeneous colon input")
        colons.append(_colon_by_element(j_full, g, poly_ring))
    if not colons:
        # I = (0): the colon is the whole ring
        return buchberger([poly_ring.one()], poly_ring.order)
    current = colons[0]
    for nxt in colons[1:]:
        current = ideal_intersection(current, nxt, poly_ring)
    return buchberger(current + list(ring.gb.generators), poly_ring.order)


def quotient_generators(gb: GroebnerBasis, ring) -> list[Polynomial]:
    """Generators of the quotient-ring ideal: basis elements surviving reduction."""
    out = []
    for g in gb.generators:
        r = ring.reduce(g)
        if not r.is_zero():
            out.append(r)
    return out
