"""Groebner bases and module machinery over F_p[x_1..x_n].

Polynomial-level Buchberger with both classical pair criteria and a
degree-ordered S-pair queue (so graded computations can be truncated soundly),
module Groebner bases for submodules of shifted free modules, syzygy
generators via tagged elimination, colon ideals and ideal intersections.

Graded pieces of free modules are coordinate vectors over F_p. The
degree-d map of a homomorphism of free modules is built from its degree
d-1 map (`_next_degree_map`), with no normal form taken; the graded
Nakayama sieve behind minimal generators (`_generator_stage`) and every
step of a resolution (`koszulkit.resolution`) run on these maps.

Quotient rings enter only through duck-typed parameters (`ring.gb`,
`ring.reduce`, `ring.piece`, ...) supplied by `koszulkit.quotient`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Sequence

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
from .linalg import matmul_mod, pivot_columns

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


def _descending(k):
    """A key whose ascending order is the descending order of the key `k`, a
    tuple of ints and of such tuples."""
    return tuple(_descending(x) if x.__class__ is tuple else -x for x in k)


def _melt_reduce(elt: ModElt, leads: Sequence[tuple], key: ModKey, p: int) -> ModElt:
    """Remainder of `elt` under full division by basis elements given as
    `leads`: ((position, monomial) of the leading term, inverse of its
    coefficient, element) for each, in the basis order.

    The terms left to reduce sit in one dict, and their keys, each computed
    once, in a heap, so that the leading term is the heap's top. Both orders
    are module monomial orders, so reducing a term brings in only smaller
    terms and a term once taken never returns; a heap entry whose term has
    since cancelled is skipped.
    """
    h = dict(elt)
    heap = [(_descending(key(pm)), pm) for pm in h]
    heapq.heapify(heap)
    remainder: ModElt = {}
    while heap:
        pm = heapq.heappop(heap)[1]
        c = h.get(pm)
        if c is None:
            continue
        pos, m = pm
        for (bpos, bm), inv, b in leads:
            if bpos == pos and mono_divides(bm, m):
                break
        else:
            remainder[pm] = c
            del h[pm]
            continue
        # h -= f * u * b; its leading term cancels pm
        u, f = mono_quotient(m, bm), c * inv % p
        for (q, bmm), bc in b.items():
            t = (q, mono_mul(bmm, u))
            old = h.get(t)
            nc = ((old or 0) - f * bc) % p
            if nc:
                if old is None:
                    heapq.heappush(heap, (_descending(key(t)), t))
                h[t] = nc
            elif old is not None:
                del h[t]
    return remainder


def module_normal_form(
    elt: ModElt, basis: Sequence[ModElt], key: ModKey, p: int
) -> ModElt:
    """Remainder of `elt` under full division by `basis` in the order `key`."""
    leads = []
    for b in basis:
        pm, c = _melt_lt(b, key)
        leads.append((pm, pow(c, p - 2, p), b))
    return _melt_reduce(elt, leads, key, p)


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
    # the leading term of each (monic) basis element, as `_melt_reduce` takes them
    leads: list[tuple] = []

    def append(e: ModElt) -> None:
        pm, c = _melt_lt(e, key)
        e = _melt_scale(e, pow(c, p - 2, p), p)
        basis.append(e)
        leads.append((pm, 1, e))

    for e in elements:
        e = {k: v % p for k, v in e.items() if v % p}
        if not e:
            continue
        if max_degree is not None and _melt_degree(e, shifts) > max_degree:
            continue
        append(e)

    heap: list[tuple] = []
    pending: set[tuple[int, int]] = set()
    counter = 0

    def push_pairs(j: int) -> None:
        nonlocal counter
        pj, mj = leads[j][0]
        for i in range(j):
            pi, mi = leads[i][0]
            if pi != pj:
                continue
            lcm = mono_lcm(mi, mj)
            deg = mono_degree(lcm) + (shifts[pi] if shifts is not None else 0)
            if max_degree is not None and deg > max_degree:
                continue
            counter += 1
            heapq.heappush(heap, (deg, key((pi, lcm)), counter, i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        (pi, mi), (_pj, mj) = leads[i][0], leads[j][0]
        lcm = mono_lcm(mi, mj)
        skip = False
        for k, ((pk, mk), _inv, _b) in enumerate(leads):
            if k in (i, j):
                continue
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
        r = _melt_reduce(s, leads, key, p)
        if r:
            append(r)
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
# reduce(f), dim_piece(d), var_multiplication(v, d), var_copies(v, d),
# first_variable_splits(d), poly_ring, nvars, p.


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
    run of m equal consecutive shifts s."""
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


def _next_degree_map(ring, target_shifts, source_shifts, prev, d):
    """The degree-d map of `_degree_maps` from the degree d-1 map `prev`, with
    the generator columns (j, 1), source_shifts[j] == d, left zero.

    Column (j, u), with x_v the first variable of u, is x_v times column
    (j, u / x_v) of `prev`, split by target block as `variable_rows` splits
    it. Where multiplication by x_v on a block is a partial permutation with
    entries 1 (`QuotientRing.var_copies`; every block of a monomial ring is
    one), its rows are copied, with no product and no reduction mod p: the
    rows of all copy blocks of x_v are one 2-D gather of `prev`. Each other
    block is one stacked product with the cached
    `QuotientRing.var_multiplication` matrix. `prev` is unused when no
    source shift is below d. The block layouts of both free modules are
    looked up once here, for every variable.
    """
    target = shift_runs(ring, target_shifts, d - 1)
    source = shift_runs(ring, source_shifts, d - 1)
    nrows = sum(m * high for _s, m, _low, high in target)
    mat = np.zeros((nrows, sum(m * high for _s, m, _low, high in source)), dtype=np.int64)
    # every column (j, u) with deg u >= 1: the first variable of u, its index
    # in mat and the index in prev of the column it is x_v times
    empty = np.zeros(0, dtype=np.int64)
    first, cols, prev_cols = [empty], [empty], [empty]
    col = prev_col = 0
    for s, m, low, high in source:
        if low and high:
            v, k = ring.first_variable_splits(d - s)
            first.append(np.tile(v, m))
            cols.append(col + np.arange(m * high))
            prev_cols.append((prev_col + low * np.arange(m)[:, None] + k).ravel())
        col += m * high
        prev_col += m * low
    first, cols, prev_cols = map(np.concatenate, (first, cols, prev_cols))
    for v in range(ring.nvars):
        sel = first == v
        if sel.any():
            dst, src = cols[sel], prev_cols[sel]
            copy_src, copy_dst, products = variable_rows(ring, target, d - 1, v)
            mat[copy_dst[:, None], dst] = prev[copy_src[:, None], src]
            for row, prev_row, m, block in products:
                high, low = block.shape
                stack = prev[prev_row : prev_row + m * low, src].reshape(m, low, len(src))
                mat[row : row + m * high, dst] = matmul_mod(block, stack, ring.p).reshape(
                    m * high, len(src)
                )
    return mat


def _degree_maps(ring, target_shifts, source_shifts, rows, d_max):
    """Yield (d, matrix of (a_j) -> sum a_j * col_j on degree-d pieces) for d
    from the lowest source shift to d_max.

    rows[j] is the coordinate vector of col_j in the degree-source_shifts[j]
    piece of the target free module. Rows of the matrix: degree-d basis of
    the target. Columns: (j, u) with u a standard monomial of degree
    d - source_shifts[j]. Column (j, 1) is rows[j]; the others come from the
    degree d-1 map (`_next_degree_map`).
    """
    prev = None
    for d in range(min(source_shifts), d_max + 1):
        mat = _next_degree_map(ring, target_shifts, source_shifts, prev, d)
        col = j = 0
        for s, m, _low, high in shift_runs(ring, source_shifts, d - 1):
            if s == d:
                mat[:, col : col + m] = np.transpose(rows[j : j + m])
            col += m * high
            j += m
        prev = mat
        yield d, mat


def _generator_stage(ring, shifts, candidates, d_last, step):
    """The graded Nakayama sieve of a submodule U of the free module with the
    given shifts, run degree by degree from the lowest degree of `candidates`
    to d_last.

    candidates[d] (absent: none) is an int64 matrix whose rows are degree-d
    coordinate vectors of generators of U. A row is kept when it is
    independent of R_1 * U_{d-1} plus the rows before it in degree d; the
    kept rows of degree d go to `step[d]`. The stage yields (d, N_d), the
    degree-d map of the kept generators (as `_degree_maps` builds it), from
    the degree of the first kept row on.

    N_d is built from N_{d-1} over the generators of degrees < d, so its
    columns span R_1 * U_{d-1}. One `pivot_columns` on N_d followed by the
    degree-d candidates as columns keeps the candidates at pivot columns: the
    choice an incremental echelon fed the products and then the rows in order
    would make. The kept rows are then appended to N_d as its generator
    columns.
    """
    gens: tuple[int, ...] = ()
    prev = None
    for d in range(min(candidates, default=d_last + 1), d_last + 1):
        prev = _next_degree_map(ring, shifts, gens, prev, d)
        rows = candidates.get(d)
        if rows is not None:
            n = prev.shape[1]
            pivots = pivot_columns(np.concatenate([prev, rows.T], axis=1), ring.p)
            pivots = np.array(pivots, dtype=np.int64)
            kept = rows[pivots[pivots >= n] - n]
            if len(kept):
                step[d] = kept
                gens += (d,) * len(kept)
                prev = np.concatenate([prev, kept.T], axis=1)
        if gens:
            yield d, prev


def _candidate_rows(ring, shifts, vectors, d_max):
    """{d: int64 matrix whose rows are the coordinate vectors of the reduced
    `vectors` of internal degree d}, in input order, for d <= d_max (None:
    every d). Vectors that reduce to zero are dropped."""
    rows: dict[int, list[np.ndarray]] = {}
    for v in vectors:
        comps = tuple(ring.reduce(c) for c in v.components)
        d = FreeModuleVector(comps, shifts).internal_degree()
        if d is not None and (d_max is None or d <= d_max):
            rows.setdefault(d, []).append(coords_of_vector(ring, shifts, comps, d))
    return {d: np.array(r) for d, r in rows.items()}


def minimal_module_generators(
    ring,
    shifts: Sequence[int],
    vectors: Sequence[FreeModuleVector],
    d_max: int | None = None,
) -> list[FreeModuleVector]:
    """Minimal homogeneous generating set of the span of `vectors` over the ring.

    Vectors of internal degree above `d_max` are dropped. The rest, reduced,
    go through `_generator_stage` from their lowest degree to their highest;
    the kept ones are returned in increasing degree, in input order within a
    degree.
    """
    shifts = tuple(shifts)
    candidates = _candidate_rows(ring, shifts, vectors, d_max)
    step: dict[int, np.ndarray] = {}
    for _d, _mat in _generator_stage(ring, shifts, candidates, max(candidates, default=0), step):
        pass
    return [vector_from_coords(ring, shifts, row, d) for d, mat in step.items() for row in mat]


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
