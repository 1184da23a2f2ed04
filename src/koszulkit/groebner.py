"""Groebner bases and module machinery over F_p[x_1..x_n].

The reduced Groebner basis of a homogeneous ideal (`buchberger`) comes from
F4 with the normal strategy (`_homogeneous_basis`): one Macaulay matrix per
degree, its rows reduced by the reducers of symbolic preprocessing and then
by one `linalg.rref`. Since the input is homogeneous, an element of a later
degree never has a leading monomial that divides a term of an earlier one,
so the basis comes out reduced, with no interreduction. Quotient rings,
linear quotients and colons by a homogeneous J all send homogeneous ideals.

One Buchberger (`module_buchberger`) and one full division (`_melt_reduce`)
serve submodules of shifted free modules, taking the S-pairs in increasing
degree; every basis runs to completion. F4 and that loop keep their S-pairs
by one Gebauer-Moeller update (`_add_pairs`). Inhomogeneous input is
homogenized by one extra variable, and its basis is returned reduced. An
inhomogeneous ideal (a colon by an inhomogeneous J, say) runs on them as a
submodule of the free module of rank 1; normal forms (`normal_form`) are
that full division. Syzygy generators via tagged elimination; a colon ideal
J : (g_1..g_k) is one such elimination, of the column (g_1..g_k) modulo
(J + I_R) in every position.

Graded pieces of free modules are coordinate vectors over F_p. One stage
loop (`_stage`) runs every degree-by-degree computation on them: it builds
the degree-d map of its generators, as a `linalg.Nonzeros`, from the degree
d-1 map (`_next_degree_map`), with no normal form taken, and a sieve picks
the new generators of degree d. `_pivot_sieve`, the graded Nakayama sieve
of given vectors, serves minimal generators and step 1 of a resolution;
`koszulkit.resolution` adds the kernel sieve of its syzygy steps and a
keep-all sieve that rebuilds the maps of a complex.

Quotient rings enter only through duck-typed parameters (`ring.gb`,
`ring.reduce`, `ring.piece`, ...) supplied by `koszulkit.quotient`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .arith import (
    Monomial,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
)
from .linalg import Nonzeros, _reduce_row, pivot_columns, rref

# ---------------------------------------------------------------- ideals


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, auto-reduced and LT-minimal."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.generators)

    @cached_property
    def _leads(self) -> list[tuple]:
        """The generators as `normal_form` divides by them, built once."""
        return _division_leads(self.generators)


def _division_leads(gens: Sequence[Polynomial]) -> list[tuple]:
    """The polynomials as rank-1 divisors, in the form `_melt_reduce` takes."""
    return [
        (
            (0, g.leading_monomial()),
            g.ring.field.inv(g.leading_coefficient()),
            _melt_from_components((g,)),
        )
        for g in gens
    ]


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under full division by the basis (a GroebnerBasis or list).

    When the basis is a reduced Groebner basis the result is the canonical
    representative mod the ideal; normal_form(f) == 0 iff f lies in the ideal.
    Each leading term is divided by the first basis element whose leading
    monomial divides it (`_melt_reduce` on rank-1 elements).
    """
    if isinstance(basis, GroebnerBasis):
        if basis.order != f.ring.order:
            raise ValueError("monomial order mismatch between polynomial and basis")
        gens, leads = basis.generators, basis._leads
    else:
        gens = tuple(g for g in basis if not g.is_zero())
        leads = _division_leads(gens)
    if not gens:
        return f
    ring = f.ring
    ring.check_compatible(gens[0].ring)
    okey = ring.order.key
    elt = _melt_from_components((f,))
    r = _melt_reduce(elt, leads, lambda pm: okey(pm[1]), ring.p)
    return f if r == elt else _melt_to_components(r, 1, ring)[0]


def buchberger(
    gens: Sequence[Polynomial], order: MonomialOrder | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`, sorted by
    ascending leading monomial.

    Homogeneous gens take F4 (`_homogeneous_basis`): one Macaulay matrix
    per degree, in increasing degree. Each element comes out reduced by the
    elements before it, and a later element, of higher degree, has a
    leading monomial that divides no term of an earlier one; so the basis
    is reduced as found, with no interreduction. Other gens run
    `module_buchberger` on the gens as elements of the free module of rank
    1, which homogenizes them and returns the reduced basis. Output is
    independent of the input order and of the route (reduced bases are
    unique for a fixed monomial order).
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        ring_order = order
        if ring_order is None:
            raise ValueError("cannot infer order from an empty generator list")
        return GroebnerBasis((), ring_order)
    ring = gens[0].ring
    for g in gens:
        ring.check_compatible(g.ring)
    if order is not None and order != ring.order:
        raise ValueError("order does not match the generators' ring order")
    if all(g.is_homogeneous() for g in gens):
        return GroebnerBasis(tuple(_homogeneous_basis(gens)), ring.order)

    okey = ring.order.key
    elements = [_melt_from_components((g,)) for g in gens]
    basis = module_buchberger(elements, lambda pm: okey(pm[1]), ring.p, (0,))
    return GroebnerBasis(tuple(_melt_to_components(e, 1, ring)[0] for e in basis), ring.order)


def _homogeneous_basis(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal of the nonzero homogeneous `gens`,
    sorted by ascending leading monomial: F4 with the normal strategy
    (Faugere, JPAA 139 (1999)).

    Generators that are all monomials give their minimal ones at once.
    Otherwise the degrees d that hold a pending S-pair or a generator are
    taken in increasing order. Each is a Macaulay matrix (Lazard, EUROCAL
    '83) whose columns are its monomials of degree d in descending order
    (so the code serves every monomial order) and whose rows are
    - both halves u*g of each pair of degree d left by `_add_pairs`, and the
      generators of degree d;
    - by symbolic preprocessing, repeated over the monomials each new row
      brings in: for every monomial of the matrix that a leading monomial
      of the basis divides, one reducer u*g that leads there (a pair half
      where one does, else u*g for the first such g).
    The other rows are reduced by the reducers (`linalg._reduce_row`, which
    also serves the sparse elimination path), and one `rref` of what is
    left gives the new basis elements of degree d. They are monic, lead
    outside the leading-term ideal so far and are zero at every monomial of
    the matrix inside it, so they are fully reduced. No element is reduced
    again later: a later element has higher degree, and its leading
    monomial divides no monomial of degree d.
    """
    ring = gens[0].ring
    key = ring.order.key
    if all(len(g.terms) == 1 for g in gens):
        minimal = _minimalize_monomials([g.leading_monomial() for g in gens])
        return [Polynomial(ring, ((m, 1),)) for m in sorted(minimal, key=key)]
    p = ring.p
    pending = sorted(gens, key=Polynomial.degree, reverse=True)
    # the basis: leading terms (all at position 0) and (monic) terms, in order found
    lts: list[tuple[int, Monomial]] = []
    basis: list[tuple] = []
    # S-pairs left by `_add_pairs`, ranked by the degree of their lcm
    pairs: list[tuple] = []
    while pairs or pending:
        d = min([s[0] for s in pairs] + [g.degree() for g in pending[-1:]])
        # the reducers by leading monomial, and the rows to reduce
        reducers: dict[Monomial, list] = {}
        rows: list = []
        products = set()
        for _d, j, i, _pos, lcm in [s for s in pairs if s[0] == d]:
            for k in (i, j):
                u = mono_quotient(lcm, lts[k][1])
                if (k, u) not in products:
                    products.add((k, u))
                    row = [(mono_mul(m, u), c) for m, c in basis[k]]
                    if lcm in reducers:
                        rows.append(row)
                    else:
                        reducers[lcm] = row
        pairs = [s for s in pairs if s[0] != d]
        while pending and pending[-1].degree() == d:
            rows.append(pending.pop().terms)
        seen = set(reducers)
        lead_rows = np.array([m for _pos, m in lts], dtype=np.int64).reshape(len(lts), ring.nvars)
        wave = [m for row in (*reducers.values(), *rows) for m, _c in row]
        while wave:
            fresh = [m for m in dict.fromkeys(wave) if m not in seen]
            seen.update(fresh)
            wave = []
            for m, k in zip(fresh, _first_divisors(fresh, lead_rows)):
                if k >= 0:
                    u = mono_quotient(m, lts[k][1])
                    reducers[m] = [(mono_mul(mm, u), c) for mm, c in basis[k]]
                    wave += [mm for mm, _c in reducers[m]]
        columns = sorted(seen, key=key, reverse=True)
        index = {m: c for c, m in enumerate(columns)}
        table = {index[m]: [(index[mm], c) for mm, c in row[1:]] for m, row in reducers.items()}
        rest = [_reduce_row({index[m]: c for m, c in row}, table, p) for row in rows]
        rest = [row for row in rest if row]
        if not rest:
            continue
        # the columns left, in order
        left = sorted({c for row in rest for c in row})
        at = {c: j for j, c in enumerate(left)}
        mat = Nonzeros(
            (len(rest), len(left)),
            np.arange(len(rest)).repeat([len(row) for row in rest]),
            np.array([at[c] for row in rest for c in row], dtype=np.int64),
            np.array([v for row in rest for v in row.values()], dtype=np.int64),
        )
        for row in rref(mat, p)[0].tolist():
            terms = tuple((columns[left[j]], v) for j, v in enumerate(row) if v)
            lts.append((0, terms[0][0]))
            basis.append(terms)
            pairs = _add_pairs(pairs, lts, lambda _pos, lcm: mono_degree(lcm))
    order = sorted(range(len(lts)), key=lambda i: key(lts[i][1]))
    return [Polynomial(ring, basis[i]) for i in order]


def _minimalize_monomials(gens: list[Monomial]) -> list[Monomial]:
    """The minimal generators of the monomial ideal of `gens`, by degree."""
    out: list[Monomial] = []
    for m in sorted(set(gens), key=lambda m: (mono_degree(m), m)):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def _first_divisors(monos: list[Monomial], lts: np.ndarray) -> list[int]:
    """For each monomial, the index of the first row of `lts` (leading
    monomials as exponent rows) that divides it, or -1."""
    if not (len(lts) and monos):
        return [-1] * len(monos)
    hit = (np.array(monos, dtype=np.int64)[:, None, :] >= lts).all(axis=2)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1).tolist()


def _add_pairs(pairs: list[tuple], lts: list, rank: Callable, single=None) -> list[tuple]:
    """The S-pairs after the last of the leading terms `lts`, (position,
    monomial) of each basis element, joins the basis, by Gebauer and
    Moeller's update (Becker and Weispfenning, *Groebner Bases*, 5.5). Only
    elements at one position make a pair. Of the new pairs (g, h), drop
    those whose lcm another new pair's lcm divides (criterion M; of equal
    lcms one is kept, a coprime one first, criterion F), then the coprime
    ones (Buchberger's first criterion); of the old pairs (i, j) at the new
    position, drop those whose lcm the new leading monomial divides unless
    it equals lcm(i, h) or lcm(j, h) (criterion B_k).

    A pair is coprime when its leading monomials are and both elements lie
    in a single position (`single`, or all when it is None): the criterion
    holds for f*e_k, g*e_k, not for general module elements. A pair (i, j),
    i < j, is the tuple (rank(position, lcm), j, i, position, lcm): pairs
    sort by the caller's `rank`, then oldest first. No element leaves.
    """
    h, (pos, mh) = len(lts) - 1, lts[-1]
    new = []
    for g, (gpos, mg) in enumerate(lts[:h]):
        if gpos == pos:
            lcm = mono_lcm(mg, mh)
            # lm g and mh are coprime when their lcm is their product
            coprime = sum(lcm) == sum(mg) + sum(mh)
            new.append((lcm, g, coprime and (single is None or single[g] and single[h])))
    kept: list[tuple] = []
    for a, (lcm, g, coprime) in enumerate(new):
        if coprime or not any(mono_divides(s[0], lcm) for s in [*new[a + 1 :], *kept]):
            kept.append((lcm, g, coprime))
    out = [
        s
        for s in pairs
        if s[3] != pos
        or not mono_divides(mh, s[4])
        or mono_lcm(lts[s[2]][1], mh) == s[4]
        or mono_lcm(lts[s[1]][1], mh) == s[4]
    ]
    out += [(rank(pos, lcm), h, g, pos, lcm) for lcm, g, coprime in kept if not coprime]
    return out


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


def _at_each_position(polys: Sequence[Polynomial], rank: int) -> list[tuple[Polynomial, ...]]:
    """The vectors f * e_j of the free module of the given rank: f in `polys`
    outer, the position j inner."""
    out = []
    for f in polys:
        zero = f.ring.zero()
        for j in range(rank):
            comps = [zero] * rank
            comps[j] = f
            out.append(tuple(comps))
    return out


def _melt_lt(elt: ModElt, key: ModKey) -> tuple[tuple[int, Monomial], int]:
    pm = max(elt, key=key)
    return pm, elt[pm]


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
        leads.append((pm, pow(c, -1, p), b))
    return _melt_reduce(elt, leads, key, p)


def module_buchberger(
    elements: Sequence[ModElt],
    key: ModKey,
    p: int,
    shifts: Sequence[int],
) -> list[ModElt]:
    """Groebner basis of the submodule generated by `elements`, run to
    completion.

    As each element joins the basis, the Gebauer-Moeller update
    (`_add_pairs`) drops the S-pairs that its criteria make redundant; the
    coprime criterion holds only for pairs of elements that lie in a single
    position. The pairs left are reduced in increasing degree (the lcm's
    degree plus the shift of its position), then in increasing `key` of the
    lcm, oldest pair first. No element leaves the basis.

    When some element has terms of more than one degree deg m + shift, every
    element is first homogenized, up to its top degree, by one extra last
    variable h, and the loop runs under the key (degree, `key` of the term
    without h). Under that key the leading term of a homogeneous element is
    the leading term of the element with h = 1, so the basis with h set to 1
    is a Groebner basis for `key`, and the pairs are taken in the order of
    their sugar degree. That basis is returned reduced
    (`_interreduce`), since setting h to 1 leaves many elements redundant.
    """
    elements = [e for e in ({k: v % p for k, v in e.items() if v % p} for e in elements) if e]
    degrees = [{mono_degree(m) + shifts[pos] for pos, m in e} for e in elements]
    homogenize = any(len(ds) > 1 for ds in degrees)
    if homogenize:
        elements = [
            {(pos, m + (top - mono_degree(m) - shifts[pos],)): c for (pos, m), c in e.items()}
            for e, top in zip(elements, map(max, degrees))
        ]
        dehomogenized_key = key
        key = lambda pm: (
            mono_degree(pm[1]) + shifts[pm[0]],
            dehomogenized_key((pm[0], pm[1][:-1])),
        )

    basis: list[ModElt] = []
    # the leading term of each (monic) basis element, as `_melt_reduce` and
    # `_add_pairs` take them, and whether the element lies in a single position
    leads: list[tuple] = []
    lts: list[tuple[int, Monomial]] = []
    single: list[bool] = []
    # the S-pairs left by `_add_pairs`, as a heap, ranked by degree and key
    pairs: list[tuple] = []
    rank = lambda pos, lcm: (mono_degree(lcm) + shifts[pos], key((pos, lcm)))

    def append(e: ModElt) -> None:
        nonlocal pairs
        pm, c = _melt_lt(e, key)
        e = _melt_scale(e, pow(c, -1, p), p)
        basis.append(e)
        leads.append((pm, 1, e))
        lts.append(pm)
        single.append(all(pos == pm[0] for pos, _m in e))
        pairs = _add_pairs(pairs, lts, rank, single)
        heapq.heapify(pairs)

    for e in elements:
        append(e)
    while pairs:
        _rank, j, i, _pos, lcm = heapq.heappop(pairs)
        # s = u_i * basis[i] - u_j * basis[j], both already monic
        s = _melt_axpy({}, basis[i], mono_quotient(lcm, lts[i][1]), p - 1, p)
        s = _melt_axpy(s, basis[j], mono_quotient(lcm, lts[j][1]), 1, p)
        r = _melt_reduce(s, leads, key, p)
        if r:
            append(r)

    if homogenize:
        basis = [{(pos, m[:-1]): c for (pos, m), c in e.items()} for e in basis]
        return _interreduce(basis, dehomogenized_key, p)
    return basis


def _interreduce(basis: list[ModElt], key: ModKey, p: int) -> list[ModElt]:
    """The reduced Groebner basis of the submodule that the Groebner basis
    `basis` generates, sorted by ascending leading term: minimalize the
    leading terms, then fully auto-reduce.

    Tail reduction leaves the (monic) leading terms of a minimal basis as
    they are, so every element is reduced once by the others' current
    versions, and no term of a reduced element becomes divisible later.
    """
    leads: list[tuple] = []
    for e in sorted(basis, key=lambda e: key(_melt_lt(e, key)[0])):
        (pos, m), c = _melt_lt(e, key)
        if not any(bpos == pos and mono_divides(bm, m) for (bpos, bm), _inv, _b in leads):
            leads.append(((pos, m), 1, _melt_scale(e, pow(c, -1, p), p)))
    for i, (lead, _inv, elt) in enumerate(leads):
        leads[i] = (lead, 1, _melt_reduce(elt, leads[:i] + leads[i + 1 :], key, p))
    return [elt for _lead, _inv, elt in leads]


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
) -> list[tuple[Polynomial, ...]]:
    """Syzygies of `columns` modulo `extra_relations` over the polynomial ring.

    Tagged elimination: each column i is extended by a tag e_i, the extra
    relations get zero tags, and a position-over-term basis is computed in
    which the target block dominates. Basis elements with zero target block
    are exactly the syzygy generators; their tag components are returned.
    The columns must be graded: tag e_i has the degree of column i.
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
    # column i with its tag 1 * e_{r+i}; a zero component adds no term
    elements: list[ModElt] = []
    for i, col in enumerate(columns):
        elt = _melt_from_components(col)
        elt[(r + i, (0,) * ring.nvars)] = 1
        elements.append(elt)
    elements += [_melt_from_components(rel) for rel in extra_relations]

    key = pot_elim_key(r, ring.order)
    basis = module_buchberger(elements, key, ring.p, shifts)
    return [
        _melt_to_components({(pos - r, mono): c for (pos, mono), c in elt.items()}, m, ring)
        for elt in basis
        if all(pos >= r for (pos, _m) in elt)
    ]


# ----------------------------------------------- graded pieces of free modules
#
# `ring` is a quotient ring object exposing piece(d), coords(f, d),
# reduce(f), dim_piece(d), the per-degree table variable_action(e),
# poly_ring, nvars, p.

_EMPTY = np.zeros(0, dtype=np.int64)


def coords_of_vector(
    ring, shifts: Sequence[int], components: Sequence[Polynomial], d: int
) -> np.ndarray:
    """Coordinates of a degree-d graded vector (components already reduced)."""
    if not shifts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([ring.coords(c, d - s) for c, s in zip(components, shifts)])


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


def _next_degree_map(ring, target_shifts, source_shifts, prev, d):
    """The degree-d map (a_j) -> sum a_j * col_j of graded columns col_j of
    degrees source_shifts[j] (sorted), from the degree d-1 map `prev`, with
    the generator columns (j, 1), source_shifts[j] == d, left zero. Both maps
    are `Nonzeros` with entries reduced mod p, sorted by column and then row.

    Rows: the degree-d basis of the target free module. Columns: (j, u) with
    u a standard monomial of degree d - source_shifts[j].

    Column (j, u), with x_v the first variable of u, is x_v times column
    (j, u / x_v) of `prev`. All of them are one sparse product, read off
    one table of the ring keyed by a degree alone, which serves every shift
    tuple (`QuotientRing.variable_action`): the blocks of equal consecutive
    shifts of each module (`shift_runs`; the target's in any order) give
    every nonzero entry of `prev` the degrees of its row and column. The
    entry at column (j, w) goes to every column (j, u) with u / x_v = w
    (the lifts of the action on the source blocks), and there through the
    nonzero entries of x_v at its row (the entries of the action on the
    target blocks); the products are reduced mod p, and the products at
    one coordinate are added mod p. A map with no rows or no columns is
    returned before the table is read.
    """
    target = shift_runs(ring, target_shifts, d - 1)
    source = shift_runs(ring, source_shifts, d - 1)
    nrows = sum(m * high for _s, m, _low, high in target)
    ncols = sum(m * high for _s, m, _low, high in source)
    if not (nrows and ncols and len(prev.values)):
        return Nonzeros((nrows, ncols), _EMPTY, _EMPTY, _EMPTY)
    # a nonzero of prev at column (j, w) goes to the columns (j, x_v * w)
    # that have x_v as their first variable: for each v, that column or -1
    col, w, actions = _locate(ring, source, prev.cols, d)
    lifts = [lifts for *_entries, lifts in actions]
    lifts = (lifts[0] if len(lifts) == 1 else np.concatenate(lifts))[w]
    # and its row (i, a) through the entries of x_v at a
    row, a, actions = _locate(ring, target, prev.rows, d)
    if len(actions) == 1:
        start, count, times_rows, times_values, _lifts = actions[0]
    else:
        # the actions one after another, each start moved past the entries before
        entries = np.cumsum([0] + [len(action[2]) for action in actions[:-1]])
        start = np.concatenate([action[0] + e for action, e in zip(actions, entries)])
        count, times_rows, times_values = (np.concatenate(z) for z in zip(*(t[1:4] for t in actions)))
    # n[i, v] products of nonzero i by x_v, none where it has no column:
    # two entries in [1, p) make a product below p^2 < 2^62, nonzero mod
    # the prime p
    n = count[a] * (lifts >= 0)
    k = _ranges(start[a].ravel(), n.ravel())
    value = prev.values.repeat(n.sum(1)) * times_values[k] % ring.p
    flat = ((lifts + col[:, None]) * nrows + row[:, None]).ravel()
    flat = flat.repeat(n.ravel()) + times_rows[k]
    order = flat.argsort()
    flat, value = flat[order], value[order]
    meets = flat[1:] == flat[:-1]
    if meets.any():
        # products at one coordinate: fewer than 2^32 addends below 2^31
        # each, whose sum mod p may be zero
        at = np.flatnonzero(np.concatenate(([True], ~meets)))
        value = np.add.reduceat(value, at) % ring.p
        flat = flat[at][value != 0]
        value = value[value != 0]
    out_cols, out_rows = np.divmod(flat, nrows)
    return Nonzeros((nrows, ncols), out_rows, out_cols, value)


def _locate(ring, runs, index, d):
    """Where the coordinates `index` of the degree d-1 piece of a free module
    lie. `runs` are its blocks of equal shifts (`shift_runs` at d - 1). For
    each coordinate (i, a), a in copy i of R_{d-1-s}: the first coordinate
    of copy i of R_{d-s} at degree d, and the row of a in the variable
    actions on R_{d-1-s} of the blocks with a nonzero piece at d - 1, laid
    one after another; and those actions."""
    blocks, actions = [], []
    old = new = rows = 0
    for s, m, low, high in runs:
        if low:
            blocks.append((old, low, new, high, rows))
            actions.append(ring.variable_action(d - 1 - s))
            rows += low
        old += m * low
        new += m * high
    if len(blocks) == 1:
        # the blocks before it have no coordinates at d - 1
        _old, low, new, high, _rows = blocks[0]
        copy, at = np.divmod(index, low)
        return new + high * copy, at, actions
    blocks = np.array(blocks, dtype=np.int64)
    old, low, new, high, rows = blocks[blocks[:, 0].searchsorted(index, "right") - 1].T
    copy, at = np.divmod(index - old, low)
    return new + high * copy, rows + at, actions


def _ranges(starts, counts):
    """The ranges starts[k], ..., starts[k] + counts[k] - 1, concatenated."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts + counts - ends).repeat(counts)


def _stage(ring, incoming, sieve, step, d_last):
    """One step of a minimal presentation or resolution, run degree by degree:
    the generators it keeps, and the degree-d map N_d of those generators
    into the free module before it.

    `incoming` yields (d, target, x) for consecutive d, where target are the
    shifts of the free module N_d maps into and x.shape[1] the dimension of
    its degree-d piece (an x with no rows, which brings no generator, may
    have no columns either). At each d the stage builds N_d, a `Nonzeros`,
    over its generators of degrees < d (`_next_degree_map` from N_{d-1};
    with no generator yet, a matrix with no columns), so the columns of N_d
    span R_1 times the degree d-1 part of the span. `sieve(N_d, x, d)`
    returns the rows of the new degree-d generators; they go to `step[d]`
    and are appended to N_d as its generator columns. The stage then yields
    (d, gens, N_d), with gens the degrees of its generators so far: the
    (d, target, x) of the next step's stage.

    Once `incoming` has ended no generator comes any more. The stage goes on
    building N_d up to d_last until N_d has no columns: every generator has
    degree <= d, and R_e = 0 gives R_{e+1} = 0 (R is generated in degree 1),
    so every later piece of the span is zero too.
    """
    gens: tuple[int, ...] = ()
    for d, target, x in incoming:
        if gens:
            mat = _next_degree_map(ring, target, gens, mat, d)
        else:
            mat = Nonzeros((x.shape[1], 0), _EMPTY, _EMPTY, _EMPTY)
        new = sieve(mat, x, d)
        if len(new):
            step[d] = new
            gens += (d,) * len(new)
            mat = mat.append_columns(new)
        if gens:
            yield d, gens, mat
    while gens and mat.shape[1] and d < d_last:
        d += 1
        mat = _next_degree_map(ring, target, gens, mat, d)
        yield d, gens, mat


_NO_ROWS = np.zeros((0, 0), dtype=np.int64)


def _by_degree(shifts, rows_by_degree):
    """The `incoming` of a `_stage` that sieves given rows: (d, shifts,
    rows_by_degree[d]) for d from the lowest to the highest key, with an
    empty matrix at the degrees between that have none."""
    if rows_by_degree:
        for d in range(min(rows_by_degree), max(rows_by_degree) + 1):
            yield d, shifts, rows_by_degree.get(d, _NO_ROWS)


def _pivot_sieve(p, ranks=None, lo=0):
    """The graded Nakayama sieve of given rows: a row is kept when it is
    independent of the columns of N_d (R_1 times the span of degree d-1)
    plus the rows before it. One `pivot_columns` on N_d followed by the rows
    as columns keeps the rows at pivot columns: the choice an incremental
    echelon fed the products and then the rows in order would make. Its
    pivot count is the rank of N_d with the kept rows appended, which goes
    to `ranks[d - lo]` where `ranks` is given, at every degree with rows."""

    def sieve(mat, rows, d):
        if not len(rows):
            return rows
        n = mat.shape[1]
        pivots = np.array(pivot_columns(mat.append_columns(rows), p), dtype=np.int64)
        if ranks is not None:
            ranks[d - lo] = len(pivots)
        return rows[pivots[pivots >= n] - n]

    return sieve


def _candidate_rows(ring, shifts, vectors):
    """{d: int64 matrix whose rows are the coordinate vectors of the
    `vectors` of internal degree d}, in input order. The vectors' components
    must be reduced; zero vectors are dropped."""
    rows: dict[int, list[np.ndarray]] = {}
    for v in vectors:
        d = v.internal_degree()
        if d is not None:
            rows.setdefault(d, []).append(coords_of_vector(ring, shifts, v.components, d))
    return {d: np.array(r) for d, r in rows.items()}


def minimal_module_generators(
    ring, shifts: Sequence[int], vectors: Sequence[FreeModuleVector]
) -> list[FreeModuleVector]:
    """Minimal homogeneous generating set of the span of `vectors` over the ring.

    The vectors, reduced, go through a `_stage` with the `_pivot_sieve`, from
    their lowest degree to their highest; the kept ones are returned in
    increasing degree, in input order within a degree.
    """
    shifts = tuple(shifts)
    reduced = [FreeModuleVector(tuple(map(ring.reduce, v.components)), shifts) for v in vectors]
    candidates = _candidate_rows(ring, shifts, reduced)
    step: dict[int, np.ndarray] = {}
    incoming = _by_degree(shifts, candidates)
    for _ in _stage(ring, incoming, _pivot_sieve(ring.p), step, max(candidates, default=0)):
        pass
    return [vector_from_coords(ring, shifts, row, d) for d, mat in step.items() for row in mat]


# ------------------------------------------------------------ public ops


def syzygy_basis(vectors: Sequence[FreeModuleVector], ring) -> list[FreeModuleVector]:
    """Minimal generating set of {(a_i) : sum a_i v_i = 0 in the quotient ring}.

    The syzygies over the polynomial ring of the columns modulo the ring's
    defining relations in every position (`syzygies_over_poly_ring`), then
    `minimal_module_generators` of them over the ring.
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
    relations = _at_each_position(ring.gb.generators, len(shifts))
    raw = syzygies_over_poly_ring(columns, shifts, relations)
    col_degs = tuple(v.internal_degree() or 0 for v in vectors)
    # minimal_module_generators reduces the syzygies and drops the zero ones
    out = [FreeModuleVector(comps, col_degs) for comps in raw]
    minimal = minimal_module_generators(ring, col_degs, out)
    minimal.sort(key=lambda v: (v.internal_degree(), str(v)))
    return minimal


def colon_ideal(
    j_gens: Sequence[Polynomial], i_gens: Sequence[Polynomial], ring
) -> GroebnerBasis:
    """Reduced Groebner basis of the preimage of (J : I) in the quotient ring.

    The preimage (containing the defining ideal) is the canonical
    representation of an ideal of the quotient; equality of ideals is
    equality of these bases. With J' = J + I_R and I = (g_1..g_k), the
    colon is the tags of the syzygies of the one column (g_1..g_k) modulo
    the relations J'*e_i, in the free module with shifts -deg g_i: one
    tagged elimination for all the g_i, then the tags plus I_R reduced.
    """
    poly_ring = ring.poly_ring
    j_full = [ring.reduce(g) for g in j_gens] + list(ring.gb.generators)
    j_full = [g for g in j_full if not g.is_zero()]
    column = [g for g in map(ring.reduce, i_gens) if not g.is_zero()]
    if not column:
        # I = (0): the colon is the whole ring
        return buchberger([poly_ring.one()], poly_ring.order)
    if not all(g.is_homogeneous() for g in column):
        raise ValueError("non-homogeneous colon input")
    raw = syzygies_over_poly_ring(
        [tuple(column)],
        tuple(-g.degree() for g in column),
        _at_each_position(j_full, len(column)),
    )
    tags = [comps[0] for comps in raw if not comps[0].is_zero()]
    return buchberger(tags + list(ring.gb.generators), poly_ring.order)


def quotient_generators(gb: GroebnerBasis, ring) -> list[Polynomial]:
    """Generators of the quotient-ring ideal: basis elements surviving reduction."""
    out = []
    for g in gb.generators:
        r = ring.reduce(g)
        if not r.is_zero():
            out.append(r)
    return out
