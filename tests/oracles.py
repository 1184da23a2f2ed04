"""Brute-force oracles, independent of the library's computation paths.

Polynomials here are plain dicts {exponent tuple: coeff mod p}; ranks use a
self-contained Gaussian elimination on lists. Nothing imports the package's
normal-form, Groebner or resolution machinery.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb


def monomials_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    if d < 0:
        return []
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


def raw_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def raw_add(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def raw_mono(m: tuple, c: int = 1) -> dict:
    return {tuple(m): c}


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Plain-list Gaussian elimination, no numpy."""
    rows = [[c % p for c in r] for r in rows if any(c % p for c in r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_rows: list[list[int]] = []
    for r in rows:
        r = list(r)
        for pr in pivot_rows:
            lead = next(i for i, c in enumerate(pr) if c)
            if r[lead]:
                f = r[lead]
                r = [(a - f * b) % p for a, b in zip(r, pr)]
        if any(r):
            lead = next(i for i, c in enumerate(r) if c)
            inv = pow(r[lead], p - 2, p)
            r = [(c * inv) % p for c in r]
            pivot_rows.append(r)
            rank += 1
    return rank


def span_dim(vectors: list[dict], basis: list[tuple], p: int) -> int:
    """Dimension of the span of the dict-polynomials inside the monomial basis."""
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for v in vectors:
        row = [0] * len(basis)
        for m, c in v.items():
            row[index[m]] = c
        rows.append(row)
    return rank_mod_p(rows, p) if rows else 0


def ideal_piece_dim(gens: list[dict], n: int, d: int, p: int) -> int:
    """dim of the degree-d piece of the ideal generated by homogeneous gens."""
    vectors = []
    for g in gens:
        if not g:
            continue
        gdeg = sum(next(iter(g)))
        for u in monomials_of_degree(n, d - gdeg):
            vectors.append(raw_mul(g, raw_mono(u), p))
    return span_dim(vectors, monomials_of_degree(n, d), p)


def quotient_piece_dim(gens: list[dict], n: int, d: int, p: int) -> int:
    """dim of (S/(gens))_d by pure span ranks; the Hilbert function oracle."""
    total = len(monomials_of_degree(n, d))
    return total - ideal_piece_dim(gens, n, d, p)


def submodule_piece_dim(
    vectors: list[tuple[dict, ...]],
    ideal_gens: list[dict],
    n: int,
    shifts: tuple[int, ...],
    d: int,
    p: int,
) -> int:
    """dim of the degree-d piece of the submodule generated by homogeneous
    `vectors` of the free module (S/(ideal_gens))(-shifts), by span ranks in
    S^r: dim (U + I*F)_d - dim (I*F)_d."""
    basis = [(pos, m) for pos, s in enumerate(shifts) for m in monomials_of_degree(n, d - s)]

    def multiples(vec: tuple[dict, ...]) -> list[dict]:
        vdeg = next(sum(next(iter(c))) + s for c, s in zip(vec, shifts) if c)
        out = []
        for u in monomials_of_degree(n, d - vdeg):
            out.append({
                (pos, m): c
                for pos, comp in enumerate(vec)
                for m, c in raw_mul(comp, raw_mono(u), p).items()
            })
        return out

    relations = []
    for pos in range(len(shifts)):
        for g in ideal_gens:
            unit = tuple(g if k == pos else {} for k in range(len(shifts)))
            relations += multiples(unit)
    generated = [w for v in vectors if any(v) for w in multiples(v)]
    return span_dim(relations + generated, basis, p) - span_dim(relations, basis, p)


def in_ideal_brute(f: dict, gens: list[dict], n: int, p: int) -> bool:
    """Degree-wise membership of homogeneous f via span ranks."""
    if not f:
        return True
    d = sum(next(iter(f)))
    basis = monomials_of_degree(n, d)
    vectors = []
    for g in gens:
        if not g:
            continue
        gdeg = sum(next(iter(g)))
        for u in monomials_of_degree(n, d - gdeg):
            vectors.append(raw_mul(g, raw_mono(u), p))
    before = span_dim(vectors, basis, p)
    after = span_dim(vectors + [f], basis, p)
    return after == before


def series_divide(num: list[int], den: list[int], d_max: int) -> list[int]:
    """Truncated power-series division over Z (den must start with +-1)."""
    assert den[0] in (1, -1)
    out = []
    for d in range(d_max + 1):
        acc = num[d] if d < len(num) else 0
        for k in range(1, d + 1):
            dk = den[k] if k < len(den) else 0
            acc -= dk * out[d - k]
        out.append(acc * den[0])
    return out


def rational_hilbert_series(numerator: list[int], offset: int, n: int, d_max: int) -> dict:
    """The JSON of the Hilbert series numerator * t^offset / (1-t)^n: the
    numerator trimmed, its (1-t) factors cancelled by synthetic division,
    and the expansion to degree d_max as a sum of binomial series."""
    num = list(numerator)
    while num and num[-1] == 0:
        num.pop()
    if not num:
        krull, mult = -1, 0
    else:
        reduced, cancelled = list(num), 0
        while sum(reduced) == 0:
            out, acc = [], 0
            for c in reduced[:-1]:
                acc += c
                out.append(acc)
            while out and out[-1] == 0:
                out.pop()
            reduced, cancelled = out, cancelled + 1
        krull, mult = n - cancelled, sum(reduced)
    expansion = [0] * (d_max + 1)
    for i, c in enumerate(num):
        base = i + offset
        for d in range(max(base, 0), d_max + 1):
            expansion[d] += c * comb(d - base + n - 1, n - 1) if n > 0 else (c if d == base else 0)
    return {
        "numerator": num, "offset": offset, "denominator_power": n,
        "expansion": expansion, "krull_dim": krull, "multiplicity": mult,
        "codim": n - krull,
    }


def _echelonize(rows: list[list[int]], p: int) -> list[list[int]]:
    ech: list[list[int]] = []
    for r in rows:
        r = [c % p for c in r]
        for pr in ech:
            lead = next(i for i, c in enumerate(pr) if c)
            if r[lead]:
                f = r[lead]
                r = [(a - f * b) % p for a, b in zip(r, pr)]
        if any(r):
            lead = next(i for i, c in enumerate(r) if c)
            inv = pow(r[lead], p - 2, p)
            ech.append([(c * inv) % p for c in r])
    return ech


def _reduce_against(ech: list[list[int]], vec: list[int], p: int) -> list[int]:
    vec = [c % p for c in vec]
    for pr in ech:
        lead = next(i for i, c in enumerate(pr) if c)
        if vec[lead]:
            f = vec[lead]
            vec = [(a - f * b) % p for a, b in zip(vec, pr)]
    return vec


def colon_piece_dim(
    j_gens: list[dict], i_gens: list[dict], n: int, d: int, p: int
) -> int:
    """dim of {f in S_d : f * g in (j_gens) for every g in i_gens}."""
    source = monomials_of_degree(n, d)
    equations: list[list[int]] = []
    for g in i_gens:
        if not g:
            continue
        gdeg = sum(next(iter(g)))
        target = monomials_of_degree(n, d + gdeg)
        index = {m: i for i, m in enumerate(target)}
        jvecs = []
        for h in j_gens:
            if not h:
                continue
            hdeg = sum(next(iter(h)))
            for u in monomials_of_degree(n, d + gdeg - hdeg):
                prod = raw_mul(h, raw_mono(u), p)
                row = [0] * len(target)
                for m, c in prod.items():
                    row[index[m]] = c
                jvecs.append(row)
        ech = _echelonize(jvecs, p)
        reduced_cols = []
        for u in source:
            prod = raw_mul(raw_mono(u), g, p)
            vec = [0] * len(target)
            for m, c in prod.items():
                vec[index[m]] = c
            reduced_cols.append(_reduce_against(ech, vec, p))
        for t in range(len(target)):
            eq = [reduced_cols[s][t] for s in range(len(source))]
            if any(eq):
                equations.append(eq)
    if not equations:
        return len(source)
    return len(source) - rank_mod_p(equations, p)


def reference_degrevlex(a: tuple, b: tuple) -> int:
    """Textbook degrevlex: higher degree wins; on ties the monomial with the
    smaller exponent in the rightmost differing position is the greater."""
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            return 1 if a[i] < b[i] else -1
    return 0


def poly_to_dict(poly) -> dict:
    return {m: c for m, c in poly.terms}
