"""Certificates and verifiers for Koszul filtrations and Groebner flags,
Conca generators, the Fitzgerald annihilator condition and graded
minimal-multiplicity reductions.

Linear-form ideals are canonicalized as reduced row echelon bases, so
subspace equality is exact integer comparison. A colon J : g of a linear
ideal by a linear form is settled without a Groebner colon: its degree-1
part is a kernel over F_p, and whether that part generates the colon is an
identity of Hilbert numerators (see `_linear_colon`). Those numerators come
from ranks of products by linear forms, up to the degree where Gotzmann's
persistence theorem fixes the rest (see `_linear_numerator`), so no
Groebner basis is computed for them. The span conditions of the Conca,
Fitzgerald and reduction checks are ranks of the same products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb, prod

import numpy as np

from .arith import Polynomial
from .groebner import colon_ideal
from .linalg import as_matrix, matmul_mod, nullspace, rank, rref
from .quotient import QuotientRing, _poly_add, _trim, quotient_by_linear_forms


class BudgetExceededError(RuntimeError):
    """An enumeration exceeded its configured budget."""


# ------------------------------------------------------------ linear ideals


@dataclass(frozen=True)
class LinearIdeal:
    """Ideal generated by a subspace of R_1, stored as an RREF basis."""

    rows: tuple[tuple[int, ...], ...]
    # p -> (RREF of rows, its pivot columns), for contains_vector
    _reduced: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def from_vectors(vectors, n: int, p: int) -> "LinearIdeal":
        if not len(vectors):
            return LinearIdeal(())
        mat, _ = rref(np.array(vectors, dtype=np.int64).reshape(-1, n), p)
        return LinearIdeal(tuple(tuple(int(c) for c in row) for row in mat))

    @staticmethod
    def zero() -> "LinearIdeal":
        return LinearIdeal(())

    @staticmethod
    def full(n: int) -> "LinearIdeal":
        eye = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return LinearIdeal(eye)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, v, p: int) -> bool:
        if not self.rows:
            return not any(int(c) % p for c in v)
        reduced = self._reduced.get(p)
        if reduced is None:
            # rows read from JSON need not be in RREF, so reduce them here
            mat, pivots = rref(np.array(self.rows, dtype=np.int64), p)
            reduced = self._reduced[p] = (mat, pivots)
        mat, pivots = reduced
        v = np.asarray(v, dtype=np.int64) % p
        return not np.any((v - matmul_mod(v[pivots][None], mat, p)[0]) % p)

    def contains(self, other: "LinearIdeal", p: int) -> bool:
        return all(self.contains_vector(r, p) for r in other.rows)

    def plus_vector(self, v, p: int) -> "LinearIdeal":
        n = len(v)
        return LinearIdeal.from_vectors(list(self.rows) + [tuple(v)], n, p)

    def forms(self, ring: QuotientRing) -> list[Polynomial]:
        return [ring.linear_form(row) for row in self.rows]

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def _form_products(ring: QuotientRing, rows, d: int) -> np.ndarray:
    """Products of linear forms (rows of R_1 coordinates) with R_d, as an
    array (forms, dim R_d, dim R_{d+1}): entry [k, j] holds the coordinates
    of the k-th form times the j-th basis monomial of R_d."""
    n, p = ring.nvars, ring.p
    low, high = ring.dim_piece(d), ring.dim_piece(d + 1)
    stack = ring.var_multiplication_stack(d).reshape(n, high * low)
    prods = matmul_mod(as_matrix(rows, n, p), stack, p)
    return prods.reshape(len(prods), high, low).transpose(0, 2, 1)


def _span_rank(ring: QuotientRing, rows, d: int) -> int:
    """dim (forms) * R_d inside R_{d+1}, for linear forms given by their rows."""
    prods = _form_products(ring, rows, d)
    k, low, high = prods.shape
    return rank(prods.reshape(k * low, high), ring.p)


def _macaulay_bound(h: int, d: int) -> int:
    """h^<d> for d >= 1: the largest dim A_{d+1} of a standard graded algebra
    A with dim A_d = h (Macaulay). With h = C(k_d, d) + C(k_{d-1}, d-1) + ...
    the greedy d-binomial expansion, h^<d> = C(k_d + 1, d + 1) + ..."""
    out = 0
    while h:
        k = d
        while comb(k + 1, d) <= h:
            k += 1
        h -= comb(k, d)
        out += comb(k + 1, d + 1)
        d -= 1
    return out


def _linear_numerator(ring: QuotientRing, li: LinearIdeal) -> tuple[int, ...]:
    """Numerator over (1-t)^n of H_{R/(li)}, for li in RREF; memoized on the ring.

    h(e) = dim (R/(li))_e is dim R_e minus the rank of li * R_{e-1}, with
    h(0) = 1 and h(1) = n - dim li (the defining ideal has no linear forms).
    The ideal I + (li) of the polynomial ring is generated in degrees <= D,
    the top degree of the ring's Groebner basis (at least 1). At the first
    e >= D with h(e+1) = h(e)^<e>, Gotzmann's persistence theorem (Math. Z.
    158 (1978); Bruns-Herzog Thm 4.3.3) gives h(d+1) = h(d)^<d> for every
    d >= e; once h(e) = 0 every later value is 0 too. From degree e on, h
    is the Hilbert function of the lex ideal generated in degree e, whose
    resolution is linear, so the numerator has degree < e + n and the values
    h(0..e+n-1) settle it.
    """
    got = ring.linear_numerators.get(li.rows)
    if got is not None:
        return got
    n = ring.nvars
    top = max((g.degree() for g in ring.gb.generators), default=1)
    h = [1, n - li.dim]
    e = 1
    while h[e]:
        h.append(ring.dim_piece(e + 1) - _span_rank(ring, li.rows, e))
        if e >= top and h[e + 1] == _macaulay_bound(h[e], e):
            break
        e += 1
    while len(h) < e + n:
        h.append(_macaulay_bound(h[-1], len(h) - 1))
    num = [
        sum((-1) ** i * comb(n, i) * h[k - i] for i in range(min(n, k) + 1))
        for k in range(e + n)
    ]
    got = ring.linear_numerators[li.rows] = tuple(_trim(num))
    return got


def _linear_colon(
    ring: QuotientRing, j: LinearIdeal, g, jg: LinearIdeal
) -> tuple[bool, LinearIdeal]:
    """(linear_ok, W) for the colon J : g of a linear ideal J (RREF rows) by
    the linear form with coefficients g, given jg = J + (g) in RREF, which
    every caller has already formed.

    W = (J:g)_1 is the kernel of a -> sum_v a_v x_v g from F_p^n to
    R_2 / (J R_1); R_1 coordinates are the variables' coefficients, as the
    defining ideal has no linear forms. Since (W) ⊆ J:g and
    0 -> R/(J:g)(-1) -> R/J -> R/(J+g) -> 0 is exact, J:g = (W), that is,
    J:g is generated by linear forms, exactly when t*N_W = N_J - N_{J+g} for
    the Hilbert numerators N over (1-t)^n.
    """
    p, n = ring.p, ring.nvars
    dim2 = ring.dim_piece(2)
    if dim2 == 0:
        w = LinearIdeal.full(n)
    else:
        # columns x_v * g, then x_v * h for the rows h of J, in R_2 coordinates
        prods = _form_products(ring, [tuple(g)] + list(j.rows), 1)
        g_cols = prods[0].T
        j_cols = prods[1:].reshape(-1, dim2).T
        kernel = nullspace(np.concatenate([g_cols, j_cols], axis=1), p)
        w = LinearIdeal.from_vectors(kernel[:, :n], n, p)
    n_w = _linear_numerator(ring, w)
    n_jg = _linear_numerator(ring, jg)
    linear_ok = _trim(_poly_add([0, *n_w], list(n_jg))) == list(_linear_numerator(ring, j))
    return linear_ok, w


# ------------------------------------------------------------ enumeration


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = prod(p**n - p**i for i in range(k))
    den = prod(p**k - p**i for i in range(k))
    return num // den


def count_subspaces(n: int, p: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def enumerate_subspaces(n: int, p: int, *, cap: int | None = None) -> list[LinearIdeal]:
    """All subspaces of F_p^n as RREF matrices, sorted by (dim, rows)."""
    total = count_subspaces(n, p)
    if cap is not None and total > cap:
        raise BudgetExceededError(
            f"{total} subspaces of F_{p}^{n} exceed the budget of {cap}"
        )
    out = [LinearIdeal(())]
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            free_cells = [
                (r, c)
                for r in range(k)
                for c in range(n)
                if c > pivots[r] and c not in pivots
            ]
            for values in product(range(p), repeat=len(free_cells)):
                mat = [[0] * n for _ in range(k)]
                for r in range(k):
                    mat[r][pivots[r]] = 1
                for (r, c), v in zip(free_cells, values):
                    mat[r][c] = v
                out.append(LinearIdeal(tuple(tuple(row) for row in mat)))
    out.sort(key=lambda li: (li.dim, li.rows))
    assert len(out) == total
    return out


def projective_representatives(n: int, p: int) -> list[tuple[int, ...]]:
    """One representative per line of F_p^n: first nonzero coordinate is 1."""
    seen = []
    for vec in product(range(p), repeat=n):
        if not any(vec):
            continue
        lead = next(c for c in vec if c)
        if lead == 1:
            seen.append(vec)
    return seen


# ------------------------------------------------------------ certificates


@dataclass(frozen=True)
class FiltrationWitness:
    member: int          # index of I
    sub: int             # index of J with J ⊆ I, I = J + (g)
    g: tuple[int, ...]   # the added linear form
    colon: int           # asserted index of J : I

    def to_json(self) -> dict:
        return {"member": self.member, "sub": self.sub, "g": list(self.g), "colon": self.colon}


@dataclass(frozen=True)
class FiltrationCertificate:
    """Checkable Koszul filtration: members plus colon witnesses."""

    members: tuple[LinearIdeal, ...]
    witnesses: tuple[FiltrationWitness, ...]

    def to_json(self) -> dict:
        return {
            "kind": "filtration",
            "members": [m.to_json() for m in self.members],
            "witnesses": [w.to_json() for w in self.witnesses],
        }

    @staticmethod
    def from_json(doc: dict) -> "FiltrationCertificate":
        members = tuple(
            LinearIdeal(tuple(tuple(int(c) for c in row) for row in m))
            for m in doc["members"]
        )
        witnesses = tuple(
            FiltrationWitness(
                int(w["member"]), int(w["sub"]), tuple(int(c) for c in w["g"]), int(w["colon"])
            )
            for w in doc["witnesses"]
        )
        return FiltrationCertificate(members, witnesses)


@dataclass(frozen=True)
class FlagCertificate:
    """Complete flag of R_1 with asserted prefix colon indices (0 allowed)."""

    forms: tuple[tuple[int, ...], ...]
    colon_indices: tuple[int, ...]

    def prefix(self, i: int, n: int, p: int) -> LinearIdeal:
        return LinearIdeal.from_vectors(list(self.forms[:i]), n, p)

    def to_json(self) -> dict:
        return {
            "kind": "flag",
            "forms": [list(f) for f in self.forms],
            "colon_indices": list(self.colon_indices),
        }

    @staticmethod
    def from_json(doc: dict) -> "FlagCertificate":
        return FlagCertificate(
            tuple(tuple(int(c) for c in f) for f in doc["forms"]),
            tuple(int(j) for j in doc["colon_indices"]),
        )

    def as_filtration(self, n: int, p: int) -> FiltrationCertificate:
        """View the flag's prefixes as a Koszul filtration certificate."""
        members = [self.prefix(i, n, p) for i in range(n + 1)]
        witnesses = []
        for i in range(1, n + 1):
            witnesses.append(
                FiltrationWitness(i, i - 1, self.forms[i - 1], self.colon_indices[i - 1])
            )
        return FiltrationCertificate(tuple(members), tuple(witnesses))


@dataclass(frozen=True)
class VerificationResult:
    valid: bool
    failing_index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


# ------------------------------------------------------------- verifiers


def verify_koszul_filtration(
    ring: QuotientRing, cert: FiltrationCertificate
) -> VerificationResult:
    """Check membership of (0) and m, and every colon witness, by `_linear_colon`.

    Members read from JSON need not be in RREF, so every check compares the
    members put in RREF.
    """
    p, n = ring.p, ring.nvars
    canonical = [LinearIdeal.from_vectors(m.rows, n, p) for m in cert.members]
    rows_set = {m.rows for m in canonical}
    if LinearIdeal.zero().rows not in rows_set:
        return VerificationResult(False, None, "the zero ideal is not a member")
    if LinearIdeal.full(n).rows not in rows_set:
        return VerificationResult(False, None, "the maximal ideal is not a member")
    witnessed = {w.member for w in cert.witnesses}
    for idx, member in enumerate(canonical):
        if member.dim == 0:
            continue
        if idx not in witnessed:
            return VerificationResult(False, idx, "nonzero member without a witness")
    for w in cert.witnesses:
        if not (0 <= w.member < len(cert.members)):
            return VerificationResult(False, w.member, "witness references a missing member")
        if not (0 <= w.sub < len(cert.members) and 0 <= w.colon < len(cert.members)):
            return VerificationResult(False, w.member, "witness indices out of range")
        big = canonical[w.member]
        small = canonical[w.sub]
        if not big.contains(small, p):
            return VerificationResult(False, w.member, "J is not contained in I")
        if big.dim != small.dim + 1:
            return VerificationResult(False, w.member, "I/J is not cyclic")
        if small.plus_vector(w.g, p).rows != big.rows:
            return VerificationResult(False, w.member, "I != J + (g)")
        linear_ok, colon = _linear_colon(ring, small, w.g, big)
        if not linear_ok or colon.rows != canonical[w.colon].rows:
            return VerificationResult(
                False, w.member, f"colon J:I differs from asserted member {w.colon}"
            )
    return VerificationResult(True)


def verify_groebner_flag(ring: QuotientRing, flag: FlagCertificate) -> VerificationResult:
    """Check prefix colon conditions (l_1..l_{i-1}) : l_i = (l_1..l_{j_i})."""
    p, n = ring.p, ring.nvars
    if len(flag.forms) != n or len(flag.colon_indices) != n:
        return VerificationResult(False, None, "flag must order a full basis of R_1")
    full = LinearIdeal.from_vectors(list(flag.forms), n, p)
    if full.dim != n:
        return VerificationResult(False, None, "flag forms are linearly dependent")
    prefixes = [flag.prefix(i, n, p) for i in range(n + 1)]
    for i in range(1, n + 1):
        j = flag.colon_indices[i - 1]
        if not (0 <= j <= n):
            return VerificationResult(False, i, f"colon index {j} out of range")
        linear_ok, colon = _linear_colon(ring, prefixes[i - 1], flag.forms[i - 1], prefixes[i])
        if not linear_ok or colon.rows != prefixes[j].rows:
            return VerificationResult(
                False, i, f"colon at step {i} is not the asserted prefix {j}"
            )
    return VerificationResult(True)


def verify_flag_chain(
    ring: QuotientRing, cert: FiltrationCertificate, chain: tuple[int, ...]
) -> VerificationResult:
    """A chain of members ending at m with cyclic quotients and colons in the family."""
    p, n = ring.p, ring.nvars
    if not chain:
        return VerificationResult(False, None, "empty chain")
    # members read from JSON need not be in RREF: compare them in RREF
    canonical = [LinearIdeal.from_vectors(m.rows, n, p) for m in cert.members]
    if canonical[chain[-1]].rows != LinearIdeal.full(n).rows:
        return VerificationResult(False, chain[-1], "chain does not end at the maximal ideal")
    family = {m.rows for m in canonical}
    for step in range(1, len(chain)):
        small = canonical[chain[step - 1]]
        big = canonical[chain[step]]
        if not big.contains(small, p) or big.dim != small.dim + 1:
            return VerificationResult(False, chain[step], "chain step is not cyclic")
        new_vec = next(r for r in big.rows if not small.contains_vector(r, p))
        linear_ok, colon = _linear_colon(ring, small, new_vec, big)
        if not linear_ok or colon.rows not in family:
            return VerificationResult(False, chain[step], "chain colon leaves the family")
    return VerificationResult(True)


# ------------------------------------------------------------ flag search


@dataclass
class FlagSearchResult:
    certificate: FlagCertificate | None
    candidates_tested: int
    flags_completed: int
    exhausted: bool

    def to_json(self) -> dict:
        return {
            "found": self.certificate is not None,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "candidates_tested": self.candidates_tested,
            "flags_completed": self.flags_completed,
            "exhausted": self.exhausted,
        }


def search_groebner_flag(
    ring: QuotientRing, budget: int = 1000, *, initial_forms: list | None = None
) -> FlagSearchResult:
    """Backtracking over complete flags of R_1 (canonical representatives).

    Each candidate extension counts once against the budget; its colon is
    settled by `_linear_colon` (a kernel over F_p and Hilbert numerators).
    Returns the first valid certificate, or the exhaustion outcome with
    search statistics. Intended for small fields (the candidate count grows
    like p^n).
    """
    p, n = ring.p, ring.nvars
    if n > 4 or p > 5:
        raise BudgetExceededError(
            f"flag search over F_{p}^{n} exceeds the supported enumeration range "
            "(n <= 4, p <= 5)"
        )
    reps = projective_representatives(n, p)
    stats = {"tested": 0, "completed": 0}

    def dfs(forms: list, prefixes: list[LinearIdeal], js: list[int],
            constraints: dict[int, LinearIdeal]):
        depth = len(forms)
        if depth == n:
            stats["completed"] += 1
            return FlagCertificate(tuple(forms), tuple(js))
        want = constraints.get(depth + 1)
        for l in reps:
            if prefixes[-1].contains_vector(l, p):
                continue
            if want is not None and not want.contains_vector(l, p):
                continue
            ok = True
            for dim_c, c in constraints.items():
                if dim_c > depth and not c.contains_vector(l, p):
                    ok = False
                    break
            if not ok:
                continue
            nxt = prefixes[-1].plus_vector(l, p)
            if any(nxt.rows == q.rows for q in prefixes):
                continue
            stats["tested"] += 1
            if stats["tested"] > budget:
                raise BudgetExceededError(
                    f"flag search exceeded the budget of {budget} candidates"
                )
            linear_ok, w1 = _linear_colon(ring, prefixes[-1], l, nxt)
            if not linear_ok:
                continue
            j = w1.dim
            if j <= depth + 1:
                prefix_j = nxt if j == depth + 1 else prefixes[j]
                if w1.rows != prefix_j.rows:
                    continue
                found = dfs(forms + [l], prefixes + [nxt], js + [j], constraints)
                if found:
                    return found
            else:
                if j in constraints and constraints[j].rows != w1.rows:
                    continue
                if not w1.contains(nxt, p):
                    continue
                nested_ok = True
                for dim_c, c in constraints.items():
                    if dim_c < j and not w1.contains(c, p) and c.dim < w1.dim:
                        nested_ok = False
                        break
                    if dim_c > j and not c.contains(w1, p):
                        nested_ok = False
                        break
                if not nested_ok:
                    continue
                new_constraints = dict(constraints)
                new_constraints[j] = w1
                found = dfs(forms + [l], prefixes + [nxt], js + [j], new_constraints)
                if found:
                    return found
        return None

    start_forms: list = []
    start_prefixes = [LinearIdeal.zero()]
    start_js: list[int] = []
    constraints: dict[int, LinearIdeal] = {}
    if initial_forms:
        for l in initial_forms:
            l = tuple(int(c) % p for c in l)
            nxt = start_prefixes[-1].plus_vector(l, p)
            if nxt.dim != start_prefixes[-1].dim + 1:
                raise ValueError("initial forms are dependent")
            linear_ok, w1 = _linear_colon(ring, start_prefixes[-1], l, nxt)
            if not linear_ok:
                return FlagSearchResult(None, 1, 0, True)
            j = w1.dim
            depth = len(start_forms)
            if j <= depth + 1:
                prefix_j = nxt if j == depth + 1 else (
                    start_prefixes[j]
                )
                if w1.rows != prefix_j.rows:
                    return FlagSearchResult(None, 1, 0, True)
            else:
                if not w1.contains(nxt, p):
                    return FlagSearchResult(None, 1, 0, True)
                constraints[j] = w1
            start_forms.append(l)
            start_prefixes.append(nxt)
            start_js.append(j)

    cert = dfs(start_forms, start_prefixes, start_js, constraints)
    if cert is not None:
        check = verify_groebner_flag(ring, cert)
        if not check:
            raise AssertionError(f"search produced an invalid flag: {check.reason}")
    return FlagSearchResult(
        cert, stats["tested"], stats["completed"], cert is None
    )


# --------------------------------------------------------- Conca generators


@dataclass(frozen=True)
class ConcaCheck:
    is_conca: bool
    failed_clause: str | None
    cube_is_zero: bool | None = None

    def __bool__(self) -> bool:
        return self.is_conca


def check_conca_generator(ring: QuotientRing, form) -> ConcaCheck:
    """x != 0, x^2 = 0 and x*R_1 = R_2; on success the derived facts
    dim R_3 = 0 and x not in m^2 (automatic for a nonzero linear form) hold."""
    x = _form_coeffs(ring, form)
    if not any(x):
        return ConcaCheck(False, "x = 0 in R_1")
    times_x = _form_products(ring, [x], 1)[0]  # row v: x * x_v in R_2
    if matmul_mod(as_matrix([x], ring.nvars, ring.p), times_x, ring.p).any():
        return ConcaCheck(False, "x^2 != 0")
    if rank(times_x, ring.p) != ring.dim_piece(2):
        return ConcaCheck(False, "x*R_1 != R_2")
    cube_zero = ring.dim_piece(3) == 0
    if not cube_zero:
        # x*m = m^2 and x^2 = 0 force m^3 = x*m*m = 0; failure would be a defect
        return ConcaCheck(False, "derived fact m^3 = 0 fails")
    return ConcaCheck(True, None, cube_is_zero=cube_zero)


def _form_coeffs(ring: QuotientRing, form) -> tuple[int, ...]:
    if isinstance(form, Polynomial):
        row = [0] * ring.nvars
        for m, c in form.terms:
            if sum(m) != 1:
                raise ValueError("not a linear form")
            row[m.index(1)] = c
        return tuple(row)
    return tuple(int(c) % ring.p for c in form)


def conca_flag(ring: QuotientRing, form, budget: int = 1000) -> FlagCertificate:
    """Groebner flag starting with a Conca generator, verified before return.

    Basis completions are tried in canonical order (standard vectors first,
    then the full search) within the budget.
    """
    check = check_conca_generator(ring, form)
    if not check:
        raise ValueError(f"not a Conca generator: {check.failed_clause}")
    x = _form_coeffs(ring, form)
    p, n = ring.p, ring.nvars
    result = search_groebner_flag(ring, budget, initial_forms=[x])
    if result.certificate is None:
        raise ValueError(
            f"no valid flag extends the Conca generator within {result.candidates_tested} "
            "candidates"
        )
    return result.certificate


# ------------------------------------------------------------- Fitzgerald


@dataclass(frozen=True)
class FitzgeraldCheck:
    holds: bool
    witness: tuple[int, ...] | None
    failed_clause: str | None
    forms_checked: int

    def __bool__(self) -> bool:
        return self.holds


def check_fitzgerald(ring: QuotientRing, max_forms: int = 5000) -> FitzgeraldCheck:
    """For every nonzero linear form l (up to scalar): R_2 kills l, ann(l) is
    generated by linear forms, and ann(l)_1 * R_1 = R_2."""
    p, n = ring.p, ring.nvars
    count = (p**n - 1) // (p - 1)
    if count > max_forms:
        raise BudgetExceededError(
            f"{count} projective forms exceed the budget of {max_forms}"
        )
    reps = projective_representatives(n, p)
    dim2 = ring.dim_piece(2)
    for vec in reps:
        if _form_products(ring, [vec], 2).any():
            return FitzgeraldCheck(False, vec, "R_2 not contained in ann(l)", len(reps))
        linear_ok, ann1 = _linear_colon(
            ring, LinearIdeal.zero(), vec, LinearIdeal.from_vectors([vec], n, p)
        )
        if not linear_ok:
            return FitzgeraldCheck(False, vec, "ann(l) not generated by linear forms", len(reps))
        if _span_rank(ring, ann1.rows, 1) != dim2:
            return FitzgeraldCheck(False, vec, "ann(l)_1 * R_1 != R_2", len(reps))
    return FitzgeraldCheck(True, None, None, len(reps))


def all_linear_ideals_filtration(
    ring: QuotientRing, max_subspaces: int = 5000
) -> FiltrationCertificate:
    """The family of all linear-form ideals, with computed colon witnesses.

    Requires the Fitzgerald condition; a colon that fails to be generated by
    linear forms would contradict it and raises with a finding message.
    """
    fitz = check_fitzgerald(ring)
    if not fitz:
        raise ValueError(
            f"ring fails the annihilator condition (witness {fitz.witness}, "
            f"{fitz.failed_clause}); the all-linear family is not applicable"
        )
    members = enumerate_subspaces(ring.nvars, ring.p, cap=max_subspaces)
    index = {m.rows: i for i, m in enumerate(members)}
    witnesses = []
    for idx, member in enumerate(members):
        if member.dim == 0:
            continue
        j_ideal = LinearIdeal(member.rows[:-1])
        g = member.rows[-1]
        linear_ok, w1 = _linear_colon(ring, j_ideal, g, member)
        if not linear_ok:
            raise AssertionError(
                "theorem-violation finding: colon of a linear ideal is not "
                f"generated by linear forms (member {idx})"
            )
        witnesses.append(FiltrationWitness(idx, index[j_ideal.rows], g, index[w1.rows]))
    cert = FiltrationCertificate(tuple(members), tuple(witnesses))
    check = verify_koszul_filtration(ring, cert)
    if not check:
        raise AssertionError(f"constructed certificate failed verification: {check.reason}")
    return cert


def subsets_filtration(ring: QuotientRing) -> FiltrationCertificate:
    """The family generated by subsets of the variables, for quadratic
    monomial rings, with computed colon witnesses."""
    for g in ring.gb.generators:
        if len(g.terms) != 1 or g.degree() != 2:
            raise ValueError(
                "the subsets family applies to rings defined by quadratic monomials"
            )
    n, p = ring.nvars, ring.p
    members = []
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            rows = tuple(
                tuple(1 if j == i else 0 for j in range(n)) for i in subset
            )
            members.append(LinearIdeal(rows))
    members.sort(key=lambda li: (li.dim, li.rows))
    index = {m.rows: i for i, m in enumerate(members)}
    witnesses = []
    for idx, member in enumerate(members):
        if member.dim == 0:
            continue
        j_ideal = LinearIdeal(member.rows[:-1])
        g = member.rows[-1]
        linear_ok, w1 = _linear_colon(ring, j_ideal, g, member)
        if not linear_ok or w1.rows not in index:
            raise AssertionError(
                f"colon of subset member {idx} is not a subset ideal"
            )
        witnesses.append(FiltrationWitness(idx, index[j_ideal.rows], g, index[w1.rows]))
    cert = FiltrationCertificate(tuple(members), tuple(witnesses))
    check = verify_koszul_filtration(ring, cert)
    if not check:
        raise AssertionError(f"constructed certificate failed verification: {check.reason}")
    return cert


# ------------------------------------------------- minimal multiplicity


@dataclass(frozen=True)
class ReductionCheck:
    reduction_ok: bool
    failing_degree: int | None
    regular_sequence_ok: bool
    is_minimal_multiplicity: bool
    multiplicity: int
    codim: int

    @property
    def holds(self) -> bool:
        return self.reduction_ok and self.regular_sequence_ok

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {
            "reduction_ok": self.reduction_ok,
            "failing_degree": self.failing_degree,
            "regular_sequence_ok": self.regular_sequence_ok,
            "minimal_multiplicity": self.is_minimal_multiplicity,
            "multiplicity": self.multiplicity,
            "codim": self.codim,
        }


def check_reduction(ring: QuotientRing, j_ideal, d_stab: int) -> ReductionCheck:
    """J*R_d = R_{d+1} for 1 <= d <= d_stab, plus the Hilbert-series regular
    sequence test and the multiplicity bound e = h + 1 report.

    Only J*R_1 is ranked against R_2: the ring is generated in degree 1, so
    J*R_1 = R_2 gives J*R_d = R_1^{d-1}*J*R_1 = R_{d+1} for every d >= 1.
    The failing degree is therefore 1 or None.
    """
    li = _as_linear_ideal(ring, j_ideal)
    failing = None
    if d_stab >= 1 and _span_rank(ring, li.rows, 1) != ring.dim_piece(2):
        failing = 1
    elim = quotient_by_linear_forms(ring, li.rows)
    h_ring = ring.hilbert_series(max(4, d_stab))
    h_quot = elim.target.hilbert_series(max(4, d_stab))
    regular = list(h_ring.numerator) == list(h_quot.numerator)
    min_mult = h_ring.multiplicity == h_ring.codim + 1
    return ReductionCheck(
        failing is None, failing, regular, min_mult,
        h_ring.multiplicity, h_ring.codim,
    )


def _as_linear_ideal(ring: QuotientRing, j) -> LinearIdeal:
    if isinstance(j, LinearIdeal):
        return j
    rows = [_form_coeffs(ring, f) for f in j]
    return LinearIdeal.from_vectors(rows, ring.nvars, ring.p)


def minimal_multiplicity_flag(
    ring: QuotientRing, j_ideal, d_stab: int = 4
) -> FlagCertificate:
    """Flag with the reduction's basis first: colon indices (0, 1, .., d-1)
    on the regular part, then n on the completion; verified before return."""
    li = _as_linear_ideal(ring, j_ideal)
    check = check_reduction(ring, li, d_stab)
    if not check:
        raise ValueError(
            "reduction checks failed "
            f"(reduction_ok={check.reduction_ok}, regular={check.regular_sequence_ok})"
        )
    p, n = ring.p, ring.nvars
    forms = [tuple(r) for r in li.rows]
    span = LinearIdeal(li.rows)
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        if not span.contains_vector(e, p):
            forms.append(e)
            span = span.plus_vector(e, p)
    d = li.dim
    expected = tuple(i - 1 for i in range(1, d + 1)) + tuple(n for _ in range(d + 1, n + 1))
    cert = FlagCertificate(tuple(forms), expected)
    result = verify_groebner_flag(ring, cert)
    if not result:
        computed = []
        for i in range(1, n + 1):
            colon = colon_ideal(
                cert.prefix(i - 1, n, p).forms(ring), [ring.linear_form(forms[i - 1])], ring
            )
            computed.append([str(g) for g in colon.generators])
        raise ValueError(
            f"flag verification failed at step {result.failing_index}: "
            f"{result.reason}; computed colons: {computed}"
        )
    return cert
