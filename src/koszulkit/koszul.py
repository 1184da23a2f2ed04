"""Koszulness verdicts, the Poincare-Hilbert series identity, the flag
factorization of bigraded Poincare series, and verdict transfer between a
ring and its quotient by a flag member.

Every "iff" statement is downgraded to a bounded consistency check and all
reports carry their (i_max, d_max) bounds explicitly: acyclicity of the
linear part is not decidable by truncation alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .filtration import (
    FiltrationCertificate,
    LinearIdeal,
    verify_flag_chain,
    verify_koszul_filtration,
)
from .quotient import (
    GradedModule,
    _series_divide,
    cyclic_module,
    quotient_by_linear_forms,
    restrict_module_to_quotient,
)
from .resolution import BettiTable, betti_table, linear_part_homology, resolve


@dataclass(frozen=True)
class KoszulVerdict:
    """Bounded Koszulness verdict; a 'no' always carries a concrete witness."""

    verdict: str          # yes-up-to-bounds | no | inconclusive
    method: str           # betti-diagonal | linear-part-acyclic
    i_max: int
    d_max: int
    witness: tuple[int, int] | None = None

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes-up-to-bounds"

    @property
    def is_no(self) -> bool:
        return self.verdict == "no"

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "method": self.method,
            "bounds": {"imax": self.i_max, "dmax": self.d_max},
        }
        if self.witness is not None:
            out["witness"] = {"i": self.witness[0], "j": self.witness[1]}
        return out


def _generation_degree(module: GradedModule) -> int:
    degs = module.generation_degrees()
    if len(degs) > 1:
        raise ValueError(
            f"module generated in several degrees {degs}; Koszul verdicts "
            "require a single generation degree"
        )
    return degs[0] if degs else 0


def koszul_verdict(
    module: GradedModule,
    i_max: int,
    d_max: int,
    method: str = "betti-diagonal",
) -> KoszulVerdict:
    """Judge the module against the g-shifted diagonal (g = generation degree),
    by the Betti table or by acyclicity of the linear part of its resolution."""
    if method not in ("betti-diagonal", "linear-part-acyclic"):
        raise ValueError(f"unknown method {method!r}")
    g = _generation_degree(module)
    if module.is_zero():
        return KoszulVerdict("yes-up-to-bounds", method, i_max, d_max)
    if i_max < 1 or d_max < g + 1:
        return KoszulVerdict("inconclusive", method, i_max, d_max)

    res = resolve(module, i_max, d_max)
    if method == "betti-diagonal":
        table = betti_table(res)
        off = sorted((i, j) for (i, j) in table.entries if j != i + g)
        if off:
            return KoszulVerdict("no", method, i_max, d_max, witness=off[0])
        return KoszulVerdict("yes-up-to-bounds", method, i_max, d_max)

    if i_max < 2:
        return KoszulVerdict("inconclusive", method, i_max, d_max)
    first = next(linear_part_homology(res), None)
    if first is not None:
        return KoszulVerdict("no", method, i_max, d_max, witness=first[0])
    return KoszulVerdict("yes-up-to-bounds", method, i_max, d_max)


# ------------------------------------------------------ Poincare-Hilbert


@dataclass(frozen=True)
class PoincareHilbertResult:
    """Comparison of total Betti numbers against H_M(-t)/H_R(-t)."""

    holds: bool
    checked_to: int
    fail_degree: int | None
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "checked_to": self.checked_to,
            "fail_degree": self.fail_degree,
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
        }


def _signed_series(coeffs: tuple[int, ...]) -> list[int]:
    return [c if d % 2 == 0 else -c for d, c in enumerate(coeffs)]


def poincare_hilbert_check(
    module: GradedModule, expand_to: int, d_max: int
) -> PoincareHilbertResult:
    """Compare sum beta_i t^i with the expansion of H_M(-t)/H_R(-t) in the
    degrees e <= min(expand_to, d_max - g), g the generation degree.

    The linear strand beta_{e,e+g} lies inside the internal-degree window
    d_max only for those e, so no later degree is compared. Equality to all
    orders characterizes Koszulness; the op is a bounded numerical semi-test.
    """
    g = _generation_degree(module)
    d = min(expand_to, d_max - g)
    if d < 0:
        raise ValueError(
            f"no degree to compare: expand_to {expand_to}, d_max {d_max}, "
            f"generation degree {g}"
        )
    ring = module.ring
    res = resolve(module, max(d, 1), d_max)
    table = betti_table(res)
    lhs = [table.total(i) for i in range(d + 1)]

    # H_M(t) = N_M(t) t^g / (1-t)^n and H_R(t) = N_R(t) / (1-t)^n, so at
    # generation degree 0 the (1+t)^n of H_M(-t)/H_R(-t) cancel
    n_m = module.hilbert_series(0).numerator
    n_r = ring.hilbert_series(0).numerator
    rhs = _series_divide(_signed_series(n_m), _signed_series(n_r), d)
    fail = None
    for e in range(d + 1):
        if lhs[e] != rhs[e]:
            fail = e
            break
    return PoincareHilbertResult(
        fail is None, d, fail, tuple(lhs), tuple(rhs)
    )


# ------------------------------------------------------- flag factorization


@dataclass(frozen=True)
class FlagData:
    """A verified-on-use chain through a Koszul filtration certificate."""

    certificate: FiltrationCertificate
    chain: tuple[int, ...]   # member indices, increasing dims, ending at m
    r: int                   # position in the chain whose member kills M

    def member(self) -> LinearIdeal:
        return self.certificate.members[self.chain[self.r]]


def _check_flag_data(module: GradedModule, flag_data: FlagData) -> LinearIdeal:
    ring = module.ring
    ok = verify_koszul_filtration(ring, flag_data.certificate)
    if not ok:
        raise ValueError(f"filtration certificate is invalid: {ok.reason}")
    ok = verify_flag_chain(ring, flag_data.certificate, flag_data.chain)
    if not ok:
        raise ValueError(f"flag chain is invalid: {ok.reason}")
    if not (0 <= flag_data.r < len(flag_data.chain)):
        raise ValueError("chain index r out of range")
    ideal = flag_data.member()
    for row in ideal.rows:
        if not module.annihilated_by(ring.linear_form(row)):
            raise ValueError(
                f"module is not annihilated by the flag member (form {row})"
            )
    return ideal


@dataclass(frozen=True)
class FactorizationResult:
    holds: bool
    witness: tuple[int, int] | None
    lhs: BettiTable
    factor_over_quotient: BettiTable
    factor_of_quotient: BettiTable

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        out = {
            "holds": self.holds,
            "tables": {
                "module_over_ring": self.lhs.to_json(),
                "module_over_quotient": self.factor_over_quotient.to_json(),
                "quotient_over_ring": self.factor_of_quotient.to_json(),
            },
        }
        if self.witness is not None:
            out["witness"] = {"i": self.witness[0], "j": self.witness[1]}
        return out


def check_factorization(
    module: GradedModule, flag_data: FlagData, i_max: int, d_max: int
) -> FactorizationResult:
    """Coefficient-wise check of the bigraded identity
    P(M over R) = P(M over R/I_r) * P(R/I_r over R), multiplying the factor
    tables entry by entry. A coefficient (i, j) takes entries j1 <= j of the
    first factor and j2 <= j - g of the second, g the lowest generator degree
    of M, so it is compared only for j <= d_max + min(g, 0), where all of them
    lie in their windows. The witness is the least failing (i, j)."""
    ring = module.ring
    ideal = _check_flag_data(module, flag_data)
    t_module = betti_table(resolve(module, i_max, d_max))
    elim = quotient_by_linear_forms(ring, ideal.rows)
    restricted = restrict_module_to_quotient(module, elim)
    t_over_quot = betti_table(resolve(restricted, i_max, d_max))
    quot_module = cyclic_module(ring, ideal.forms(ring))
    t_quot = betti_table(resolve(quot_module, i_max, d_max))

    product: Counter[tuple[int, int]] = Counter()
    for (i1, j1), a in t_over_quot.entries.items():
        for (i2, j2), b in t_quot.entries.items():
            product[i1 + i2, j1 + j2] += a * b
    top = d_max + min(min(module.shifts, default=0), 0)
    failing = [(i, j) for (i, j) in product.keys() | t_module.entries.keys()
               if i <= i_max and j <= top and product[i, j] != t_module.beta(i, j)]
    witness = min(failing, default=None)
    return FactorizationResult(witness is None, witness, t_module, t_over_quot, t_quot)


@dataclass(frozen=True)
class TransferResult:
    consistent: bool
    verdict_over_ring: KoszulVerdict
    verdict_over_quotient: KoszulVerdict

    def __bool__(self) -> bool:
        return self.consistent

    def to_json(self) -> dict:
        return {
            "consistent": self.consistent,
            "over_ring": self.verdict_over_ring.to_json(),
            "over_quotient": self.verdict_over_quotient.to_json(),
        }


def verdict_transfer_check(
    module: GradedModule,
    flag_data: FlagData,
    i_max: int,
    d_max: int,
    method: str = "betti-diagonal",
) -> TransferResult:
    """Koszul verdicts of M over R and over R/I_r must agree (both bounded)."""
    ring = module.ring
    ideal = _check_flag_data(module, flag_data)
    over_ring = koszul_verdict(module, i_max, d_max, method)
    elim = quotient_by_linear_forms(ring, ideal.rows)
    restricted = restrict_module_to_quotient(module, elim)
    over_quot = koszul_verdict(restricted, i_max, d_max, method)
    consistent = over_ring.verdict == over_quot.verdict
    return TransferResult(consistent, over_ring, over_quot)

