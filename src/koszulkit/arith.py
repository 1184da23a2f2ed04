"""Exact arithmetic substrate: prime fields, monomials, orders, graded polynomials.

Everything here is immutable after construction and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable

DEFAULT_PRIME = 32003

Monomial = tuple[int, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p with canonical representatives in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if not (2 <= self.p < 2**31):
            raise ValueError(f"modulus {self.p} out of range [2, 2^31)")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def normalize(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("no inverse of 0 in a prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))


# ---------------------------------------------------------------- monomials

def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_quotient(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on n variables.

    degrevlex: higher total degree wins; on ties the monomial with the smaller
    exponent in the rightmost position where they differ is the greater one.
    lex: plain left-to-right exponent comparison.
    Both are total, multiplicative orders; degrevlex is degree-compatible.
    """

    kind: str
    nvars: int

    def __post_init__(self) -> None:
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if self.nvars < 0:
            raise ValueError("variable count must be nonnegative")

    def key(self, m: Monomial):
        """Sort key: key(a) > key(b) iff a > b in this order."""
        if self.kind == "degrevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        return m

    def compare(self, a: Monomial, b: Monomial) -> int:
        """-1, 0 or 1 as a <, =, > b under this order."""
        if len(a) != len(b) or len(a) != self.nvars:
            raise ValueError("monomial length mismatch")
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0


# ------------------------------------------------------------- polynomials

class PolynomialRing:
    """F_p[x_1..x_n] with a fixed monomial order.

    Construct via `polynomial_ring(p, names)`, which also hands back the
    generators, e.g. ``S, (x, y) = polynomial_ring(5, ("x", "y"))``.
    """

    def __init__(self, p: int, names: Iterable[str], order: str = "degrevlex"):
        self.field = PrimeField(p)
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.order = MonomialOrder(order, len(self.names))

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"F_{self.p}[{', '.join(self.names)}] ({self.order.kind})"

    def compatible_with(self, other: "PolynomialRing") -> bool:
        return (
            self.p == other.p
            and self.names == other.names
            and self.order == other.order
        )

    def check_compatible(self, other: "PolynomialRing") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        if len(self.names) != len(other.names):
            raise ValueError(
                f"variable-count mismatch: {len(self.names)} vs {len(other.names)}"
            )
        if self.names != other.names or self.order != other.order:
            raise ValueError("ambient ring mismatch")

    # -- constructors

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c = self.field.normalize(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, (((0,) * self.nvars, c),))

    def gen(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), 1),))

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, m: Monomial, c: int = 1) -> "Polynomial":
        return self.from_dict({tuple(m): c})

    def from_dict(self, d: dict[Monomial, int]) -> "Polynomial":
        terms = []
        for m, c in d.items():
            if len(m) != self.nvars:
                raise ValueError("monomial length mismatch")
            c = self.field.normalize(c)
            if c:
                terms.append((m, c))
        terms.sort(key=lambda t: self.order.key(t[0]), reverse=True)
        return Polynomial(self, tuple(terms))

    def linear_form(self, coeffs: Iterable[int]) -> "Polynomial":
        coeffs = list(coeffs)
        if len(coeffs) != self.nvars:
            raise ValueError("coefficient vector length mismatch")
        d: dict[Monomial, int] = {}
        for i, c in enumerate(coeffs):
            if c % self.p:
                e = [0] * self.nvars
                e[i] = 1
                d[tuple(e)] = c
        return self.from_dict(d)

    def monomials_of_degree(self, d: int) -> tuple[Monomial, ...]:
        return _monomials_of_degree(self.nvars, d)


@lru_cache(maxsize=None)
def _monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d exponent vectors, descending under degrevlex."""
    if d < 0:
        return ()
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    order = MonomialOrder("degrevlex", nvars)
    out.sort(key=order.key, reverse=True)
    return tuple(out)


class Polynomial:
    """Immutable F_p polynomial; terms sorted descending under the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: tuple[tuple[Monomial, int], ...]):
        self.ring = ring
        self.terms = terms

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = mono_degree(self.terms[0][0])
        return all(mono_degree(m) == d for m, _ in self.terms)

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        """Split into degree -> homogeneous part; empty map for 0."""
        buckets: dict[int, dict[Monomial, int]] = {}
        for m, c in self.terms:
            buckets.setdefault(mono_degree(m), {})[m] = c
        return {d: self.ring.from_dict(t) for d, t in sorted(buckets.items())}

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def leading_term(self) -> tuple[Monomial, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def constant_coefficient(self) -> int:
        for m, c in self.terms:
            if mono_degree(m) == 0:
                return c
        return 0

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        inv = self.ring.field.inv(self.terms[0][1])
        return self.scale(inv)

    # -- arithmetic

    def _as_dict(self) -> dict[Monomial, int]:
        return dict(self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self.ring.check_compatible(other.ring)
        d = self._as_dict()
        p = self.ring.p
        for m, c in other.terms:
            nc = (d.get(m, 0) + c) % p
            if nc:
                d[m] = nc
            else:
                d.pop(m, None)
        return self.ring.from_dict(d)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, tuple((m, (-c) % p) for m, c in self.terms))

    def scale(self, c: int) -> "Polynomial":
        c = self.ring.field.normalize(c)
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(self.ring, tuple((m, (k * c) % p) for m, k in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self.ring.check_compatible(other.ring)
        p = self.ring.p
        d: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                nc = (d.get(m, 0) + c1 * c2) % p
                if nc:
                    d[m] = nc
                else:
                    d.pop(m, None)
        return self.ring.from_dict(d)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(e):
            out = out * self
        return out

    def mul_monomial(self, m: Monomial, c: int = 1) -> "Polynomial":
        p = self.ring.p
        c = c % p
        if c == 0:
            return self.ring.zero()
        # multiplication by a monomial preserves the term order
        return Polynomial(
            self.ring,
            tuple((mono_mul(t, m), (k * c) % p) for t, k in self.terms),
        )

    # -- comparison / display

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.compatible_with(other.ring) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring.p, self.ring.names, self.terms))

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)


def polynomial_ring(
    p: int, names: Iterable[str], order: str = "degrevlex"
) -> tuple[PolynomialRing, tuple[Polynomial, ...]]:
    """Create F_p[names] and return (ring, generators)."""
    ring = PolynomialRing(p, names, order)
    return ring, ring.gens()

