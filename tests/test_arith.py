"""Field, monomial order and polynomial arithmetic."""

import operator
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from koszulkit.arith import MonomialOrder, PrimeField, is_prime, polynomial_ring
from oracles import raw_mul, poly_to_dict, reference_degrevlex


def _monomials_up_to(nvars, dmax):
    ring, _ = polynomial_ring(5, [f"x{i}" for i in range(nvars)])
    return [m for d in range(dmax + 1) for m in ring.monomials_of_degree(d)]


def _cmp(order, a, b):
    """-1, 0 or 1 as a <, =, > b under the order, read from its sort key."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def test_prime_field_basics():
    f = PrimeField(7)
    assert f.normalize(5 + 4) == 2
    assert f.normalize(3 * 5) == 1
    assert f.inv(3) == 5
    assert f.normalize(-7) == 0
    assert 4 * f.inv(3) % 7 == 6  # 4 / 3 = 6 in F_7
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_prime_field_rejects_composite_and_range():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31)


def _trial_division(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if is_prime(n)] == [
        n for n in range(200_000) if _trial_division(n)
    ]
    near = range(2**31 - 300, 2**31 + 300)
    assert [n for n in near if is_prime(n)] == [n for n in near if _trial_division(n)]
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)


def test_is_prime_rejects_pseudoprimes():
    # composite n with a factor: Carmichael numbers (Fermat pseudoprimes to
    # every base prime to n), then strong pseudoprimes to base 2, the last
    # four to every base of 2..7, 2..13, 2..17 and 2..23
    factored = {
        561: 3, 1105: 5, 1729: 7, 2465: 5, 2821: 7, 6601: 7, 8911: 7,
        41041: 7, 825265: 5, 321197185: 5,
        2047: 23, 3277: 29, 4033: 37, 4681: 31, 8321: 53, 3215031751: 151,
        3474749660383: 1303, 341550071728321: 10670053, 3825123056546413051: 149491,
    }
    for n, f in factored.items():
        assert n % f == 0 and 1 < f < n
        assert not is_prime(n), n


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 32003, 2**31 - 1]), st.integers(1, 2**31))
def test_field_inverse_is_fermat_inverse(p, a):
    f = PrimeField(p)
    if a % p == 0:
        with pytest.raises(ZeroDivisionError):
            f.inv(a)
    else:
        assert f.inv(a) == pow(a % p, p - 2, p)
        assert a * f.inv(a) % p == 1


def test_add_cancellation():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    assert (x + y) + (-y) == x


def test_mul_binomial_char5():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    assert (x + y) * (x + y) == x**2 + 2 * x * y + y**2


def test_mul_binomial_char2_oracle():
    # direct expansion mod 2, independent dict arithmetic
    s, (x, y) = polynomial_ring(2, ("x", "y"))
    f = {(1, 0): 1, (0, 1): 1}
    expect = raw_mul(f, f, 2)
    assert poly_to_dict((x + y) * (x + y)) == expect
    assert (x + y) * (x + y) == x**2 + y**2


@given(st.sampled_from([2, 3, 32003, 2**31 - 1]), st.integers(0, 12), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_power_is_repeated_product(p, e, seed):
    rng = random.Random(seed)
    s, (x, y, z) = polynomial_ring(p, ("x", "y", "z"))
    f = rng.randrange(p) * x + rng.randrange(p) * y * z + s.constant(rng.randrange(p))
    want = s.one()
    for _ in range(e):
        want = want * f
    assert f**e == want


def test_power_of_a_variable_takes_no_time_per_unit_of_exponent():
    # squaring and multiplying takes about 80 products here, where one
    # product per unit of the exponent would never finish
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    e = 10**12 + 7
    assert (x * y) ** e == s.from_dict({(e, e): 1})
    assert (x + y) ** 25 == x**25 + y**25  # the Frobenius map twice over F_5


def test_scale_and_mismatch_errors():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    assert (x + y).scale(3) == 3 * x + 3 * y
    s7, (a, b) = polynomial_ring(7, ("x", "y"))
    with pytest.raises(ValueError, match="modulus mismatch"):
        x + a
    s3, (u,) = polynomial_ring(5, ("u",))
    with pytest.raises(ValueError, match="variable-count mismatch"):
        x * u


def test_adding_a_non_polynomial_raises_type_error():
    # __add__ and __sub__ return NotImplemented for other operands, as
    # __rmul__ does, so Python raises TypeError, with either operand first
    _s, (x, _y) = polynomial_ring(5, ("x", "y"))
    for op in (operator.add, operator.sub):
        for other in (1, 0, 2.5, "x", None):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


def test_compare_degrevlex_examples():
    o2 = MonomialOrder("degrevlex", 2)
    # x^2 > xy in k[x,y]
    assert _cmp(o2, (2, 0), (1, 1)) == 1
    o3 = MonomialOrder("degrevlex", 3)
    # y^2 > xz in k[x,y,z] (textbook order: the smaller exponent in the
    # rightmost differing position wins the tie)
    assert _cmp(o3, (1, 0, 1), (0, 2, 0)) == -1
    assert _cmp(o3, (1, 0, 1), (1, 0, 1)) == 0


def test_degrevlex_matches_reference_contract():
    o3 = MonomialOrder("degrevlex", 3)
    monos = _monomials_up_to(3, 4)
    for a in monos:
        for b in monos:
            assert _cmp(o3, a, b) == reference_degrevlex(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_order_is_strict_total_order(n):
    order = MonomialOrder("degrevlex", n)
    monos = _monomials_up_to(n, 4)
    keys = [order.key(m) for m in monos]
    # antisymmetry and totality via strict keys
    assert len(set(keys)) == len(keys)
    # transitivity is inherited from tuple comparison of keys; spot-check
    ranked = sorted(monos, key=order.key)
    for a, b in zip(ranked, ranked[1:]):
        assert reference_degrevlex(a, b) == -1


def test_order_degree_compatible_and_multiplicative():
    order = MonomialOrder("degrevlex", 3)
    monos = _monomials_up_to(3, 3)
    for a in monos:
        for b in monos:
            if sum(a) > sum(b):
                assert _cmp(order, a, b) == 1
            c = (1, 0, 2)
            ab = _cmp(order, a, b)
            shifted = _cmp(
                order,
                tuple(x + y for x, y in zip(a, c)),
                tuple(x + y for x, y in zip(b, c)),
            )
            assert ab == shifted


def test_compare_length_mismatch():
    # monomials enter through the ring, which checks their length
    s, _ = polynomial_ring(5, ("x", "y"))
    with pytest.raises(ValueError, match="monomial length mismatch"):
        s.monomial((1, 0, 0))


def test_lex_order():
    o = MonomialOrder("lex", 3)
    assert _cmp(o, (1, 0, 1), (0, 2, 0)) == 1  # x beats y^2 under lex


def test_homogeneous_components():
    s, (x, y) = polynomial_ring(5, ("x", "y"))
    comps = (x + x * y).homogeneous_components()
    assert set(comps) == {1, 2}
    assert comps[1] == x and comps[2] == x * y
    assert s.zero().homogeneous_components() == {}
    f = x + y
    assert f.homogeneous_components() == {1: f}
    assert sum(comps.values(), s.zero()) == x + x * y


def _random_poly(ring, rng_data):
    d = {}
    for mono, coeff in rng_data:
        d[mono] = d.get(mono, 0) + coeff
    return ring.from_dict(d)


_mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
_terms = st.lists(st.tuples(_mono, st.integers(0, 4)), max_size=6)


@settings(max_examples=60, deadline=None)
@given(_terms, _terms, _terms)
def test_ring_axioms(t1, t2, t3):
    ring, _ = polynomial_ring(5, ("x", "y"))
    f, g, h = (_random_poly(ring, t) for t in (t1, t2, t3))
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * ring.one() == f
    assert f + (-f) == ring.zero()


@settings(max_examples=40, deadline=None)
@given(_terms)
def test_terms_stay_canonical(t1):
    ring, _ = polynomial_ring(5, ("x", "y"))
    f = _random_poly(ring, t1)
    keys = [ring.order.key(m) for m, _c in f.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(0 < c < 5 for _m, c in f.terms)
