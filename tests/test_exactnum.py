import math

import pytest
from hypothesis import given, strategies as st

from codlab.exactnum import PrimePower, factor, factorial, format_factored, is_prime
from oracles import divides, factorial_valuation, valuation


@given(st.integers(min_value=-5, max_value=20000))
def test_is_prime_matches_naive(n):
    naive = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_prime(n) == naive


def test_prime_power_validation():
    assert PrimePower(2, 6).q == 64
    assert PrimePower(7, 1).q == 7
    with pytest.raises(ValueError):
        PrimePower(6, 1)
    with pytest.raises(ValueError):
        PrimePower(2, 0)


@given(st.integers(min_value=2, max_value=10**6))
def test_factor_reconstructs(n):
    pairs = factor(n)
    prod = 1
    for p, e in pairs:
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert [p for p, _ in pairs] == sorted(p for p, _ in pairs)


@given(
    st.integers(min_value=0, max_value=400),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_legendre_formula(n, p):
    # sum of floor(n/p^i) must equal the valuation of n! itself
    assert factorial_valuation(n, p) == valuation(factorial(n), p)


def test_valuation_examples():
    assert valuation(2880, 2) == 6
    assert valuation(2880, 3) == 2
    assert valuation(2880, 7) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_divides():
    assert divides(12, 60)
    assert not divides(7, 60)


@pytest.mark.parametrize(
    "n,text",
    [
        (2880, "2^6·3^2·5"),
        (12, "2^2·3"),
        (7, "7"),
        (6048, "2^5·3^3·7"),
        (1, "1"),
        (2**200, "2^200"),
        (2**61 * 3**5, "2^61·3^5"),
        (2**40 * 37, "2^40·37"),
    ],
)
def test_format_factored(n, text):
    assert format_factored(n) == text


@given(st.integers(min_value=2, max_value=10**5))
def test_format_factored_roundtrip(n):
    total = 1
    for term in format_factored(n).split("·"):
        base, _, exp = term.partition("^")
        total *= int(base) ** (int(exp) if exp else 1)
    assert total == n
