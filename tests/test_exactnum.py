import math
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from codlab.alt_codegrees import alt_codegree_set
from codlab.exactnum import (
    MR_PROVEN_BELOW,
    PrimePower,
    exact_root,
    factor,
    factorial,
    format_factored,
    format_known_divisors,
    is_prime,
)
from oracles import divides, factor_stepwise, factored_text, factorial_valuation, valuation


@given(st.integers(min_value=-5, max_value=20000))
def test_is_prime_matches_naive(n):
    naive = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_prime(n) == naive


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for d in range(2, math.isqrt(limit - 1) + 1):
        if flags[d]:
            flags[d * d::d] = bytearray(len(flags[d * d::d]))
    return flags


def test_is_prime_across_the_trial_division_bound():
    # below 43^2 the bases as trial divisors decide, above it Miller-Rabin
    # does: both agree with a sieve
    flags = _sieve(1 << 18)
    for n in range(1 << 18):
        assert is_prime(n) == bool(flags[n]), n


@pytest.mark.parametrize(
    "n",
    [
        # strong pseudoprimes to the first 4, 5, 6, 7, 9 and 12 prime bases
        3215031751, 2152302898747, 3474749660383, 341550071728321,
        3825123056546413051, 318665857834031151167461,
        561 * 1105, 2**61 + 1, (2**31 - 1) * (10**12 + 39), (2**40 + 15) ** 2,
    ],
)
def test_is_prime_rejects_composites(n):
    assert not is_prime(n)


@pytest.mark.parametrize(
    "n", [65537, 2**31 - 1, 2**61 - 1, 10**12 + 39, 10**18 + 3, 2**64 - 59, 10**24 + 7],
)
def test_is_prime_accepts_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_beyond_proven_range():
    # the 13-base strong pseudoprime psi_13 is itself the first refused n
    assert not is_prime(MR_PROVEN_BELOW - 1)
    for n in (MR_PROVEN_BELOW, 2**89 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match="beyond the proven primality range"):
            is_prime(n)


@pytest.mark.parametrize("k", [2, 3, 5, 7, 13, 31, 97])
def test_exact_root(k):
    for r in (1, 3, 5, 7, 99, 2**61 - 1, 3**50 + 2):
        assert exact_root(r**k, k) == r
        assert exact_root(r**k + 2, k) is None
        if r > 1:
            assert exact_root(r**k - 2, k) is None


def test_prime_power_validation():
    assert PrimePower(2, 6).q == 64
    assert PrimePower(7, 1).q == 7
    with pytest.raises(ValueError):
        PrimePower(6, 1)
    with pytest.raises(ValueError):
        PrimePower(2, 0)
    # built by keyword, the same checks run
    assert PrimePower(k=3, p=2) == PrimePower(2, 3) == (2, 3)
    with pytest.raises(ValueError, match="p = 6 is not prime"):
        PrimePower(p=6, k=1)
    with pytest.raises(ValueError, match="k = 0 must be >= 1"):
        PrimePower(2, k=0)


def test_factor_matches_stepwise_oracle():
    # every codegree of A5..A30, plus values with long runs of one odd prime
    values = {3**40 * 7, 2**200, 3**17 * 5**9 * 7**5}
    for n in range(5, 31):
        values.update(alt_codegree_set(n).values)
    for v in values:
        assert factor(v) == factor_stepwise(v), v


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


def test_argument_guards():
    with pytest.raises(ValueError, match=r"^factorial of a negative number$"):
        factorial(-1)
    for n in (0, -12):
        with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
            factor(n)
        with pytest.raises(ValueError, match=rf"^n must be >= 1, got {n}$"):
            format_factored(n)


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
        pytest.param(2**200, "2^200", id="2^200"),
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


def test_format_known_divisors_matches_format_factored_on_cod_an():
    # the bulk renderer of the cod table, on every value of cod(A_n), against
    # the one-value path and against trial division of each value
    for n in range(5, 41):
        cs = alt_codegree_set(n)
        texts = list(format_known_divisors(cs.values, cs.order))
        assert texts == [format_factored(v) for v in cs.values], n
        assert texts == [factored_text(v) for v in cs.values], n


def test_format_known_divisors_streams_its_texts():
    # the cod table writes each text as it comes: consuming the 16,215 texts
    # of cod(A_40) peaks at about 0.15 MB, against 1.9 MB for a list of them
    cs = alt_codegree_set(40)
    tracemalloc.start()
    try:
        for _ in format_known_divisors(cs.values, cs.order):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_format_known_divisors_small_cases():
    assert list(format_known_divisors([1, 2, 12, 60, 5], 60)) == [
        "1", "2", "2^2·3", "2^2·3·5", "5"]
    assert list(format_known_divisors((1, 1), 1)) == ["1", "1"]
    assert list(format_known_divisors((), 2**40 * 37)) == []


_PRIMES_TO_1009 = [p for p, flag in enumerate(_sieve(1010)) if flag]


@st.composite
def _divisor_cases(draw):
    """(multiple, values): a product of primes up to 1009 and some of its
    divisors, with 1 and multiple itself among them."""
    exponents = draw(st.dictionaries(st.sampled_from(_PRIMES_TO_1009),
                                     st.integers(1, 40), max_size=8))
    multiple = math.prod(p**e for p, e in exponents.items())
    divisor = st.builds(
        math.prod,
        st.tuples(*(st.integers(0, e).map(p.__pow__) for p, e in exponents.items())),
    )
    values = draw(st.lists(divisor, max_size=20))
    values[draw(st.integers(0, len(values))):0] = [1, multiple]
    return multiple, values


# 2^5000, its power read off the low bit, both alone and ahead of other
# primes; 3^5000 alone has more divisors than one block may hold, so 3 is a
# block by itself, ahead of another block
@example(case=(2**5000, [1, 2, 2**4999, 2**5000, 2**1234]))
@example(case=(2 * 3**5000 * 5, [1, 2, 5, 3**4999 * 5, 2 * 3**17, 2 * 3**5000 * 5]))
@example(case=(2**5000 * 3**2 * 1009, [1, 3, 2**5000 * 1009, 2**17 * 3**2, 2**5000 * 3**2 * 1009]))
@given(case=_divisor_cases())
def test_format_known_divisors_matches_trial_division(case):
    multiple, values = case
    assert list(format_known_divisors(values, multiple)) == [factored_text(v) for v in values]
