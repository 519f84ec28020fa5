import random
from math import isqrt

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from weightfil.errors import EnumerationBudgetError, PreconditionError
from weightfil.galois import (GF, GF_MAX_Q, _iroot, _pmod, _poly_gcd, _poly_pow_mod, _psub,
                              factor_mod_p, factor_prime_power, find_irreducible, is_prime)

X = sympy.Symbol("x")

# find_irreducible(p, k) for every prime power p^k <= 128 with k >= 2, as
# recorded before the distinct-degree test replaced Rabin's test: GF(q)'s
# modulus fixes the element codes of every table and report
FROZEN_MODULI = {
    (2, 2): [1, 1, 1],
    (2, 3): [1, 0, 1, 1],
    (2, 4): [1, 0, 0, 1, 1],
    (2, 5): [1, 0, 0, 1, 0, 1],
    (2, 6): [1, 0, 0, 0, 0, 1, 1],
    (2, 7): [1, 0, 0, 0, 0, 0, 1, 1],
    (3, 2): [1, 0, 1],
    (3, 3): [1, 0, 2, 1],
    (3, 4): [1, 0, 1, 1, 1],
    (5, 2): [1, 1, 1],
    (5, 3): [1, 0, 1, 1],
    (7, 2): [1, 0, 1],
    (11, 2): [1, 0, 1],
}


def _is_irreducible(poly, p):
    """Rabin: the monic poly of degree k over F_p is irreducible iff
    x^(p^k) = x mod poly and gcd(x^(p^j) - x, poly) = 1 for every proper
    divisor j of k.  The kernel find_irreducible used before it took the
    distinct-degree factorisation, kept as its oracle."""
    k = len(poly) - 1
    xp = [0, 1]
    for j in range(1, k + 1):
        xp = _poly_pow_mod(xp, p, poly, p)  # x^(p^j) mod poly
        diff = _pmod(_psub(xp, [0, 1]), p)
        if j == k:
            return not diff
        if k % j == 0 and len(_poly_gcd(poly, diff, p)) > 1:
            return False
    return True


@pytest.mark.parametrize("pk", [(p, k) for p in range(2, 128) if sympy.isprime(p)
                                for k in range(2, 8) if p ** k <= 128], ids=str)
def test_gf_moduli_are_frozen_and_lexicographically_first(pk):
    p, k = pk
    modulus = FROZEN_MODULI[pk]
    assert find_irreducible(p, k) == modulus
    assert GF(p ** k).modulus == modulus
    assert _is_irreducible(modulus, p)
    # no monic candidate before it, in the order find_irreducible searches,
    # is irreducible
    for n in range(p ** k):
        tail = [n // p ** i % p for i in reversed(range(k))]
        if tail == modulus[:-1]:
            break
        assert not _is_irreducible(tail + [1], p), tail


def test_is_prime_matches_sympy():
    assert [n for n in range(5001) if is_prime(n)] == \
        [n for n in range(5001) if sympy.isprime(n)]
    assert not is_prime(-7)
    for p in (1_000_003, 999_983, 2 ** 31 - 1, 1_000_000_007):
        assert is_prime(p)
        assert not is_prime(3 * p)
        assert not is_prime(p * 1_000_003)
    assert not is_prime(2 ** 40)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(128) == (2, 7)
    assert factor_prime_power(121) == (11, 2)
    assert factor_prime_power(1_000_000_007) == (1_000_000_007, 1)
    assert factor_prime_power(999_983 ** 2) == (999_983, 2)
    with pytest.raises(PreconditionError, match="^6 is not a prime power$"):
        factor_prime_power(6)
    with pytest.raises(PreconditionError, match="q must be >= 2"):
        factor_prime_power(1)


class _CountingInt(int):
    """An int that counts the reductions `self % d` made on it."""
    mods = 0

    def __mod__(self, other):
        _CountingInt.mods += 1
        return int.__mod__(self, other)


def test_prime_power_check_costs_square_root_trial_divisions():
    # a prime q once cost q trial divisions (1,000,003 here); a scan up to
    # sqrt(q) makes the 999 trial divisions 2..1000 and one exact division
    q = 1_000_003
    _CountingInt.mods = 0
    assert factor_prime_power(_CountingInt(q)) == (q, 1)
    assert _CountingInt.mods == isqrt(q)
    _CountingInt.mods = 0
    assert is_prime(_CountingInt(q))
    assert _CountingInt.mods == isqrt(q) - 1
    # a small least divisor stops the scan at once
    _CountingInt.mods = 0
    assert not is_prime(_CountingInt(3 * q))
    assert _CountingInt.mods == 2


class _TracedInt(_CountingInt):
    """A counting int whose arithmetic results are counting ints too, so that
    the reductions of every value computed from it are counted."""


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
              "__rpow__", "__lshift__", "__neg__"):
    def _op(self, *args, _f=getattr(_CountingInt, _name)):
        out = _f(self, *args)
        return _TracedInt(out) if type(out) is int else out
    setattr(_TracedInt, _name, _op)


def test_prime_power_check_takes_the_root_of_a_prime_square():
    # q = p^2 once cost a scan to p (1,000,005 reductions here); the square
    # root of q is tested by trial division to sqrt(p) instead
    p = 1_000_003
    _CountingInt.mods = 0
    assert factor_prime_power(_TracedInt(p * p)) == (p, 2)
    assert _CountingInt.mods < 2 * isqrt(p)
    assert factor_prime_power(p ** 5) == (p, 5)
    assert factor_prime_power(2 ** 1100) == (2, 1100)  # beyond the range of a float
    with pytest.raises(PreconditionError, match=f"^{p ** 2 * 2} is not a prime power$"):
        factor_prime_power(p ** 2 * 2)


def test_factor_prime_power_matches_sympy():
    for q in range(2, 5000):
        factors = sympy.factorint(q)
        if len(factors) == 1:
            assert factor_prime_power(q) == next(iter(factors.items())), q
        else:
            with pytest.raises(PreconditionError, match=f"^{q} is not a prime power$"):
                factor_prime_power(q)


def test_iroot_is_the_floor_root():
    rng = random.Random(22)
    for _ in range(300):
        n, k = rng.randrange(1, 10 ** rng.randint(1, 400)), rng.randint(1, 40)
        m = _iroot(n, k)
        assert m ** k <= n < (m + 1) ** k, (n, k)


def test_gf_refuses_fields_above_the_cap():
    assert GF(GF_MAX_Q).q == GF_MAX_Q
    with pytest.raises(EnumerationBudgetError, match=f"cap of {GF_MAX_Q}"):
        GF(257)
    with pytest.raises(EnumerationBudgetError, match=f"cap of {GF_MAX_Q}"):
        GF(1_000_003)


def _sympy_factors_mod_p(f, p):
    _, factors = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    assert all(m == 1 for _, m in factors)
    return sorted([int(c) % p for c in reversed(g.all_coeffs())] for g, _ in factors)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13]),
       tail=st.lists(st.integers(0, 12), min_size=1, max_size=12),
       seed=st.integers(0, 3))
def test_factor_mod_p_matches_sympy(p, tail, seed):
    f = [c % p for c in tail] + [1]
    assume(sympy.Poly(list(reversed(f)), X, modulus=p).is_sqf)
    factors = factor_mod_p(f, p, random.Random(seed))
    assert all(u[-1] == 1 and all(0 <= c < p for c in u) for u in factors)
    assert sorted(factors) == _sympy_factors_mod_p(f, p)


def test_factor_mod_p_splits_a_product_of_equal_degree_factors():
    # the 10 monic irreducible quadratics over F_5 times the 5 linear factors:
    # x^25 - x, whose distinct-degree parts need equal-degree splitting
    f = [0, -1] + [0] * 23 + [1]
    factors = factor_mod_p(f, 5, random.Random(0))
    assert len(factors) == 15
    assert sorted(factors) == _sympy_factors_mod_p([c % 5 for c in f], 5)
    assert sorted(len(u) - 1 for u in factors) == [1] * 5 + [2] * 10
