import math

import pytest

from pihall.arith import MILLER_RABIN_BOUND, PiSet, is_pi_number, is_prime, \
    p_part, pi_part, prime_factorization


def test_pi_part_of_one():
    assert pi_part(1, PiSet([2, 3])) == 1


def test_pi_part_of_gl52_order():
    order = 2 ** 10 * 3 ** 2 * 5 * 7 * 31
    assert pi_part(order, PiSet([2, 3])) == 9216


def test_is_pi_number():
    assert is_pi_number(60, PiSet([2, 3, 5]))
    assert not is_pi_number(60, PiSet([2, 3]))
    assert is_pi_number(1, PiSet([7]))


def test_prime_factorization():
    assert prime_factorization(9999360) == {2: 10, 3: 2, 5: 1, 7: 1, 31: 1}
    assert prime_factorization(1) == {}


def test_p_part():
    assert p_part(720, 2) == 16
    assert p_part(720, 7) == 1


@pytest.mark.parametrize("n,expect", [
    (2, True), (3, True), (4, False), (31, True), (91, False), (1, False),
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2..23
    (3215031751, False), (3825123056546413051, False),
    # a 19-digit prime: tens of seconds by trial division
    (10**18 + 3, True),
    # past the bound, a composite verdict still holds
    (10**24 + 9, False)])
def test_is_prime(n, expect):
    assert is_prime(n) is expect


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert [n for n in range(10**5) if is_prime(n)] == \
        [n for n in range(10**5) if by_trial_division(n)]


def test_is_prime_refuses_a_prime_past_the_bound():
    assert MILLER_RABIN_BOUND < 10**24 + 7
    with pytest.raises(ValueError):
        is_prime(10**24 + 7)


def test_piset_parse_and_reject():
    assert PiSet.parse("3, 2").primes == (2, 3)
    with pytest.raises(ValueError):
        PiSet.parse("2,4")
    with pytest.raises(ValueError):
        PiSet.parse("")
    with pytest.raises(ValueError):
        PiSet([6])
    with pytest.raises(ValueError):
        PiSet.parse(f"2,{10**24 + 7}")


def test_piset_semantics():
    pi = PiSet([5, 2])
    assert 2 in pi and 5 in pi and 3 not in pi
    assert pi.key() == "2,5"
    assert pi == PiSet([2, 5])
