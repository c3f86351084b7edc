"""Prime sets and pi-part arithmetic."""

from __future__ import annotations

from typing import Iterable

# Miller-Rabin to the prime bases 2..37 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Exact primality below MILLER_RABIN_BOUND: trial division by the
    bases, then deterministic Miller-Rabin.  Past the bound a composite
    verdict still holds, and a prime one, which the bases cannot certify
    there, raises ValueError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to 37
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is past the exact primality bound "
                         f"{MILLER_RABIN_BOUND}")
    return True


def prime_factorization(n: int) -> dict[int, int]:
    """n >= 1 -> {prime: exponent}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(prime_factorization(n))


class PiSet:
    """A finite set of primes; the complement is implicit.  A prime past
    MILLER_RABIN_BOUND is rejected, as is_prime cannot certify it."""

    __slots__ = ("primes",)

    def __init__(self, primes: Iterable[int]):
        ps = sorted(set(int(p) for p in primes))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", tuple(ps))

    def __setattr__(self, name, value):
        raise AttributeError("PiSet is immutable")

    @staticmethod
    def parse(text: str) -> "PiSet":
        """Parse a comma-separated prime list, e.g. '2,3'."""
        parts = [s.strip() for s in text.split(",") if s.strip()]
        if not parts:
            raise ValueError("empty prime list")
        try:
            return PiSet(int(s) for s in parts)
        except ValueError as exc:
            raise ValueError(f"bad prime list {text!r}: {exc}") from None

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)

    def __eq__(self, other):
        return isinstance(other, PiSet) and self.primes == other.primes

    def __hash__(self):
        return hash(self.primes)

    def __repr__(self):
        return "PiSet({" + ",".join(map(str, self.primes)) + "})"

    def key(self) -> str:
        return ",".join(map(str, self.primes))


def pi_part(n: int, pi: PiSet) -> int:
    """Largest divisor of n whose prime factors all lie in pi."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = 1
    for p in pi:
        while n % p == 0:
            out *= p
            n //= p
    return out


def is_pi_number(n: int, pi: PiSet) -> bool:
    return pi_part(n, pi) == n


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out
