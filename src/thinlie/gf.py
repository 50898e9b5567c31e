"""Exact arithmetic in GF(p) and GF(p^2): field arithmetic only.

Scalars carry no wrapper objects: a prime-field element is an int in
[0, p) and a quadratic-extension element is a pair ``(c0, c1)`` meaning
``c0 + c1*mu`` where ``mu**2 = u*mu + v``.  GF(p) has no field object:
its arithmetic is Python's on ints mod p.  ``ExtField`` owns the
extension arithmetic.
The one exception is the structure-table kernel of ``maxclass``
(``_Structure.extend`` and ``linear_forms``, the Jacobi forms of
``validate``, and the search's ``projective_kernel`` and
``free_children``): it expands the product
(x0 + x1*mu)(y0 + y1*mu) = x0*y0 + v*x1*y1 + (x0*y1 + x1*y0 + u*x1*y1)*mu
itself and reduces each coordinate of a sum of products once, and
``projective_kernel`` divides as ``ExtField.inv`` does, by the conjugate
and the inverse of the norm.

No row is eliminated anywhere in the package: a subalgebra is read off
its dimensions (``subfield``), so no subcommand needs a basis.  The
GF(p) linear algebra of the tests lives in ``tests/int_kernel.py``.
"""

from __future__ import annotations

from .errors import BadBound, DivisionByZero, NotPrime, ReduciblePolynomial

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, List, Optional, Tuple

    EElem = Tuple[int, int]


# The first twelve primes: the bases of ``is_prime``.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first twelve primes, ``MR_BASES``.

    The smallest composite that is a strong pseudoprime to all of them is
    psi_12 = 318665857834031151167461 > 2^64 (Sorenson and Webster,
    "Strong pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)),
    so the answer is exact for every n < 2^64.  Larger n raise BadBound
    instead of getting an unproven answer.
    """
    if n >= 1 << 64:
        raise BadBound(f"modulus {n} is not below 2^64, the bound of the primality test")
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def residue(p: int, n: int) -> int:
    """n itself when 0 <= n < p; ValueError otherwise (input is never reduced)."""
    if not 0 <= n < p:
        raise ValueError(f"{n} is not a residue in [0, {p})")
    return n


def quadratic_is_irreducible(p: int, u: int, v: int) -> bool:
    """Whether t^2 - u*t - v has no root mod the prime p.

    For odd p the roots exist iff the discriminant u^2 + 4v is a square,
    which Euler's criterion decides; for p = 2 both candidates are tried.
    """
    if p == 2:
        return all((t * t - u * t - v) % 2 for t in (0, 1))
    return pow(u * u + 4 * v, (p - 1) // 2, p) == p - 1


class ExtField:
    """GF(p^2) presented as GF(p)[mu] / (mu^2 - u*mu - v).

    Elements are pairs (c0, c1) with both coordinates reduced mod p.
    p must be prime, and the defining quadratic t^2 - u*t - v irreducible
    over GF(p); the constructor rejects anything else.
    """

    def __init__(self, p: int, u: int, v: int):
        if not is_prime(p):
            raise NotPrime(f"modulus {p} is not prime")
        u %= p
        v %= p
        if not quadratic_is_irreducible(p, u, v):
            raise ReduciblePolynomial(f"t^2 - {u}*t - {v} has a root mod {p}")
        self.p = p
        self.u = u
        self.v = v
        self.zero: EElem = (0, 0)
        self.one: EElem = (1, 0)
        self.mu: EElem = (0, 1)

    @property
    def order(self) -> int:
        return self.p * self.p

    def coerce(self, e: EElem) -> EElem:
        c0, c1 = e
        return (c0 % self.p, c1 % self.p)

    def add(self, a: EElem, b: EElem) -> EElem:
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a: EElem, b: EElem) -> EElem:
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(self, a: EElem) -> EElem:
        p = self.p
        return ((-a[0]) % p, (-a[1]) % p)

    def mul(self, a: EElem, b: EElem) -> EElem:
        # (a0 + a1 mu)(b0 + b1 mu) with mu^2 = u mu + v
        p = self.p
        a0, a1 = a
        b0, b1 = b
        cross = a1 * b1
        return ((a0 * b0 + cross * self.v) % p, (a0 * b1 + a1 * b0 + cross * self.u) % p)

    def scale(self, c: int, a: EElem) -> EElem:
        p = self.p
        return (c * a[0] % p, c * a[1] % p)

    def conj(self, a: EElem) -> EElem:
        # The nontrivial GF(p)-automorphism: mu -> u - mu.
        p = self.p
        return ((a[0] + a[1] * self.u) % p, (-a[1]) % p)

    def norm(self, a: EElem) -> int:
        n = self.mul(a, self.conj(a))
        assert n[1] == 0
        return n[0]

    def inv(self, a: EElem) -> EElem:
        p = self.p
        if a[0] % p == 0 and a[1] % p == 0:
            raise DivisionByZero("0 has no inverse")
        return self.scale(pow(self.norm(a), p - 2, p), self.conj(a))

    def div(self, a: EElem, b: EElem) -> EElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: EElem, e: int) -> EElem:
        if e < 0:
            a = self.inv(a)
            e = -e
        acc = self.one
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def is_zero(self, a: EElem) -> bool:
        return a[0] % self.p == 0 and a[1] % self.p == 0

    def is_square(self, a: EElem) -> bool:
        """Euler's criterion on the norm: a^((q-1)/2) = N(a)^((p-1)/2) for odd p."""
        p = self.p
        return p == 2 or self.is_zero(a) or pow(self.norm(a), (p - 1) // 2, p) == 1

    def sqrt(self, a: EElem) -> Optional[EElem]:
        """A square root of a, or None when a is not a square.

        For p = 2 squaring is a bijection and the root is a^(q/2).  For odd
        p this is Tonelli-Shanks in the cyclic group of order q - 1 = 2^s*r,
        with the non-square found by ``is_square`` among mu, 1 + mu, ...
        Every element of GF(p) is a square in GF(p^2), but the norm
        c^2 + u*c - v of c + mu is a non-residue for (p+1)/2 values of c.
        """
        if self.p == 2 or self.is_zero(a):
            return self.pow(a, self.order // 2)
        if not self.is_square(a):
            return None
        r, s = self.order - 1, 0
        while r % 2 == 0:
            r //= 2
            s += 1
        z = next(e for e in ((c0, 1) for c0 in range(self.p)) if not self.is_square(e))
        c, t, root = self.pow(z, r), self.pow(a, r), self.pow(a, (r + 1) // 2)
        while t != self.one:
            i, t2 = 0, t
            while t2 != self.one:
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (s - i - 1))
            s, c = i, self.mul(b, b)
            t, root = self.mul(t, c), self.mul(root, b)
        return root

    def quadratic_roots(self, c2: EElem, c1: EElem, c0: EElem) -> List[EElem]:
        """The distinct roots of c2*t^2 + c1*t + c0 in ``key`` order.

        The polynomial must not be zero (ValueError).  For odd p by the
        quadratic formula with ``sqrt``; for p = 2, where it does not apply,
        by trying the four elements of GF(4).
        """
        if self.is_zero(c2) and self.is_zero(c1):
            if self.is_zero(c0):
                raise ValueError("every element is a root of the zero polynomial")
            return []
        if self.p == 2:
            return [
                t for t in self.elements()
                if self.is_zero(self.add(self.mul(self.add(self.mul(c2, t), c1), t), c0))
            ]
        if self.is_zero(c2):
            return [self.neg(self.div(c0, c1))]
        root = self.sqrt(self.sub(self.mul(c1, c1), self.scale(4, self.mul(c2, c0))))
        if root is None:
            return []
        half = self.inv(self.scale(2, c2))
        roots = {self.mul(self.sub(sign, c1), half) for sign in (root, self.neg(root))}
        return sorted(roots, key=self.key)

    def elements(self) -> Iterator[EElem]:
        for c1 in range(self.p):
            for c0 in range(self.p):
                yield (c0, c1)

    def key(self, a: EElem) -> int:
        """Total order used for canonical enumeration (0 first)."""
        return a[1] * self.p + a[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.u == self.u
            and other.v == self.v
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.u, self.v))

    def __repr__(self):
        return f"GF({self.p}^2; mu^2={self.u}*mu+{self.v})"


def make_ext_field(p: int, u: int, v: int) -> ExtField:
    """Build GF(p^2) with mu^2 = u*mu + v, rejecting bad parameters."""
    return ExtField(p, u, v)
