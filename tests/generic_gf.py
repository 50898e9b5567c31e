"""The field-generic linear algebra that ``thinlie.gf`` replaced, kept as a
test oracle.

``BaseField`` is GF(p) behind the same method-call field protocol as
``thinlie.gf.ExtField``, and ``RowSpace``, ``span`` and ``solve`` run over
either field through that protocol.  The kernel of ``int_kernel`` works
on ints mod p only; the E-linear test code (the extraction of N from the
maps, the GF(p^2) kernel cases of ``test_gf``) runs on this slow
predecessor.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from thinlie.errors import DivisionByZero, NotPrime
from thinlie.gf import is_prime

FElem = int


class BaseField:
    """The prime field GF(p).  Elements are ints reduced mod p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"modulus {p} is not prime")
        self.p = p
        self.zero: FElem = 0
        self.one: FElem = 1

    def coerce(self, n: int) -> FElem:
        return n % self.p

    def add(self, a: FElem, b: FElem) -> FElem:
        return (a + b) % self.p

    def sub(self, a: FElem, b: FElem) -> FElem:
        return (a - b) % self.p

    def neg(self, a: FElem) -> FElem:
        return (-a) % self.p

    def mul(self, a: FElem, b: FElem) -> FElem:
        return (a * b) % self.p

    def inv(self, a: FElem) -> FElem:
        if a % self.p == 0:
            raise DivisionByZero("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: FElem, e: int) -> FElem:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def is_zero(self, a: FElem) -> bool:
        return a % self.p == 0

    def elements(self) -> Iterator[FElem]:
        return iter(range(self.p))

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseField) and other.p == self.p

    def __hash__(self):
        return hash(("BaseField", self.p))

    def __repr__(self):
        return f"GF({self.p})"



def solve(field, rows: Sequence[Sequence], vec: Sequence) -> list:
    """Coordinates c with c . rows = vec, for independent rows.

    The span of the augmented columns (r_1[j], ..., r_n[j], vec[j]) has
    pivots 0..n-1 exactly when the rows are independent and vec is in
    their span; its reduced basis then carries c in the last column.
    Raises ValueError otherwise.
    """
    n = len(rows)
    sp = span(field, [[r[j] for r in rows] + [x] for j, x in enumerate(vec)], n + 1)
    if sp._pivots != list(range(n)):
        raise ValueError("rows are dependent or the vector is outside their span")
    return [row[n] for row in sp._rows]


class RowSpace:
    """A subspace of F^n kept in reduced echelon form under insertion.

    The stored basis equals the rref basis of the spanned space no matter
    in which order vectors are inserted, so reported bases are canonical.
    """

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rows: List[list] = []  # sorted by pivot column, fully reduced
        self._pivots: List[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Sequence) -> list:
        F = self.field
        vec = list(vec)
        for pc, row in zip(self._pivots, self._rows):
            c = vec[pc]
            if not F.is_zero(c):
                vec = [F.sub(x, F.mul(c, y)) for x, y in zip(vec, row)]
        return vec

    def contains(self, vec: Sequence) -> bool:
        F = self.field
        return all(F.is_zero(x) for x in self.reduce(vec))

    def coords(self, vec: Sequence) -> list:
        """Coordinates of vec in the stored basis, read off at the pivots.

        The basis is fully reduced, so the coefficient of each row is the
        entry of vec at that row's pivot.  Raises ValueError when vec is
        not in the space.
        """
        if not self.contains(vec):
            raise ValueError(f"vector {list(vec)} not in the row space")
        return [self.field.coerce(vec[pc]) for pc in self._pivots]

    def insert(self, vec: Sequence) -> bool:
        """Insert a vector; returns True if the dimension grew."""
        F = self.field
        vec = self.reduce(vec)
        pivot = None
        for j, x in enumerate(vec):
            if not F.is_zero(x):
                pivot = j
                break
        if pivot is None:
            return False
        inv = F.inv(vec[pivot])
        vec = [F.mul(inv, x) for x in vec]
        for i, row in enumerate(self._rows):
            c = row[pivot]
            if not F.is_zero(c):
                self._rows[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(row, vec)]
        at = 0
        while at < len(self._pivots) and self._pivots[at] < pivot:
            at += 1
        self._rows.insert(at, vec)
        self._pivots.insert(at, pivot)
        return True

    def basis(self) -> List[tuple]:
        return [tuple(r) for r in self._rows]

    def kernel(self) -> List[tuple]:
        """A basis of the right kernel {x : row . x = 0 for every row}.

        One vector per free column j, in column order: entry 1 at j and
        -row[j] at the pivot column of each stored row.
        """
        F = self.field
        pivots = set(self._pivots)
        out = []
        for j in range(self.ncols):
            if j in pivots:
                continue
            vec = [F.zero] * self.ncols
            vec[j] = F.one
            for pc, row in zip(self._pivots, self._rows):
                vec[pc] = F.neg(row[j])
            out.append(tuple(vec))
        return out


def span(field, vectors: Sequence[Sequence], ncols: int) -> RowSpace:
    sp = RowSpace(field, ncols)
    for v in vectors:
        sp.insert(v)
    return sp
