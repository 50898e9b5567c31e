"""The linear algebra of the tests: GF(p), and GF(p^2) by restriction of scalars.

The package eliminates no rows: it reads a subalgebra off its
dimensions, and ``gf`` is field arithmetic only.  The oracles insert
rows into the canonical reduced echelon basis (``RowSpace``, ``span``),
count dimensions, solve for coordinates in independent rows, take right
kernels, coordinates in a stored basis and membership, sum scaled rows
and multiply matrices.  All of it is here, on one ``RowSpace``, so the
oracles share one elimination.

E-linear algebra runs here too, by restriction of scalars.  E = F + F*mu
over F = GF(p), and e = e0 + e1*mu is stored as (e0, e1), so an E-row r of
length n is the F-row flat(r) of length 2n.  The lemma: c*r = c0*r +
c1*(mu*r), so the E-span of rows R is the F-span of flat(R) and
flat(mu*R), the doubled rows (``doubled_rows``).  Hence rank_E(R) =
rank_F / 2, w is in the E-span exactly when flat(w) is in the F-span, and
c . R = w over E is the F-solve of the doubled rows against flat(w), with
c_i = c[2i] + c[2i + 1]*mu.  The F dot product of flattened vectors is not
the E-pairing, so the right kernel {x : A x = 0} of an E-matrix A is read
through the transpose: x -> A x is the row map x -> x . A^T, whose F-matrix
is the doubled rows of A^T, and its kernel is the right kernel of their
transpose.
"""


def combine(p, coeffs, rows):
    """sum(c * row) over GF(p); zero coefficients skipped, one reduction.

    This is the vector-matrix product coeffs . rows, so a matrix product
    a . b is ``combine(p, row, b)`` for each row of a (``mat_mul``).
    """
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * x for a, x in zip(acc, row)]
    return tuple(a % p for a in acc)


def mat_mul(p, a, b):
    """The matrix product a . b over GF(p), one ``combine`` per row of a."""
    return [list(combine(p, row, b)) for row in a]


class RowSpace:
    """A subspace of GF(p)^n kept in reduced echelon form under insertion,
    with its dimension, membership, coordinates and the right kernel.

    The stored basis equals the rref basis of the spanned space no matter
    in which order vectors are inserted, so its bases are canonical.
    Input entries may be any ints; they are reduced mod p.
    """

    def __init__(self, p, ncols):
        self.p = p
        self.ncols = ncols
        self._rows = []  # sorted by pivot column, fully reduced
        self._pivots = []

    def reduce(self, vec):
        p = self.p
        vec = [x % p for x in vec]
        for pc, row in zip(self._pivots, self._rows):
            c = vec[pc]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, row)]
        return vec

    def insert(self, vec):
        """Insert a vector; returns True if the dimension grew.

        Pivots are the first nonzero entry in column order, leading
        entries are normalized to 1, and elimination is carried above and
        below the pivot.
        """
        p = self.p
        vec = self.reduce(vec)
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        inv = pow(vec[pivot], p - 2, p)
        vec = [inv * x % p for x in vec]
        for i, row in enumerate(self._rows):
            c = row[pivot]
            if c:
                self._rows[i] = [(x - c * y) % p for x, y in zip(row, vec)]
        at = 0
        while at < len(self._pivots) and self._pivots[at] < pivot:
            at += 1
        self._rows.insert(at, vec)
        self._pivots.insert(at, pivot)
        return True

    def basis(self):
        return [tuple(r) for r in self._rows]

    @property
    def dim(self):
        return len(self._rows)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coords(self, vec):
        """Coordinates of vec in the stored basis, read off at the pivots.

        The basis is fully reduced, so the coefficient of each row is the
        entry of vec at that row's pivot.  Raises ValueError when vec is
        not in the space.
        """
        if not self.contains(vec):
            raise ValueError(f"vector {list(vec)} not in the row space")
        return [vec[pc] % self.p for pc in self._pivots]

    def kernel(self):
        """A basis of the right kernel {x : row . x = 0 for every row}.

        One vector per free column j, in column order: entry 1 at j and
        -row[j] at the pivot column of each stored row.
        """
        p = self.p
        pivots = set(self._pivots)
        out = []
        for j in range(self.ncols):
            if j in pivots:
                continue
            vec = [0] * self.ncols
            vec[j] = 1
            for pc, row in zip(self._pivots, self._rows):
                vec[pc] = -row[j] % p
            out.append(tuple(vec))
        return out


def span(p, vectors, ncols):
    sp = RowSpace(p, ncols)
    for v in vectors:
        sp.insert(v)
    return sp


def solve(p, rows, vec):
    """Coordinates c with c . rows = vec over GF(p), for independent rows.

    The span of the augmented columns (r_1[j], ..., r_n[j], vec[j]) has
    pivots 0..n-1 exactly when the rows are independent and vec is in
    their span; its reduced basis then carries c in the last column.
    Raises ValueError otherwise.
    """
    n = len(rows)
    sp = span(p, [[r[j] for r in rows] + [x] for j, x in enumerate(vec)], n + 1)
    if sp._pivots != list(range(n)):
        raise ValueError("rows are dependent or the vector is outside their span")
    return [row[n] for row in sp._rows]



def doubled_rows(field, rows):
    """The F-rows flat(r) and flat(mu*r) of each E-row r, in that order:
    the F-span of the output is the E-span of ``rows`` (the module
    docstring).  ``field`` is the ``thinlie.gf.ExtField`` of the entries."""
    out = []
    for row in rows:
        out.append(tuple(x for e in row for x in e))
        out.append(tuple(x for e in row for x in field.mul(field.mu, e)))
    return out
