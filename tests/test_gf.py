"""Field arithmetic and exact linear algebra."""

import itertools
import random
import time

import pytest

import generic_gf as gg
from int_kernel import RowSpace, solve, span
from thinlie.errors import BadBound, DivisionByZero, NotPrime, ReduciblePolynomial
from thinlie.gf import is_prime, make_ext_field, quadratic_is_irreducible

PRIMES = [2, 3, 5]


def _field(p):
    # a fixed non-square per small prime, cf. the fixtures
    params = {2: (1, 1), 3: (0, 2), 5: (0, 2)}
    u, v = params[p]
    return make_ext_field(p, u, v)


class TestConstruction:
    def test_f9(self):
        f = make_ext_field(3, 0, 2)
        assert f.mul(f.mu, f.mu) == (2, 0)  # mu^2 = 2

    def test_reducible_rejected(self):
        with pytest.raises(ReduciblePolynomial):
            make_ext_field(3, 0, 1)  # t^2 = 1 has root 1

    def test_f4(self):
        f = make_ext_field(2, 1, 1)
        assert f.mul(f.mu, f.mu) == (1, 1)  # mu^2 = mu + 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_irreducibility_matches_root_scan(self, p):
        # the O(p) root scan the field constructor used to run, as an oracle
        for u in range(p):
            for v in range(p):
                has_root = any((t * t - u * t - v) % p == 0 for t in range(p))
                assert quadratic_is_irreducible(p, u, v) == (not has_root)

    def test_not_prime(self):
        with pytest.raises(NotPrime, match="modulus 4 is not prime"):
            make_ext_field(4, 1, 1)
        with pytest.raises(NotPrime):
            make_ext_field(1, 0, 1)


def _is_prime_by_trial_division(n):
    """The trial division ``is_prime`` used before Miller-Rabin, as an oracle."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestIsPrime:
    def test_matches_trial_division_below_1e5(self):
        sieve = [_is_prime_by_trial_division(n) for n in range(10**5)]
        assert [is_prime(n) for n in range(10**5)] == sieve

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 2**64 - 1])
    def test_strong_pseudoprimes_rejected(self, n):
        # 3215031751 = 151*751*28351 fools the bases 2, 3, 5, 7;
        # 3825123056546413051 = 149491*747451*34233211 fools 2 .. 23
        assert not is_prime(n)

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
        assert time.perf_counter() - start < 1.0

    def test_beyond_2_64_refused(self):
        with pytest.raises(BadBound, match="2\\^64"):
            is_prime(2**64 + 13)
        with pytest.raises(BadBound, match="not below 2\\^64"):
            make_ext_field(2**89 - 1, 0, 2)


class TestArithmetic:
    def test_examples_f9(self):
        f = make_ext_field(3, 0, 2)
        one_plus_mu = (1, 1)
        assert f.mul(one_plus_mu, one_plus_mu) == (0, 2)  # (1+mu)^2 = 2mu
        assert f.inv(f.mu) == (0, 2)  # mu * 2mu = 2*mu^2 = 4 = 1
        assert f.mul(f.mu, f.inv(f.mu)) == f.one

    def test_inv_zero(self):
        f = _field(3)
        with pytest.raises(DivisionByZero):
            f.inv(f.zero)
        with pytest.raises(DivisionByZero):
            f.inv((3, -3))  # zero, unreduced
        with pytest.raises(DivisionByZero):
            gg.BaseField(3).inv(0)

    @pytest.mark.parametrize("p", PRIMES)
    def test_field_axioms_random(self, p):
        f = _field(p)
        rng = random.Random(9000 + p)
        elems = list(f.elements())
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if not f.is_zero(a):
                assert f.mul(a, f.inv(a)) == f.one

    @pytest.mark.parametrize("p", PRIMES)
    def test_frobenius(self, p):
        f = _field(p)
        for a in f.elements():
            assert f.pow(a, p * p) == a

    @pytest.mark.parametrize("p", PRIMES)
    def test_conjugation(self, p):
        f = _field(p)
        for a in f.elements():
            assert f.conj(a) == f.pow(a, p)
            assert f.conj(f.conj(a)) == a

    @pytest.mark.parametrize("p", PRIMES)
    def test_coords_roundtrip(self, p):
        f = _field(p)
        for a in f.elements():
            c0, c1 = a
            assert f.add((c0, 0), f.mul((c1, 0), f.mu)) == a

    def test_pow_negative(self):
        f = _field(5)
        a = (2, 3)
        assert f.mul(f.pow(a, -2), f.pow(a, 2)) == f.one

    @pytest.mark.parametrize("p", PRIMES)
    def test_scale_and_inv_reduce(self, p):
        """``scale`` and ``inv`` return coordinates in [0, p) for scalars
        c >= p and c < 0 and for unreduced inputs, equal to the result on
        the reduced scalar and element."""
        f = _field(p)
        for a in f.elements():
            for c in range(-2 * p, 3 * p):
                got = f.scale(c, a)
                assert all(0 <= x < p for x in got), (c, a)
                assert got == f.mul((c % p, 0), a), (c, a)
            for shift in ((p, 0), (0, p), (-p, 2 * p), (-3 * p, -p)):
                raw = (a[0] + shift[0], a[1] + shift[1])
                assert f.scale(p + 1, raw) == a
                if not f.is_zero(a):
                    got = f.inv(raw)
                    assert all(0 <= x < p for x in got), raw
                    assert got == f.inv(a), raw


class TestRref:
    def test_identity(self):
        sp = span(3, [[1, 0], [0, 1]], 2)
        assert sp.dim == 2
        assert sp.kernel() == []

    def test_zero(self):
        sp = span(3, [[0, 0], [0, 0]], 2)
        assert sp.dim == 0
        assert sp.kernel() == [(1, 0), (0, 1)]

    def test_extension_kernel(self):
        # over GF(p^2) through the field-generic predecessor of the kernel
        f = make_ext_field(3, 0, 2)
        sp = gg.span(f, [[(1, 0), (0, 1)]], 2)  # row (1, mu)
        assert sp.dim == 1
        assert sp.kernel() == [((0, 2), (1, 0))]  # (-mu, 1) = (2mu, 1)

    @pytest.mark.parametrize("p", PRIMES)
    def test_idempotent_and_rank_nullity(self, p):
        # over GF(p^2) through the field-generic predecessor of the kernel
        f = _field(p)
        rng = random.Random(777 + p)
        elems = list(f.elements())
        for _ in range(25):
            rows = [[rng.choice(elems) for _ in range(4)] for _ in range(3)]
            sp = gg.span(f, rows, 4)
            assert gg.span(f, sp.basis(), 4).basis() == sp.basis()
            assert sp.dim + len(sp.kernel()) == 4
            # kernel rows really are in the kernel
            for k in sp.kernel():
                img = [f.zero] * len(rows)
                for i, row in enumerate(rows):
                    acc = f.zero
                    for x, y in zip(row, k):
                        acc = f.add(acc, f.mul(x, y))
                    img[i] = acc
                assert all(f.is_zero(x) for x in img)


class TestRowSpace:
    def test_canonical_under_insertion_order(self):
        rng = random.Random(12)
        vecs = [[rng.randrange(5) for _ in range(4)] for _ in range(5)]
        a = RowSpace(5, 4)
        b = RowSpace(5, 4)
        for v in vecs:
            a.insert(v)
        for v in reversed(vecs):
            b.insert(v)
        assert a.basis() == b.basis()

    def test_contains(self):
        sp = RowSpace(3, 3)
        sp.insert([1, 2, 0])
        sp.insert([0, 1, 1])
        assert sp.contains([1, 0, 1])  # (1,2,0) - 2*(0,1,1) = (1,0,-2) = (1,0,1)
        assert not sp.contains([0, 0, 1])


# -- the solve kernel against exhaustive enumeration ---------------------------

# The enumeration runs on the field protocol of ``generic_gf.BaseField``; the
# GF(p) cases check the tests' kernel (``int_kernel``: ``span``, ``solve``
# and the readers of its ``RowSpace``), GF(3^2) its field-generic
# predecessor.
KERNEL_FIELDS = {
    "GF(2)": gg.BaseField(2),
    "GF(3)": gg.BaseField(3),
    "GF(5)": gg.BaseField(5),
    "GF(3^2)": make_ext_field(3, 0, 2),
}


def _kernel(field):
    """(scalars, span, solve) of the kernel under test for a KERNEL_FIELDS entry."""
    if isinstance(field, gg.BaseField):
        return field.p, span, solve
    return field, gg.span, gg.solve


def _combination(field, coeffs, rows):
    out = [field.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [field.add(o, field.mul(c, x)) for o, x in zip(out, row)]
    return out


def _coords_by_enumeration(field, rows, vec):
    """Every c with c . rows = vec, found by trying all |F|^n coefficient vectors.

    For two rows this is the p^2 pair loop once used to solve vec = a*X + b*Y.
    """
    vec = [field.coerce(x) for x in vec]
    return [
        list(c)
        for c in itertools.product(list(field.elements()), repeat=len(rows))
        if _combination(field, c, rows) == vec
    ]


def _independent_rows(field, rng, n, ncols):
    elems = list(field.elements())
    while True:
        rows = [[rng.choice(elems) for _ in range(ncols)] for _ in range(n)]
        zero = [field.zero] * ncols
        if _coords_by_enumeration(field, rows, zero) == [[field.zero] * n]:
            return rows


class TestSolveKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_solve_matches_enumeration(self, name):
        field = KERNEL_FIELDS[name]
        scalars, _, solve_ = _kernel(field)
        rng = random.Random(f"solve-{name}")
        elems = list(field.elements())
        outside = 0
        for _ in range(30):
            n = rng.randint(1, 3)
            ncols = rng.randint(n, 4)
            rows = _independent_rows(field, rng, n, ncols)
            inside = _combination(field, [rng.choice(elems) for _ in range(n)], rows)
            random_vec = [rng.choice(elems) for _ in range(ncols)]
            for vec in (inside, random_vec):
                found = _coords_by_enumeration(field, rows, vec)
                if found:
                    assert [solve_(scalars, rows, vec)] == found
                else:
                    outside += 1
                    with pytest.raises(ValueError):
                        solve_(scalars, rows, vec)
        assert outside > 0

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_pivot_coords_match_enumeration(self, name):
        field = KERNEL_FIELDS[name]
        scalars, span_, _ = _kernel(field)
        rng = random.Random(f"coords-{name}")
        elems = list(field.elements())
        outside = 0
        for _ in range(30):
            n = rng.randint(1, 3)
            ncols = rng.randint(n, 4)
            sp = span_(scalars, _independent_rows(field, rng, n, ncols), ncols)
            basis = [list(r) for r in sp.basis()]
            inside = _combination(field, [rng.choice(elems) for _ in range(n)], basis)
            random_vec = [rng.choice(elems) for _ in range(ncols)]
            for vec in (inside, random_vec):
                found = _coords_by_enumeration(field, basis, vec)
                if found:
                    assert [sp.coords(vec)] == found
                else:
                    outside += 1
                    with pytest.raises(ValueError):
                        sp.coords(vec)
        assert outside > 0

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_dependent_rows_rejected(self, name):
        field = KERNEL_FIELDS[name]
        scalars, _, solve_ = _kernel(field)
        row = [field.one, field.zero, field.one]
        with pytest.raises(ValueError):
            solve_(scalars, [row, row], row)

    @pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
    def test_inverse_times_matrix_is_identity(self, name):
        # an inverse is one solve per unit row, as in the endomorphism solver
        field = KERNEL_FIELDS[name]
        scalars, _, solve_ = _kernel(field)
        rng = random.Random(f"inverse-{name}")
        for _ in range(20):
            n = rng.randint(1, 3)
            rows = _independent_rows(field, rng, n, n)
            ident = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
            inv = [solve_(scalars, rows, unit) for unit in ident]
            assert [_combination(field, row, rows) for row in inv] == ident


def _roots_by_enumeration(field, c2, c1, c0):
    return [
        t for t in field.elements()
        if field.is_zero(field.add(field.add(field.mul(c2, field.mul(t, t)), field.mul(c1, t)), c0))
    ]


# every irreducible t^2 - u*t - v over GF(3), and two over GF(5) and GF(7)
ROOT_FIELDS = {
    "4": (2, 1, 1),
    "9_u0v2": (3, 0, 2),
    "9_u1v1": (3, 1, 1),
    "9_u2v1": (3, 2, 1),
    "25_u0v2": (5, 0, 2),
    "25_u1v3": (5, 1, 3),
    "49_u0v3": (7, 0, 3),
    "49_u1v4": (7, 1, 4),
}


class TestRoots:
    @pytest.mark.parametrize("name", sorted(ROOT_FIELDS))
    def test_sqrt_matches_enumeration(self, name):
        field = make_ext_field(*ROOT_FIELDS[name])
        squares = {field.mul(e, e) for e in field.elements()}
        for a in field.elements():
            root = field.sqrt(a)
            assert (root is not None) == (a in squares) == field.is_square(a), a
            if root is not None:
                assert field.mul(root, root) == a

    @pytest.mark.parametrize("name", sorted(ROOT_FIELDS))
    def test_quadratic_roots_match_enumeration(self, name):
        """Every triple over GF(4) and GF(9); 2,000 seeded ones over GF(25), GF(49)."""
        field = make_ext_field(*ROOT_FIELDS[name])
        elems = list(field.elements())
        if field.p <= 3:
            triples = itertools.product(elems, repeat=3)
        else:
            rng = random.Random(f"roots-{name}")
            triples = ([rng.choice(elems) for _ in range(3)] for _ in range(2000))
        counts = set()
        for c2, c1, c0 in triples:
            if all(field.is_zero(c) for c in (c2, c1, c0)):
                with pytest.raises(ValueError):
                    field.quadratic_roots(c2, c1, c0)
                continue
            roots = field.quadratic_roots(c2, c1, c0)
            assert roots == _roots_by_enumeration(field, c2, c1, c0), (c2, c1, c0)
            counts.add(len(roots))
        assert counts == {0, 1, 2}

    def test_large_prime(self):
        """At p = 1000003 every root is one, and there is none exactly when
        the norm of the discriminant is a non-residue mod p."""
        field = make_ext_field(1000003, 0, 2)
        p = field.p
        rng = random.Random("roots-large")

        def elem():
            return (rng.randrange(p), rng.randrange(p))

        def value(c2, c1, c0, t):
            return field.add(field.add(field.mul(c2, field.mul(t, t)), field.mul(c1, t)), c0)

        rootless = 0
        for _ in range(300):
            c2, c1, c0 = elem(), elem(), elem()
            if field.is_zero(c2):
                continue
            roots = field.quadratic_roots(c2, c1, c0)
            disc = field.sub(field.mul(c1, c1), field.scale(4, field.mul(c2, c0)))
            nonresidue = pow(field.norm(disc), (p - 1) // 2, p) == p - 1
            assert (roots == []) == nonresidue
            rootless += nonresidue
            assert all(field.is_zero(value(c2, c1, c0, t)) for t in roots)
            assert roots == sorted(set(roots), key=field.key)
        assert 0 < rootless < 300
        # (t - r)(t - s) and (t - r)^2 for chosen r, s
        r, s = elem(), elem()
        c1 = field.neg(field.add(r, s))
        assert field.quadratic_roots(field.one, c1, field.mul(r, s)) == sorted({r, s}, key=field.key)
        assert field.quadratic_roots(field.one, field.scale(2, field.neg(r)), field.mul(r, r)) == [r]
