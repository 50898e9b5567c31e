"""Degree-0 endomorphism rings: the closed form, the ring solve, actions.

``endo.identify_field`` reads its report off dim L_3 and (p, u, v).  The
ring behind it is the bottom-degree solve of ``paper_checks``
(``compute_grend0``, ``identify_field_of_ring``), whose report must be
the package's; the tests of its action on every degree read the
per-degree matrices of the propagated ring
(``paper_checks.propagated_grend0``), whose basis, identity and table the
``thin_prop`` fixture checks against the bottom-degree solve's.
"""

import itertools
import random

import pytest

import paper_checks as pc
from paper_checks import DimensionAnomaly
from paper_checks import express
from thinlie import endo
from thinlie import maxclass as mc
from thinlie import subfield as sf
from thinlie.gf import make_ext_field, quadratic_is_irreducible


@pytest.fixture(scope="module")
def thin_ring(f9, thin_pair_f9):
    m = mc.make_metabelian(f9, 12)
    an = sf.generate_subalgebra(m, thin_pair_f9, 12)
    return pc.compute_grend0(an)


@pytest.fixture(scope="module")
def thin_prop(thin_ring):
    prop = pc.propagated_grend0(thin_ring.analysis)
    assert pc.ring_fields(prop) == pc.ring_fields(thin_ring)
    return prop


@pytest.fixture(scope="module")
def thin_fid(thin_ring):
    fid = pc.identify_field_of_ring(thin_ring)
    assert endo.identify_field(thin_ring.analysis) == fid.report()
    return fid


class TestComputeGrend0:
    def test_thin_dimension_two(self, thin_ring):
        assert thin_ring.dim == 2

    def test_thin_min_poly(self, thin_fid):
        # the quadratic extension with mu^2 = 2 reappears: t^2 - 2 = t^2 + 1 mod 3
        assert thin_fid.dim == 2
        assert thin_fid.min_poly == (1, 0, 1)

    def test_maximal_dimension_one(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, maximal_pair, 12)
        ring = pc.compute_grend0(an)
        assert ring.dim == 1
        fid = endo.identify_field(an)
        assert fid.dim == 1 and fid.embedding == "n/a" and fid.min_poly is None
        assert pc.identify_field_of_ring(ring).report() == fid

    def test_rconstrained_dimension_one(self, dev9_14, rc_pair):
        an = sf.generate_subalgebra(dev9_14, rc_pair, 14)
        assert pc.compute_grend0(an).dim == endo.identify_field(an).dim == 1

    def test_identity_is_a_solution(self, thin_ring):
        d = thin_ring.analysis.dim(pc.K0)
        ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        flat = tuple(x for row in ident for x in row)
        assert thin_ring.element_flat(thin_ring.identity) == flat

    def test_identity_propagates_to_identity(self, thin_ring, thin_prop):
        for deg in range(3, 13):
            mat = thin_prop.matrix_at(thin_ring.identity, deg)
            n = len(mat)
            assert mat == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class TestClosedForm:
    def test_embedding_is_mu_iff_2v_below_p(self):
        """On every irreducible t^2 - u*t - v with p <= 13, the ring solve
        has the canonical kernel (-u/v, 1/v, 1, 0), (1, 0, 0, 1), the
        identity (0, 1), the generator e0 acting as sigma = (mu - u)/v and
        the root mu_hat = (v, u); so the embedding is "mu" exactly when
        2v < p, and the report is the package's closed form."""
        pair = sf.GeneratorPair(((1, 0), (1, 0)), ((0, 1), (1, 1)))
        fields = 0
        for p in (2, 3, 5, 7, 11, 13):
            for u, v in itertools.product(range(p), repeat=2):
                if not quadratic_is_irreducible(p, u, v):
                    continue
                F = make_ext_field(p, u, v)
                an = sf.generate_subalgebra(mc.make_metabelian(F, 4), pair)
                assert an.dim(3) == 2
                ring = pc.compute_grend0(an)
                fid = pc.identify_field_of_ring(ring)
                inv_v = pow(v, p - 2, p)
                assert ring.basis == ((-u * inv_v % p, inv_v, 1, 0), (1, 0, 0, 1))
                assert ring.identity == (0, 1) and fid.generator == (1, 0)
                assert fid.sigma == F.scale(inv_v, F.sub(F.mu, (u, 0)))
                assert fid.mu_hat == (v, u)
                assert fid.embedding == ("mu" if 2 * v < p else "mu_conj")
                assert endo.identify_field(an) == fid.report()
                fields += 1
        assert fields == sum((p * p - p) // 2 for p in (2, 3, 5, 7, 11, 13)) == 168


class TestRingAxioms:
    def test_commutative_table(self, thin_ring):
        for i in range(thin_ring.dim):
            for j in range(thin_ring.dim):
                assert thin_ring.mult_table[i][j] == thin_ring.mult_table[j][i]

    def test_associative_on_basis(self, thin_ring):
        units = [tuple(1 if t == k else 0 for t in range(thin_ring.dim))
                 for k in range(thin_ring.dim)]
        for a, b, c in itertools.product(units, repeat=3):
            left = thin_ring.compose(thin_ring.compose(a, b), c)
            right = thin_ring.compose(a, thin_ring.compose(b, c))
            assert left == right

    def test_scalars_are_central(self, thin_ring):
        two_id = tuple((2 * c) % 3 for c in thin_ring.identity)
        for k in range(thin_ring.dim):
            e = tuple(1 if t == k else 0 for t in range(thin_ring.dim))
            assert thin_ring.compose(two_id, e) == thin_ring.compose(e, two_id)


class TestSchur:
    def test_every_nonzero_element_invertible_everywhere(self, thin_ring, thin_prop):
        p = thin_ring.field.p
        for coords in itertools.product(range(p), repeat=thin_ring.dim):
            if not any(coords):
                continue
            for deg in range(3, 13):
                mat = thin_prop.matrix_at(coords, deg)
                det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
                assert det % p != 0


class TestScalarAction:
    def test_identity_action(self, thin_ring, thin_prop):
        an = thin_ring.analysis
        for deg in range(3, 13):
            for r in range(an.dim(deg)):
                v = tuple(1 if t == r else 0 for t in range(an.dim(deg)))
                assert pc.scalar_action(thin_prop, thin_ring.identity, deg, v) == v

    def test_mu_hat_matches_ambient_mu(self, thin_ring, thin_prop, thin_fid, f9):
        an = thin_ring.analysis
        for deg in range(3, 13):
            for row in pc.basis(an, deg):
                coords = express(an, deg, row)
                img = pc.scalar_action(thin_prop, thin_fid.mu_hat, deg, coords)
                amb = [0, 0]
                for c, r in zip(img, pc.basis(an, deg)):
                    amb[0] = (amb[0] + c * r[0]) % 3
                    amb[1] = (amb[1] + c * r[1]) % 3
                assert tuple(amb) == f9.mul(f9.mu, (row[0], row[1]))

    def test_root_check_refuses_a_wrong_scalar(self, thin_ring, f9, monkeypatch):
        # mu_hat is solved from the scalar of the generator; one composition
        # confirms it squares like mu, so a scalar off by one is caught
        scalar = pc._scalar_of_action
        monkeypatch.setattr(
            pc, "_scalar_of_action", lambda ring, e: f9.add(scalar(ring, e), f9.one)
        )
        with pytest.raises(DimensionAnomaly, match="not a root"):
            pc.identify_field_of_ring(thin_ring)

    def test_generator_acts_by_sigma(self, thin_ring, thin_prop, thin_fid, f9):
        # sigma-consistency: the scalar is the same in every degree
        an = thin_ring.analysis
        sig = thin_fid.sigma
        assert sig in (f9.mu, f9.conj(f9.mu))
        for deg in range(3, 13):
            row = pc.basis(an, deg)[0]
            img = pc.scalar_action(
                thin_prop, thin_fid.generator, deg, express(an, deg, row)
            )
            amb = [0, 0]
            for c, r in zip(img, pc.basis(an, deg)):
                amb[0] = (amb[0] + c * r[0]) % 3
                amb[1] = (amb[1] + c * r[1]) % 3
            assert tuple(amb) == f9.mul(sig, (row[0], row[1]))

    def test_reproduces_extension_multiplication(self, thin_ring, thin_prop, thin_fid, f9):
        # (identify_field, scalar_action) == multiplication in the extension
        rng = random.Random(5)
        an = thin_ring.analysis
        one = thin_ring.identity
        mu_hat = thin_fid.mu_hat
        for _ in range(100):
            c0, c1 = rng.randrange(3), rng.randrange(3)
            e_coords = tuple(
                (c0 * a + c1 * b) % 3 for a, b in zip(one, mu_hat)
            )
            deg = rng.randrange(3, 13)
            vec = tuple(rng.randrange(3) for _ in range(an.dim(deg)))
            img = pc.scalar_action(thin_prop, e_coords, deg, vec)
            amb = [0, 0]
            for c, r in zip(vec, pc.basis(an, deg)):
                amb[0] = (amb[0] + c * r[0]) % 3
                amb[1] = (amb[1] + c * r[1]) % 3
            want = f9.mul((c0, c1), (amb[0], amb[1]))
            got = [0, 0]
            for c, r in zip(img, pc.basis(an, deg)):
                got[0] = (got[0] + c * r[0]) % 3
                got[1] = (got[1] + c * r[1]) % 3
            assert tuple(got) == want

    def test_out_of_window(self, thin_ring, thin_prop):
        with pytest.raises(pc.OutOfWindow):
            pc.scalar_action(thin_prop, thin_ring.identity, 13, (0, 0))
        with pytest.raises(pc.OutOfWindow):
            pc.scalar_action(thin_prop, thin_ring.identity, 2, (0, 0))


class TestGrendD:
    def test_thin_d0(self, f9, thin_pair_f9, thin_ring):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, thin_pair_f9, 12)
        g = pc.grend_d_dimension(an, 0)
        assert g.dim == thin_ring.dim == 2
        assert g.bound == 2 and g.bound_ok

    def test_maximal_d0(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, maximal_pair, 12)
        g = pc.grend_d_dimension(an, 0)
        assert g.dim == 1 and g.bound == 1

    def test_thin_d1_within_bound(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, thin_pair_f9, 12)
        g = pc.grend_d_dimension(an, 1)
        assert g.bound == 2
        assert g.bound_ok

    def test_out_of_window(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, thin_pair_f9, 12)
        with pytest.raises(pc.OutOfWindow):
            pc.grend_d_dimension(an, 10)
