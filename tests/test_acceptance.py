"""Acceptance suite: one test per criterion, exact checks, timed.

All arithmetic is exact, so every comparison below is equality of
canonical forms; the only tolerances are the stated runtime budgets.
Each test prints one PASS line (visible with pytest -s or in the captured
output); a failed assertion marks the criterion FAIL.
"""

import time

import pytest

import paper_checks as pc
from int_kernel import combine
from thinlie import endo
from thinlie import maxclass as mc
from thinlie import reconstruct as rec
from thinlie import subfield as sf
from thinlie.gf import make_ext_field

from test_reconstruct import centralizers_match


class _Timer:
    def __init__(self, name, limit):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name} ({elapsed:.2f}s < {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name}: runtime {elapsed:.2f}s exceeds {self.limit}s"
            )


@pytest.fixture(scope="module")
def met40(f9):
    return mc.make_metabelian(f9, 40)


def test_criterion_1_metabelian_thin_pair(f9, met40, thin_pair_f9):
    with _Timer("criterion 1: metabelian thin pair, class 40", 1.0):
        an = sf.generate_subalgebra(met40, thin_pair_f9, 40)
        assert an.verdict.kind == "thin"
        assert an.dim(2) == 1
        assert all(an.dim(i) == 2 for i in range(3, 41))
        assert pc.verify_covering(an).ok


def test_criterion_2_maximal_class_pair(f9, met40, maximal_pair):
    with _Timer("criterion 2: x,y pair is maximal class, class 40", 1.0):
        an = sf.generate_subalgebra(met40, maximal_pair, 40)
        assert an.verdict.kind == "maximal"
        assert all(v == 1 for v in an.d)
        assert all(an.dim(i) == 1 for i in range(2, 41))


def test_criterion_3_exhaustive_equivalence(f4, f9, dev4_12, dev9_12):
    instances = [
        (f4, mc.make_metabelian(f4, 12)),
        (f4, dev4_12),
        (f9, mc.make_metabelian(f9, 12)),
        (f9, dev9_12),
    ]
    with _Timer("criterion 3: thin <=> covering+dims <=> line criterion", 60.0):
        disagreements = 0
        for field, pres in instances:
            for g in pc.normalized_pairs(field):
                if g.is_degenerate(field):
                    continue
                an = sf.generate_subalgebra(pres, g, 12)
                is_thin = an.verdict.kind == "thin"
                covering = pc.verify_covering(an)
                dims_pattern = an.dim(2) == 1 and all(
                    an.dim(i) == 2 for i in range(3, 13)
                )
                leg2 = covering.ok and dims_pattern
                leg3 = pc.thin_line_criterion(pres, g, 12).avoided
                if not (is_thin == leg2 == leg3):
                    disagreements += 1
        assert disagreements == 0


def test_criterion_4_ideally_r_constrained(dev9_14, rc_pair):
    with _Timer("criterion 4: r-constrained pair with sandwich witnesses", 30.0):
        an = sf.generate_subalgebra(dev9_14, rc_pair, 14)
        v = an.verdict
        assert v.kind == "rconstrained"
        devs = mc.two_step_centralizers(dev9_14).deviations()
        zeros = [i for i in range(2, 14) if an.d_at(i) == 0]
        assert zeros == devs  # d vanishes exactly at the deviation degrees
        t1 = v.t1
        assert all(an.dim(i) == 1 for i in range(2, t1 + 1))
        assert all(an.dim(i) == 2 for i in range(t1 + 1, 15))
        r = v.r_observed
        assert 2 <= r <= t1
        assert pc.verify_ideal_sandwich(an, r).ok
        below = pc.verify_ideal_sandwich(an, r - 1)
        assert not below.ok
        witness_degree = below.witness[0]
        # the first maximal gap is t_2 - t_1, so the witness sits at t_1 + 1
        gaps = [b - a for a, b in zip(zeros, zeros[1:])]
        j0 = gaps.index(r)
        assert witness_degree == zeros[j0] + 1


def test_criterion_5_endomorphism_rings(f4, f9, dev9_14, thin_pair_f9, maximal_pair, rc_pair):
    met9 = mc.make_metabelian(f9, 12)
    met4 = mc.make_metabelian(f4, 12)
    thin_f4 = sf.GeneratorPair(((1, 0), (1, 0)), ((0, 1), (1, 1)))
    cases = [
        ("thin/metabelian GF(9)", met9, thin_pair_f9, 12, 2),
        ("thin/deviating GF(9)", pc.quotient(dev9_14, 12), thin_pair_f9, 12, 2),
        ("thin/metabelian GF(4)", met4, thin_f4, 12, 2),
        ("maximal GF(9)", met9, maximal_pair, 12, 1),
        ("r-constrained GF(9)", dev9_14, rc_pair, 14, 1),
    ]
    for name, pres, pair, window, want_dim in cases:
        with _Timer(f"criterion 5: endomorphism ring [{name}]", 5.0):
            an = sf.generate_subalgebra(pres, pair, window)
            fid = endo.identify_field(an)
            # the ring solve (commutativity inside) agrees with the closed form
            ring = pc.compute_grend0(an)
            assert pc.identify_field_of_ring(ring).report() == fid
            assert ring.dim == want_dim == fid.dim
            if want_dim == 2:
                c0, c1, lead = fid.min_poly
                assert lead == 1
                p = pres.field.p
                assert all((t * t + c1 * t + c0) % p != 0 for t in range(p))
            for shift in (0, 1):
                g = pc.grend_d_dimension(an, shift)
                assert g.bound_ok
                if shift == 0:
                    assert g.dim == ring.dim


def test_criterion_6_roundtrips(f9, met40, dev9_14, thin_pair_f9):
    with _Timer("criterion 6: round trip, metabelian branch", 10.0):
        report = rec.verify_roundtrip(met40, thin_pair_f9, 40)
        assert report.branch == "rho_prime"
        assert report.iso and report.first_failure is None
        assert centralizers_match(met40, thin_pair_f9, 40)
    with _Timer("criterion 6: round trip, non-metabelian branch", 10.0):
        report = rec.verify_roundtrip(dev9_14, thin_pair_f9, 14)
        assert report.branch == "rho"
        assert report.iso and report.first_failure is None
        assert centralizers_match(dev9_14, thin_pair_f9, 14)


def test_criterion_7_structural_invariants(f4, f9, f25, dev4_12, dev9_12, dev25_12):
    import itertools
    import random

    from int_kernel import RowSpace

    pools = {
        2: (f4, [mc.make_metabelian(f4, 12), dev4_12]),
        3: (f9, [mc.make_metabelian(f9, 12), dev9_12]),
        5: (f25, [mc.make_metabelian(f25, 12), dev25_12]),
    }
    rng = random.Random(20250809)
    with _Timer("criterion 7: structural invariants on 200 random samples", 30.0):
        samples = 0
        while samples < 200:
            p = rng.choice([2, 3, 5])
            field, pool = pools[p]
            pres = rng.choice(pool)
            elems = list(field.elements())
            g = sf.GeneratorPair(
                (rng.choice(elems), rng.choice(elems)),
                (rng.choice(elems), rng.choice(elems)),
            )
            if g.is_degenerate(field):
                continue
            degree = rng.randrange(2, 11)
            # adjoint bijectivity between consecutive components: any
            # degree-1 element outside the centralizer multiplies by a
            # nonzero scalar, and F-dimensions of subspaces are preserved
            a, b = pres.pair(degree)
            al, be = rng.choice(elems), rng.choice(elems)
            if not (field.is_zero(al) and field.is_zero(be)):
                coeff = field.add(field.mul(al, a), field.mul(be, b))
                pt = mc.two_step_centralizers(pres).point(degree)
                in_cent = (
                    (field.is_zero(al) and pt == mc.ey_point(field))
                    or (
                        not field.is_zero(al)
                        and pt[0] == field.one
                        and field.div(be, al) == pt[1]
                    )
                )
                assert field.is_zero(coeff) == in_cent
                if not field.is_zero(coeff):
                    vecs = [
                        [rng.randrange(p) for _ in range(2)] for _ in range(2)
                    ]
                    sp = RowSpace(p, 2)
                    img = RowSpace(p, 2)
                    for vv in vecs:
                        sp.insert(vv)
                        img.insert(list(field.mul((vv[0], vv[1]), coeff)))
                    assert sp.dim == img.dim
            an = sf.generate_subalgebra(pres, g, 12)
            assert an.dim(2) == 1
            assert all(an.dim(i + 1) >= an.dim(i) for i in range(2, 12))
            assert all(v <= 1 for v in an.d)
            d_i = an.d_at(degree)
            for coeffs in itertools.product(range(p), repeat=an.dim(degree)):
                if not any(coeffs):
                    continue
                vec = combine(field.p, coeffs, pc.basis(an, degree))
                img = RowSpace(p, 2)
                img.insert(pc.ad_gen(pres, degree, vec, g.X))
                img.insert(pc.ad_gen(pres, degree, vec, g.Y))
                assert img.dim == 2 - d_i
            samples += 1


def test_criterion_8_jacobi_validator(f9, search9_12, search4_12, search25_12):
    with _Timer("criterion 8: Jacobi validator", 10.0):
        for p, u, v in [(2, 1, 1), (3, 0, 2), (5, 0, 2)]:
            field = make_ext_field(p, u, v)
            assert mc.validate(mc.make_metabelian(field, 40)).ok
        pairs = [((1, 0), (0, 0)), ((0, 0), (1, 0)),
                 ((1, 0), (0, 0)), ((1, 0), (0, 0))]
        mutated = mc.MaxClassPresentation(f9, 6, tuple(pairs))
        report = mc.validate(mutated)
        assert not report.ok and report.first_failure == ("v2", "x", "y")
        for found in (search9_12, search4_12, search25_12):
            for pres in found:
                fresh = mc.MaxClassPresentation(
                    pres.field, pres.class_n, pres.adjoint
                )
                assert mc.validate(fresh).ok


def test_criterion_9_scan_consistency(f4, f9, dev9_12):
    with _Timer("criterion 9: scan thin counts agree on both paths", 30.0):
        for pres in (
            mc.make_metabelian(f4, 12),
            mc.make_metabelian(f9, 12),
            dev9_12,
        ):
            table = sf.scan(pres, 12)
            assert table.agree
            assert table.thin_direct == table.thin_by_lines
