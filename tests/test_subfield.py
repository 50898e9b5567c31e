"""Subalgebra generation, classification, verifiers, normal form, scan.

The verifiers, the normal form and the line criterion are the test
oracles of ``paper_checks``; the rest is the package.
"""

import itertools
import random

import pytest

import paper_checks as pc
from int_kernel import RowSpace, combine
from paper_checks import WindowTooLargeForBruteForce
from thinlie import maxclass as mc
from thinlie import subfield as sf
from thinlie.errors import NotStandardForm, WindowTooLarge
from thinlie.gf import ExtField, make_ext_field


class TestGenerate:
    def test_thin_pair_bottom(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, thin_pair_f9, 12)
        # [Y, X] = -mu*v_2 + (mu+1)*v_2 = v_2
        assert pc.basis(an, 2) == ((1, 0),)
        assert an.dim(2) == 1
        # [v_2, X] = v_3, [v_2, Y] = mu*v_3
        assert pc.basis(an, 3) == ((1, 0), (0, 1))
        assert an.dim(3) == 2
        assert an.verdict.kind == "thin"

    def test_x_y_pair(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, maximal_pair, 12)
        assert all(an.dim(i) == 1 for i in range(2, 13))
        assert all(pc.basis(an, i) == ((1, 0),) for i in range(2, 13))
        assert an.verdict.kind == "maximal"

    def test_degenerate(self, f9):
        m = mc.make_metabelian(f9, 12)
        g = sf.GeneratorPair(((1, 0), (0, 0)), ((0, 1), (0, 0)))  # Y = mu*X
        an = sf.generate_subalgebra(m, g, 12)
        assert an.verdict.kind == "degenerate"
        assert an.dims[0] == 2 and all(d == 0 for d in an.dims[1:])

    def test_window_gate(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        from thinlie.errors import BadBound

        with pytest.raises(BadBound):
            sf.generate_subalgebra(m, thin_pair_f9, 13)


class TestDSequence:
    def test_thin_pair_zero(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        assert set(sf.generate_subalgebra(m, thin_pair_f9, 12).d) == {0}

    def test_x_y_ones(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 12)
        assert set(sf.generate_subalgebra(m, maximal_pair, 12).d) == {1}

    def test_rc_pair_zeros_at_deviations(self, dev9_14, rc_pair):
        d = sf.generate_subalgebra(dev9_14, rc_pair, 14).d
        devs = mc.two_step_centralizers(dev9_14).deviations()
        zeros = [i for i, v in zip(range(2, 14), d) if v == 0]
        assert zeros == devs == [6, 9, 12]

    def test_degenerate_has_none(self, f9):
        m = mc.make_metabelian(f9, 12)
        g = sf.GeneratorPair(((1, 0), (0, 0)), ((0, 1), (0, 0)))
        an = sf.generate_subalgebra(m, g, 12)
        assert an.d is None
        assert an.verdict.kind == "degenerate"

    def test_generate_computes_centralizers_once(self, monkeypatch, dev9_14, rc_pair):
        calls = []
        real = sf.two_step_centralizers

        def counting(pres):
            calls.append(pres)
            return real(pres)

        monkeypatch.setattr(sf, "two_step_centralizers", counting)
        an = sf.generate_subalgebra(dev9_14, rc_pair, 14)
        assert len(calls) == 1
        assert [i for i, x in zip(range(2, 14), an.d) if x == 0] == [6, 9, 12]

    def test_one_span_per_point(self, f9, thin_pair_f9, dev9_14, rc_pair):
        """d is one F-determinant per distinct point, one key entry each; the
        module has no row elimination to call."""
        assert not hasattr(sf, "span") and not hasattr(sf, "RowSpace")
        m = mc.make_metabelian(f9, 40)  # 38 degrees, all at the point Ey
        amb = sf._Ambient(m, 40)
        assert sf._d_key(amb, thin_pair_f9) == (0,)
        assert sf._d_values(amb, thin_pair_f9) == (0,) * 38
        amb = sf._Ambient(dev9_14, 14)
        assert len(sf._d_key(amb, rc_pair)) == 2  # the points Ey and Ex
        d = sf._d_values(amb, rc_pair)
        assert [i for i, x in zip(range(2, 14), d) if x == 0] == [6, 9, 12]


class TestClassify:
    def test_rc_structure(self, dev9_14, rc_pair):
        an = sf.generate_subalgebra(dev9_14, rc_pair, 14)
        v = an.verdict
        assert v.kind == "rconstrained"
        assert v.t1 == 6
        assert v.r_observed == 3  # max successive gap in {6, 9, 12}
        assert 2 <= v.r_observed <= v.t1  # 2 <= 3 <= 6
        # dims are 1 up to t_1 and 2 afterwards
        assert all(an.dim(i) == 1 for i in range(2, 7))
        assert all(an.dim(i) == 2 for i in range(7, 15))


class TestCovering:
    def test_thin_ok(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, thin_pair_f9, 12)
        assert pc.verify_covering(an).ok

    def test_maximal_ok(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, maximal_pair, 12)
        assert pc.verify_covering(an).ok

    def test_rc_fails_past_t1(self, dev9_14, rc_pair):
        an = sf.generate_subalgebra(dev9_14, rc_pair, 14)
        report = pc.verify_covering(an)
        assert not report.ok
        degree, _ = report.first_failure
        # first degree with d_i = 1 and a 2-dimensional next component
        assert degree == 7


class TestIdealSandwich:
    def test_thin_r1(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, thin_pair_f9, 12)
        assert pc.verify_ideal_sandwich(an, 1).ok

    def test_maximal_r1(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, maximal_pair, 12)
        assert pc.verify_ideal_sandwich(an, 1).ok

    def test_rc_at_r_and_below(self, dev9_14, rc_pair):
        an = sf.generate_subalgebra(dev9_14, rc_pair, 14)
        r = an.verdict.r_observed
        assert pc.verify_ideal_sandwich(an, r).ok
        below = pc.verify_ideal_sandwich(an, r - 1)
        assert not below.ok
        degree, _, missing = below.witness
        assert degree == an.verdict.t1 + 1  # t_{j0-1} + 1 with j0 the first max gap
        assert missing == 9

    def test_closure_stable_under_all_brackets(self, f9, thin_pair_f9):
        # completeness of the generator-only closure, checked on a small case
        m = mc.make_metabelian(f9, 8)
        an = sf.generate_subalgebra(m, thin_pair_f9, 8)
        spans = pc.ideal_closure(an, 3, pc.basis(an, 3)[0])
        for h in range(3, 9):
            for vec in spans[h].basis():
                for dg in range(1, 9 - h):
                    for other in pc.basis(an, dg):
                        img = pc.bracket_vec(m, h, vec, dg, other)
                        assert spans[h + dg].contains(img)


class TestNormalize:
    def test_fixed_point(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        res = pc.normalize_generators(m, thin_pair_f9)
        assert res.complete
        assert res.pair == thin_pair_f9  # already X = x+y, Y = mu x + (mu+1) y
        assert res.presentation == m

    def test_scaled_pair_same_normal_form(self, f9, thin_pair_f9):
        # X = mu x + mu y, Y = mu^2 x + (mu^2 + mu) y; mu^2 = 2
        m = mc.make_metabelian(f9, 12)
        g = sf.GeneratorPair(((0, 1), (0, 1)), ((2, 0), (2, 1)))
        res = pc.normalize_generators(m, g)
        assert res.complete
        assert res.pair == thin_pair_f9
        assert res.presentation == m

    def test_d_sequence_invariant(self, f9, dev9_12):
        rng = random.Random(2024)
        elems = list(f9.elements())
        done = 0
        while done < 50:
            g = sf.GeneratorPair(
                (rng.choice(elems), rng.choice(elems)),
                (rng.choice(elems), rng.choice(elems)),
            )
            if g.is_degenerate(f9):
                continue
            res = pc.normalize_generators(dev9_12, g)
            if not res.complete:
                continue
            before = sf.generate_subalgebra(dev9_12, g, 12).d
            after = sf.generate_subalgebra(res.presentation, res.pair, 12).d
            assert before == after
            done += 1

    def test_partial_flags(self, f9):
        m = mc.make_metabelian(f9, 12)
        in_ey = sf.GeneratorPair(((0, 0), (1, 0)), ((1, 0), (0, 1)))  # X = y
        res = pc.normalize_generators(m, in_ey)
        assert not res.complete and "alpha" in res.note
        beta_zero = sf.GeneratorPair(((1, 0), (0, 0)), ((0, 1), (1, 0)))  # X = x
        res = pc.normalize_generators(m, beta_zero)
        assert not res.complete and "beta" in res.note


class TestLineCriterion:
    def test_metabelian_thin_pair(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 12)
        res = pc.thin_line_criterion(m, thin_pair_f9, 12)
        assert res.script_l == ()
        assert res.ey_occurs and res.ey_condition
        assert res.avoided
        assert len(res.visible) == f9.p + 1  # injective image of the projective line

    def test_x_y_not_avoided(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 12)
        res = pc.thin_line_criterion(m, maximal_pair, 12)
        assert not res.ey_condition
        assert not res.avoided

    def test_deviating_example(self, f9, dev9_12):
        # script_l = {0}; X = x + mu y with a delta avoiding it
        g = sf.GeneratorPair(((1, 0), (0, 1)), ((0, 1), (1, 1)))
        res = pc.thin_line_criterion(dev9_12, g, 12)
        assert res.script_l == ((0, 0),)
        assert res.avoided
        an = sf.generate_subalgebra(dev9_12, g, 12)
        assert an.verdict.kind == "thin"

    def test_affine_line_is_a_diagnostic_only(self, f9, dev9_12):
        # the affine line through beta and delta/mu is provably different
        # from the visible lambda set; this pair separates them
        g = sf.GeneratorPair(((1, 0), (1, 0)), ((0, 1), (0, 2)))  # beta=1, delta=2mu
        res = pc.thin_line_criterion(dev9_12, g, 12)
        assert len(res.affine_line) == 3  # |F| points on a genuine line
        assert (0, 0) in res.affine_line  # the naive line hits lambda = 0
        assert (0, 0) not in res.visible  # but the pair avoids the centralizer
        assert res.avoided
        assert sf.generate_subalgebra(dev9_12, g, 12).verdict.kind == "thin"

    def test_contract_with_classify(self, f9, dev9_12):
        for g in pc.normalized_pairs(f9):
            if g.is_degenerate(f9):
                continue
            res = pc.thin_line_criterion(dev9_12, g, 12)
            verdict = sf.generate_subalgebra(dev9_12, g, 12).verdict
            assert res.avoided == (verdict.kind == "thin")

    def test_requires_standard_form(self, f9, thin_pair_f9):
        pairs = tuple(((0, 0), (1, 0)) for _ in range(8))
        swapped = mc.MaxClassPresentation(f9, 10, pairs)
        with pytest.raises(NotStandardForm):
            pc.thin_line_criterion(swapped, thin_pair_f9)


class TestScan:
    def test_metabelian_f9(self, f9):
        m = mc.make_metabelian(f9, 12)
        t = sf.scan(m, 12)
        assert t.counts["thin"] == 72 and t.counts["degenerate"] == 9
        assert t.agree

    def test_metabelian_f4(self, f4):
        m = mc.make_metabelian(f4, 12)
        t = sf.scan(m, 12)
        assert t.counts["thin"] == 12 and t.counts["degenerate"] == 4
        assert t.agree

    def test_deviating_strictly_smaller(self, f9, dev9_12):
        t_met = sf.scan(mc.make_metabelian(f9, 12), 12)
        t_dev = sf.scan(dev9_12, 12)
        assert t_dev.agree
        assert t_dev.counts["thin"] < t_met.counts["thin"]

    def test_budget_covers_existing_scans(self):
        # (p, raw, window): the largest scans of the tests and the benchmark;
        # a raw scan is charged for the (p^2 + 1)(p^2 + p + 1) F-planes
        scans = ((5, False, 40), (7, False, 20), (5, False, 14), (3, True, 14), (5, True, 6))
        for p, raw, window in scans:
            cost = (p * p + 1) * (p * p + p + 1) if raw else p**4
            assert cost * window <= sf.SCAN_BUDGET
        m = mc.make_metabelian(make_ext_field(11, 0, 10), 13)
        assert sf.SCAN_BUDGET // 16226 + 1 == 13
        with pytest.raises(WindowTooLarge, match="scan of 16226 planes x window 13"):
            sf.scan(m, 13, raw=True)

    def test_raw_f25_within_budget(self, f25):
        # 806 planes x 6 fit the budget; 390624 pairs x 6 would not
        t = sf.scan(mc.make_metabelian(f25, 6), 6, raw=True)
        q = 25
        assert t.total == q**4 - 1
        assert t.counts["degenerate"] == q**4 - (q * q - 1) * (q * q - q) - 1 == 16224

    def test_raw_dev9_14_pinned(self, f9, dev9_14):
        # the raw counts recorded at the seed commit, where every pair was
        # generated; thin planes are those the line criterion accepts
        t = sf.scan(dev9_14, 14, raw=True)
        assert t.total == 9**4 - 1
        assert t.counts == {"thin": 1920, "maximal": 768, "rconstrained": 3072, "degenerate": 800}
        assert t.rconstrained_gaps == {"2": 1536, "3": 1536}
        assert t.thin_by_lines is None and t.agree is None
        avoiding = sum(
            1
            for g in pc.f_planes(f9)
            if not g.is_degenerate(f9) and pc.thin_line_criterion(dev9_14, g, 14).avoided
        )
        assert t.counts["thin"] == (3**2 - 1) * (3**2 - 3) * avoiding

    def test_classifies_once_per_key(self, monkeypatch, f9, dev9_14):
        calls = []
        real = sf._classify

        def counting(d, window):
            calls.append(tuple(d))
            return real(d, window)

        monkeypatch.setattr(sf, "_classify", counting)
        t = sf.scan(mc.make_metabelian(f9, 40), 40)  # every normalized pair has key (0,)
        assert calls == [(0,) * 38]
        assert t.counts["thin"] == 72
        del calls[:]
        sf.scan(dev9_14, 14, raw=True)
        amb = sf._Ambient(dev9_14, 14)
        keys = {sf._d_key(amb, g) for g in pc.f_planes(f9) if not g.is_degenerate(f9)}
        assert 1 < len(calls) <= len(keys)

    @pytest.mark.parametrize("raw", [False, True], ids=["normalized", "raw"])
    def test_one_centralizer_pass(self, monkeypatch, dev9_14, raw):
        """The standard-form check, the ambient and the line count share
        one centralizer sequence; both module bindings are spied on."""
        calls = []
        real = mc.two_step_centralizers

        def counting(pres):
            calls.append(pres)
            return real(pres)

        monkeypatch.setattr(mc, "two_step_centralizers", counting)
        monkeypatch.setattr(sf, "two_step_centralizers", counting)
        t = sf.scan(dev9_14, 14, raw=raw)
        assert len(calls) == 1
        assert t.agree is (None if raw else True)

    def test_raw_mode_cross_validation(self, f4):
        # on the metabelian algebra a raw pair is thin iff the x-parts of the
        # generators are F-independent; count that combinatorially
        m = mc.make_metabelian(f4, 6)
        t = sf.scan(m, 6, raw=True)
        expected = 0
        for g in pc.raw_pairs(f4):
            if g.is_degenerate(f4):
                continue
            if sf._f_independent(f4, g.X[0], g.Y[0]):
                expected += 1
        assert t.counts["thin"] == expected


class TestCentralizerStructure:
    """Structural facts about C_i inside L, on random samples."""

    def test_items(self, f9, dev9_12):
        rng = random.Random(7)
        elems = list(f9.elements())
        presentations = [mc.make_metabelian(f9, 12), dev9_12]
        checked = 0
        while checked < 40:
            pres = rng.choice(presentations)
            g = sf.GeneratorPair(
                (rng.choice(elems), rng.choice(elems)),
                (rng.choice(elems), rng.choice(elems)),
            )
            if g.is_degenerate(f9):
                continue
            an = sf.generate_subalgebra(pres, g, 12)
            assert an.dim(2) == 1  # item 1
            for i in range(2, 12):
                assert an.dim(i + 1) >= an.dim(i)  # item 2
            assert all(v <= 1 for v in an.d)  # item 3
            i = rng.randrange(2, 11)
            d_i = an.d_at(i)
            for coeffs in itertools.product(range(3), repeat=an.dim(i)):
                if not any(coeffs):
                    continue
                vec = combine(f9.p, coeffs, pc.basis(an, i))
                img = RowSpace(f9.p, 2)
                img.insert(pc.ad_gen(pres, i, vec, g.X))
                img.insert(pc.ad_gen(pres, i, vec, g.Y))
                assert img.dim == 2 - d_i  # items 4 and 5
            checked += 1


class TestBruteForceGuard:
    def test_guard_raises(self, f9, thin_pair_f9, monkeypatch):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, thin_pair_f9, 12)
        monkeypatch.setattr(pc, "BRUTE_FORCE_LIMIT", 10)
        with pytest.raises(WindowTooLargeForBruteForce):
            pc.verify_covering(an)

    # At p = 1000003 the enumerations below would run for seconds or
    # exhaust memory, so each is patched to fail the test instead.
    P = 1000003

    def _big(self):
        return mc.make_metabelian(make_ext_field(self.P, 0, self.P - 1), 6)

    def test_line_criterion_refuses_large_p(self, monkeypatch, thin_pair_f9):
        def refuse(field, g):
            raise AssertionError("criterion enumerated P^1(F) before checking its budget")

        monkeypatch.setattr(pc, "visible_lambdas", refuse)
        with pytest.raises(WindowTooLargeForBruteForce, match=f"{self.P + 1} points"):
            pc.thin_line_criterion(self._big(), thin_pair_f9)

    def test_line_count_refuses_over_scan_budget(self, monkeypatch):
        def refuse(field):
            raise AssertionError("line count enumerated E before checking its budget")

        monkeypatch.setattr(ExtField, "elements", refuse)
        q = self.P**2
        with pytest.raises(WindowTooLarge, match=f"scan of {q * q} pairs x window 6"):
            sf.count_thin_by_line_avoidance(self._big())
