"""Presentations, the Jacobi validator, centralizers, and the search oracle."""

import random
import sys
import tracemalloc

import pytest

import dict_structure as ds
import paper_checks as pc
from int_kernel import doubled_rows, span
from thinlie import maxclass as mc
from thinlie import subfield as sf
from thinlie.errors import (
    BadBound,
    InvalidPresentation,
    NotStandardForm,
    SchemaError,
    WindowTooLarge,
    ZeroPair,
)
from thinlie.gf import ExtField, make_ext_field

# F-coordinate vectors (``subfield`` conventions): degree 1 in F^4 over
# (x, mu*x, y, mu*y), higher degrees in F^2 over (v_i, mu*v_i)
X4, MU_X4, Y4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)


def _mutated(f9):
    """(a_2,b_2) = (1,0), (a_3,b_3) = (0,1), rest (1,0), class 6."""
    pairs = [((1, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, 0)), ((1, 0), (0, 0))]
    return mc.MaxClassPresentation(f9, 6, tuple(pairs))


class TestMetabelian:
    def test_pairs_and_centralizers(self, f9):
        m = mc.make_metabelian(f9, 10)
        assert all(pair == (f9.one, f9.zero) for pair in m.adjoint)
        seq = mc.two_step_centralizers(m)
        assert all(pt == mc.ey_point(f9) for pt in seq.points)

    def test_f4(self, f4):
        m = mc.make_metabelian(f4, 6)
        assert all(pair == (f4.one, f4.zero) for pair in m.adjoint)

    def test_v2_y_bracket_zero(self, f9):
        m = mc.make_metabelian(f9, 10)
        assert pc.bracket_vec(m, 2, f9.one, 1, Y4) == f9.zero


class TestValidate:
    @pytest.mark.parametrize("p,u,v", [(2, 1, 1), (3, 0, 2), (5, 0, 2)])
    def test_metabelian_passes(self, p, u, v):
        f = make_ext_field(p, u, v)
        assert mc.validate(mc.make_metabelian(f, 20)).ok

    def test_mutated_fails_at_triple(self, f9):
        report = mc.validate(_mutated(f9))
        assert not report.ok
        assert report.first_failure == ("v2", "x", "y")

    def test_zero_pair(self, f9):
        pairs = [((1, 0), (0, 0))] * 2 + [((0, 0), (0, 0))] + [((1, 0), (0, 0))]
        pres = mc.MaxClassPresentation(f9, 6, tuple(pairs))
        with pytest.raises(ZeroPair):
            mc.validate(pres)

    def test_search_outputs_pass(self, search9_12):
        for pres in search9_12:
            fresh = mc.MaxClassPresentation(pres.field, pres.class_n, pres.adjoint)
            assert mc.validate(fresh).ok

    def test_keeps_two_rows(self, f9):
        """``validate`` holds O(n) cells: at class 400 its peak allocation
        is below 0.5 MiB, where the whole table (about 40,000 cells) takes
        several MiB."""
        pres = mc.make_metabelian(f9, 400)
        tracemalloc.start()
        try:
            assert mc.validate(pres).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19, peak

    def test_invalid_gates_tables(self, f9):
        bad = _mutated(f9)
        assert not mc.validate(bad).ok
        with pytest.raises(InvalidPresentation):
            pc.table(bad)

    def test_evaluates_only_open_triples(self, monkeypatch, f9):
        """Only the triples the chain step does not prove are evaluated
        (``_Structure.open_triples``, which ``validate`` iterates once per
        top): on the metabelian table (chain generator x) that is
        (v_2, x, y) at top 4, (v_i, v_j, y) for j > i + 1 and both
        generators for j = i + 1, about half of the 685 triples still
        reported as checked."""
        calls = []
        open_triples = mc._Structure.open_triples

        def spy(st, top=None):
            out = open_triples(st, top)
            calls.extend((st.top, u, w, g) for _, u, w, g in out)
            return out

        monkeypatch.setattr(mc._Structure, "open_triples", spy)
        report = mc.validate(mc.make_metabelian(f9, 40))
        tops = range(3, 41)
        assert report.triples_checked == sum(len(ds.new_triples(t)) for t in tops) == 685
        want = [
            (t, u, w, g)
            for t in tops
            for u, w, g in ds.new_triples(t)
            if (t == 4 if w == 0 else w == u + 1 or g == 1)
        ]
        assert calls == want
        assert len(calls) == 343


class TestBracket:
    """``subfield.bracket_vec`` is the one bracket of homogeneous elements."""

    def test_defining_relation(self, f9):
        m = mc.make_metabelian(f9, 10)
        assert pc.bracket_vec(m, 1, Y4, 1, X4) == f9.one

    def test_bilinearity_mu(self, f9):
        m = mc.make_metabelian(f9, 10)
        assert pc.bracket_vec(m, 3, f9.one, 1, MU_X4) == f9.mu

    def test_derived_subalgebra_abelian(self, f9):
        m = mc.make_metabelian(f9, 10)
        assert pc.bracket_vec(m, 3, f9.one, 4, f9.one) == f9.zero

    def test_antisymmetry_exhaustive(self, f9, dev9_12):
        f = f9
        basis = [(1, X4), (1, Y4)] + [(d, f.one) for d in range(2, 13)]
        for du, u in basis:
            for dw, w in basis:
                uw = pc.bracket_vec(dev9_12, du, u, dw, w)
                wu = pc.bracket_vec(dev9_12, dw, w, du, u)
                assert uw == f.neg(wu)

    def test_truncation(self, f9):
        m = mc.make_metabelian(f9, 10)
        assert pc.bracket_vec(m, 6, f9.one, 5, f9.mu) == f9.zero


class TestCentralizers:
    def test_normalization_shapes(self, search9_14):
        for pres in search9_14[:50]:
            seq = mc.two_step_centralizers(pres)
            f = pres.field
            for d in seq.degrees():
                al, be = seq.point(d)
                a, b = pres.pair(d)
                # the point annihilates the adjoint pair
                assert f.is_zero(f.add(f.mul(al, a), f.mul(be, b)))
                assert (al == f.one) or (al == f.zero and be == f.one)

    def test_pair_01_gives_ex(self, dev9_14):
        f = dev9_14.field
        seq = mc.two_step_centralizers(dev9_14)
        assert dev9_14.pair(6) == (f.zero, f.one)
        assert seq.point(6) == mc.ex_point(f)

    def test_distinct_in_first_occurrence_order(self, dev9_14):
        f = dev9_14.field
        seq = mc.two_step_centralizers(dev9_14)
        assert seq.distinct(6) == [mc.ey_point(f)]  # C_2 .. C_5; C_6 = Ex is outside
        assert seq.distinct(7) == seq.distinct(14) == [mc.ey_point(f), mc.ex_point(f)]

    def test_dimension_one(self, dev9_14):
        f = dev9_14.field
        for d in range(2, dev9_14.class_n):
            a, b = dev9_14.pair(d)
            # the E-row (a, b) has E-rank 1, so its right kernel is one E-line
            assert span(f.p, doubled_rows(f, [(a, b)]), 4).dim == 2

    def test_adjoint_bijectivity_off_centralizer(self, f9, dev9_12):
        # for l outside C_i the adjoint map is a bijection onto the next degree
        rng = random.Random(42)
        f = f9
        elems = list(f.elements())
        seq = mc.two_step_centralizers(dev9_12)
        for _ in range(200):
            d = rng.randrange(2, dev9_12.class_n - 1)
            al, be = rng.choice(elems), rng.choice(elems)
            if f.is_zero(al) and f.is_zero(be):
                continue
            a, b = dev9_12.pair(d)
            coeff = f.add(f.mul(al, a), f.mul(be, b))
            in_centralizer = (al, be) == seq.point(d) or (
                not f.is_zero(al)
                and seq.point(d)[0] == f.one
                and f.div(be, al) == seq.point(d)[1]
            ) or (f.is_zero(al) and seq.point(d) == mc.ey_point(f))
            assert f.is_zero(coeff) == in_centralizer


class TestStandardGenerators:
    def test_metabelian_identity(self, f9):
        m = mc.make_metabelian(f9, 10)
        res = pc.standard_generators(m)
        assert not res.changed
        assert res.presentation == m
        assert res.transform == ((f9.one, f9.zero), (f9.zero, f9.one))

    def test_swapped_labeling(self, f9):
        pairs = tuple(((0, 0), (1, 0)) for _ in range(8))
        swapped = mc.MaxClassPresentation(f9, 10, pairs)
        assert mc.validate(swapped).ok
        res = pc.standard_generators(swapped)
        assert res.transform == ((f9.zero, f9.one), (f9.one, f9.zero))
        assert res.presentation == mc.make_metabelian(f9, 10)

    def test_moves_first_deviation_to_ex(self, f9, search9_14):
        moved = 0
        for pres in search9_14:
            seq = mc.two_step_centralizers(pres)
            devs = seq.deviations()
            if not devs or mc.is_standard(pres):
                continue
            res = pc.standard_generators(pres)
            out = res.presentation
            assert mc.is_standard(out)
            seq2 = mc.two_step_centralizers(out)
            assert seq2.deviations() == devs  # deviation degrees are invariant
            moved += 1
            if moved >= 25:
                break
        assert moved > 0

    def test_idempotent_and_valid(self, search9_12):
        for pres in search9_12[:30]:
            once = pc.standard_generators(pres).presentation
            assert mc.validate(once).ok
            twice = pc.standard_generators(once).presentation
            assert twice == once

    @pytest.mark.parametrize(
        "p, u, v, class_n",
        [(2, 1, 1, 12), (3, 0, 2, 12), (5, 0, 2, 10), (7, 0, 3, 9), (3, 1, 1, 13), (2, 1, 1, 20)],
        ids=["gf4-12", "gf9-12", "gf25-10", "gf49-9", "gf9mu1-13", "gf4-20"],
    )
    def test_standardize_matches_oracle(self, p, u, v, class_n):
        """``standardize`` gives the centralizers of the oracle's standard
        presentation, on every searched presentation and on each under two
        seeded nonsingular base changes, and fixes standard sequences."""
        F = make_ext_field(p, u, v)
        rng = random.Random(f"standardize-{p}-{u}-{v}-{class_n}")
        elems = list(F.elements())
        for pres in mc.search_sequences(F, class_n, 10**9):
            moved = [pres]
            while len(moved) < 3:
                xp = (rng.choice(elems), rng.choice(elems))
                yp = (rng.choice(elems), rng.choice(elems))
                if not F.is_zero(F.sub(F.mul(yp[1], xp[0]), F.mul(yp[0], xp[1]))):
                    moved.append(pc.apply_degree1_change(pres, xp, yp))
            for q in moved:
                seq = mc.two_step_centralizers(q)
                got = mc.standardize(seq)
                assert got == mc.two_step_centralizers(pc.standard_generators(q).presentation)
                assert got.is_standard() and mc.standardize(got) == got


class TestStats:
    def test_metabelian(self, f9):
        report = mc.centralizer_stats(mc.two_step_centralizers(mc.make_metabelian(f9, 12)))
        assert len(report.entries) == 1
        e = report.entries[0]
        assert e.point == mc.ey_point(f9)
        assert e.first_occurrence == 2
        assert e.first_is_two_p_power  # 2 = 2 * 3^0

    def test_deviating(self, dev9_14):
        report = mc.centralizer_stats(mc.two_step_centralizers(dev9_14))
        ex = [e for e in report.entries if e.point == mc.ex_point(dev9_14.field)]
        assert len(ex) == 1
        assert ex[0].first_occurrence == 6  # 2p for p = 3
        assert ex[0].first_is_two_p_power
        assert ex[0].occurrences == (6, 9, 12)
        assert ex[0].max_gap == 3 and ex[0].gap_within_first

    def test_gated_on_standard_form(self, f9):
        pairs = tuple(((0, 0), (1, 0)) for _ in range(8))
        with pytest.raises(NotStandardForm):
            mc.centralizer_stats(mc.two_step_centralizers(mc.MaxClassPresentation(f9, 10, pairs)))

    def test_gated_on_validity(self, f9):
        """The centralizers the stats read come from a file the loader
        validates: an invalid one is refused before any point is read."""
        with pytest.raises(InvalidPresentation):
            mc.centralizer_stats(mc.two_step_centralizers(mc.from_json(mc.to_json(_mutated(f9)))))


class TestSearch:
    def test_contains_metabelian_first(self, f9):
        found = mc.search_sequences(f9, 8, 10)
        assert found[0] == mc.make_metabelian(f9, 8)

    def test_deviation_at_six_exists(self, f9, search9_12):
        ey = mc.ey_point(f9)
        hits = [
            p
            for p in search9_12
            if mc.two_step_centralizers(p).points[0] == ey
            and 6 in mc.two_step_centralizers(p).deviations()
        ]
        assert hits

    def test_no_deviation_at_three(self, search9_12):
        for p in search9_12:
            seq = mc.two_step_centralizers(p)
            assert seq.point(3) == seq.point(2)

    def test_limit_respected(self, f9):
        assert len(mc.search_sequences(f9, 12, 7)) == 7

    def test_leaves_are_not_pushed(self, monkeypatch, f9):
        """Nothing is pushed at the last degree: a node reads its columns
        with ``linear_forms``, and a leaf is appended from the stack.  A
        push at degree class_n - 2 is there to be read: the next table call
        is ``linear_forms`` one degree up (a node whose children are
        leaves, or a probe), never a push that comes with known columns."""
        events = []
        extend, linear_forms = mc._Structure.extend, mc._Structure.linear_forms

        def spy_extend(st, d, pair):
            events.append(("extend", d))
            return extend(st, d, pair)

        def spy_linear_forms(st):
            events.append(("linear_forms", st.top))
            return linear_forms(st)

        monkeypatch.setattr(mc._Structure, "extend", spy_extend)
        monkeypatch.setattr(mc._Structure, "linear_forms", spy_linear_forms)
        assert len(mc.search_sequences(f9, 12, 10**9)) == 100
        degrees = [d for kind, d in events if kind == "extend"]
        assert 10 in degrees and 11 not in degrees
        pushed = [n for n, event in enumerate(events) if event == ("extend", 10)]
        assert all(events[n + 1] == ("linear_forms", 11) for n in pushed)

    def test_pushes_invert_nothing(self, monkeypatch, f9, search9_12):
        """Every pair the search pushes is (1 : t) or (0 : 1), so ``extend``
        takes c = 1 as its own inverse; the list and its order are those of
        the search without the spy."""
        callers = []
        inv = ExtField.inv

        def spy(field, a):
            callers.append(sys._getframe(1).f_code.co_name)
            return inv(field, a)

        monkeypatch.setattr(ExtField, "inv", spy)
        assert mc.search_sequences(f9, 12, 10**9) == search9_12
        assert "extend" not in callers

    def test_kernel_calls_no_field_method(self, monkeypatch, f9, search9_12):
        """The table kernel expands GF(p^2) products in place: ``extend``,
        ``linear_forms``, ``validate`` (its Jacobi forms), ``projective_kernel``
        and ``free_children`` (with their nested helpers) call no
        ``ExtField.mul``, ``add``, ``sub`` or ``neg``, in a class-12 GF(9)
        search and in ``validate`` of metabelian GF(9) class 40.  The roots
        of a minor stay the field's (``quadratic_roots``)."""
        hot = [
            mc._Structure.extend, mc._Structure.linear_forms, mc.validate,
            mc.projective_kernel, mc.free_children,
        ]
        codes = set()
        todo = [fn.__code__ for fn in hot]
        while todo:
            code = todo.pop()
            codes.add(code)
            todo += [c for c in code.co_consts if isinstance(c, type(code))]
        calls = []
        for name in ("mul", "add", "sub", "neg"):
            method = getattr(ExtField, name)

            def spy(field, *args, _name=name, _method=method):
                caller = sys._getframe(1).f_code
                calls.append((_name, caller.co_name, caller in codes))
                return _method(field, *args)

            monkeypatch.setattr(ExtField, name, spy)
        assert mc.search_sequences(f9, 12, 10**9) == search9_12
        report = mc.validate(mc.make_metabelian(f9, 40))
        assert report.ok and report.triples_checked == 685
        assert calls  # the spies are live: quadratic_roots multiplies
        assert [call for call in calls if call[2]] == []

    def test_searches_one_subtree_per_orbit(self, monkeypatch, f9):
        """Below a fixed node the search reads only one nonzero child's
        subtree and rescales it (the rescaling lemma, ``search_sequences``).
        Dropping that would leave the list as it is, so the work is bounded
        here: the GF(9) class-16 search makes 419 ``linear_forms`` calls,
        against 2,883 when every child (1 : t) is searched."""
        calls = []
        linear_forms = mc._Structure.linear_forms

        def counted(st):
            calls.append(st.top)
            return linear_forms(st)

        monkeypatch.setattr(mc._Structure, "linear_forms", counted)
        assert len(mc.search_sequences(f9, 16, 10**9)) == 190
        assert len(calls) <= 600

    def test_window_cap(self, f9):
        with pytest.raises(WindowTooLarge):
            mc.search_sequences(f9, 30, 1)


class TestQuotient:
    def test_metabelian(self, f9):
        assert pc.quotient(mc.make_metabelian(f9, 10), 6) == mc.make_metabelian(f9, 6)

    def test_identity(self, dev9_14):
        assert pc.quotient(dev9_14, 14) == dev9_14

    def test_composition(self, dev9_14):
        a = pc.quotient(pc.quotient(dev9_14, 12), 8)
        assert a == pc.quotient(dev9_14, 8)

    def test_valid(self, dev9_14):
        assert mc.validate(pc.quotient(dev9_14, 9)).ok

    def test_unvalidated_gate(self, f9, dev9_14):
        """A quotient is not validated when it is made, and it fails
        ``validate`` (and ``table``) exactly when the first failing Jacobi
        triple lies at total degree <= the quotient bound."""
        rng = random.Random("quotient-gate")
        elems = list(f9.elements())
        bad = [_mutated(f9)]
        for _ in range(40):
            pairs = list(dev9_14.adjoint)
            pair = (f9.zero, f9.zero)
            while pair == (f9.zero, f9.zero):
                pair = (rng.choice(elems), rng.choice(elems))
            pairs[rng.randrange(len(pairs))] = pair
            bad.append(mc.MaxClassPresentation(f9, 14, tuple(pairs)))
        failing = 0
        for pres in bad:
            report = mc.validate(mc.MaxClassPresentation(f9, pres.class_n, pres.adjoint))
            # v_m counts m, x and y count 1
            top = None if report.ok else sum(
                1 if name in ("x", "y") else int(name[1:]) for name in report.first_failure
            )
            failing += top is not None
            for m in range(4, pres.class_n + 1):
                q = pc.quotient(pres, m)
                fails = top is not None and top <= m
                assert mc.validate(q).ok is not fails
                if fails:
                    with pytest.raises(InvalidPresentation):
                        pc.table(q)
                else:
                    assert pc.table(q).top == m
        assert failing > 10

    def test_bad_bound(self, f9):
        with pytest.raises(BadBound):
            pc.quotient(mc.make_metabelian(f9, 10), 3)
        with pytest.raises(BadBound):
            pc.quotient(mc.make_metabelian(f9, 10), 11)


class TestSerialization:
    def test_roundtrip(self, dev9_14):
        obj = mc.to_json(dev9_14)
        back = mc.from_json(obj)
        assert back == dev9_14
        assert mc.to_json(back) == obj

    def test_schema_rejects_bad_length(self, f9):
        obj = mc.to_json(mc.make_metabelian(f9, 6))
        obj["adjoint"] = obj["adjoint"][:-1]
        with pytest.raises(SchemaError):
            mc.from_json(obj)

    def test_schema_rejects_missing_key(self):
        with pytest.raises(SchemaError):
            mc.from_json({"p": 3, "class": 6, "adjoint": []})

    def test_loader_validates(self, f9):
        obj = mc.to_json(_mutated(f9))
        with pytest.raises(InvalidPresentation):
            mc.from_json(obj)
        assert mc.from_json(obj, check=False).class_n == 6
