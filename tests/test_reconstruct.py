"""Structure detection, the two representations, N and the round trip.

The representations are built by the oracle round trip
(``paper_checks.build_rho``, ``build_rho_prime`` and
``oracle_roundtrip``), which ``verify_roundtrip`` replaced by a
faithfulness scan of the structure table; ``test_roundtrip_matches_oracle``
compares the two.  N's presentation is read off the maps by commutators
(``oracle_extract``) and compared with the base change of M's quotient
(``n_presentation``).
"""

import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import paper_checks as pc
from int_kernel import doubled_rows, solve, span
from paper_checks import express
from test_lemma import _outcome
from thinlie import maxclass as mc
from thinlie import reconstruct as rec
from thinlie import subfield as sf
from paper_checks import DimensionAnomaly, NotEStable, NotMetabelian
from thinlie.errors import DivisionByZero, PreconditionFailed
from thinlie.gf import make_ext_field


GOLDEN = Path(__file__).parent / "golden"


def oracle_commutator(field, slots_min, window, m1, d1, m2, d2):
    """The commutator [m1, m2] of two full shift maps on every slot it fills:
    m1[s]*m2[s+d1] - m2[s]*m1[s+d2], a missing entry counting as 0."""
    out = {}
    for s in range(slots_min, window - d1 - d2 + 1):
        first = field.zero
        c1 = m1.get(s)
        if c1 is not None:
            c2 = m2.get(s + d1)
            if c2 is not None:
                first = field.mul(c1, c2)
        second = field.zero
        c2 = m2.get(s)
        if c2 is not None:
            c1b = m1.get(s + d2)
            if c1b is not None:
                second = field.mul(c2, c1b)
        out[s] = field.sub(first, second)
    return out


def _full_images(rep):
    """(degree, basis row) -> rho of that row on every slot."""
    an = rep.analysis
    return {
        (d, r): pc.image(rep, d, r)
        for d in range(1, rep.window - rep.slots_min + 1)
        for r in range(an.dim(d))
    }


def _flat(F, rep, m):
    return [m.get(s, F.zero) for s in range(rep.slots_min, rep.window + 1)]


def _proportionality(F, m1, m2):
    """e with m2 = e*m1 on the common domain, or None if m1 is zero."""
    ref = next((s for s in sorted(m1) if not F.is_zero(m1[s])), None)
    if ref is None:
        return None
    e = F.div(m2.get(ref, F.zero), m1[ref])
    for s in sorted(set(m1) | set(m2)):
        if m2.get(s, F.zero) != F.mul(e, m1.get(s, F.zero)):
            raise DimensionAnomaly("maps are not proportional over the extension")
    return e


def oracle_extract(rep):
    """N's dimensions and presentation computed on the maps: the
    E-rank of each degree's flattened images (half the F-rank of their
    doubled rows, the lemma of ``int_kernel``), and the chain of N in
    x_N = rho(r1), y_N = rho(r2) by commutators ([v, x_N] when nonzero,
    else [v, y_N]), validated."""
    an = rep.analysis
    F = an.field
    usable = rep.window - rep.k - 1
    ncols = rep.window - rep.slots_min + 1
    images = _full_images(rep)
    dims = {}
    for d in range(1, usable + 1):
        rows = [_flat(F, rep, images[(d, r)]) for r in range(an.dim(d))]
        dims[d] = span(F.p, doubled_rows(F, rows), 2 * ncols).dim // 2
    x_map, y_map = images[(1, 0)], images[(1, 1)]
    v = oracle_commutator(F, rep.slots_min, rep.window, y_map, 1, x_map, 1)  # v_2 = [y, x]
    pairs = []
    for deg in range(2, usable):
        bx = oracle_commutator(F, rep.slots_min, rep.window, v, deg, x_map, 1)
        by = oracle_commutator(F, rep.slots_min, rep.window, v, deg, y_map, 1)
        if any(not F.is_zero(c) for c in bx.values()):
            b = _proportionality(F, bx, by)
            pairs.append((F.one, b if b is not None else F.zero))
            v = bx
        else:
            pairs.append((F.zero, F.one))
            v = by
    extracted = mc.MaxClassPresentation(F, usable, tuple(pairs))
    report = mc.validate(extracted)
    if not report.ok:
        raise DimensionAnomaly(f"extracted presentation fails Jacobi at {report.first_failure}")
    return dims, extracted


def n_presentation(rep):
    """N's presentation as ``verify_roundtrip``'s docstring derives it: M's
    class-`usable` quotient in the basis (r1, r2) of T_1."""
    r1, r2 = pc._rows(rep.analysis)
    return pc.apply_degree1_change(pc.quotient(rep.analysis.pres, rec.usable_window(rep.window, rep.k)), r1, r2)


def centralizers_match(pres, pair, window=None):
    """N's presentation and M's quotient at the usable window have the same
    two-step centralizer sequence in standard form, as the slot lemma
    implies: N's presentation is a base change of M's, and the sequence in
    standard form is an isomorphism invariant."""
    window = pres.class_n if window is None else window
    an = sf.generate_subalgebra(pres, pair, window)
    flags = rec.detect_structure(an)[0]
    if flags.metabelian:
        rep = pc.build_rho_prime(an, flags)
    else:
        rep = pc.build_rho(an, flags)
    seq_n = mc.two_step_centralizers(pc.standard_generators(n_presentation(rep)).presentation)
    quotient = pc.quotient(pres, rec.usable_window(rep.window, rep.k))
    seq_m = mc.two_step_centralizers(pc.standard_generators(quotient).presentation)
    return seq_n.points == seq_m.points


@pytest.fixture(scope="module")
def met_setup(f9, thin_pair_f9):
    m = mc.make_metabelian(f9, 14)
    return m, sf.generate_subalgebra(m, thin_pair_f9, 14)


@pytest.fixture(scope="module")
def dev_setup(dev9_14, thin_pair_f9):
    return dev9_14, sf.generate_subalgebra(dev9_14, thin_pair_f9, 14)


class TestDetectStructure:
    def test_metabelian_branch(self, met_setup):
        _, an = met_setup
        flags = rec.detect_structure(an)[0]
        assert flags.metabelian
        assert flags.k == 2
        assert flags.detection == "metabelian"

    def test_deviating_branch(self, dev_setup):
        _, an = dev_setup
        flags = rec.detect_structure(an)[0]
        assert not flags.metabelian
        assert flags.k >= 3
        assert flags.detection in ("abelian-window", "insoluble-or-undetected")

    def test_gated_on_thin(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 12)
        an = sf.generate_subalgebra(m, maximal_pair, 12)
        with pytest.raises(PreconditionFailed):
            rec.detect_structure(an)


class TestBuildRho:
    def test_checks_pass(self, dev_setup):
        _, an = dev_setup
        flags = rec.detect_structure(an)[0]
        rep = pc.build_rho(an, flags)
        assert rep.branch == "rho"
        assert rep.slots_min == flags.k - 1

    def test_z_slot_killed_by_z(self, dev_setup):
        _, an = dev_setup
        flags = rec.detect_structure(an)[0]
        rep = pc.build_rho(an, flags)
        f = an.field
        # rho(z) sends the z-slot to [z, z] = 0
        z_img = pc.image(rep, flags.k - 1, 0)
        assert f.is_zero(z_img[rep.slots_min])

    def test_grading(self, dev_setup):
        _, an = dev_setup
        flags = rec.detect_structure(an)[0]
        rep = pc.build_rho(an, flags)
        # every slot is a table slot on rho, so nothing is stored
        assert rep.lo == rep.slots_min and not any(rep.images.values())
        for d in range(1, rep.window - rep.slots_min + 1):
            for r in range(an.dim(d)):
                for src in pc.image(rep, d, r):
                    assert src + d <= rep.window

    def test_wrong_branch_rejected(self, met_setup):
        _, an = met_setup
        flags = rec.detect_structure(an)[0]
        with pytest.raises(PreconditionFailed):
            pc.build_rho(an, flags)


class TestBuildRhoPrime:
    def test_checks_pass(self, met_setup):
        _, an = met_setup
        rep = pc.build_rho_prime(an, rec.detect_structure(an)[0])
        assert rep.branch == "rho_prime"
        assert rep.slots_min == 1
        # only the two extension slots are stored, and only where the map reaches
        assert set(rep.images) == set(range(rep.window))
        for i, m in rep.images.items():
            assert set(m) == {s for s in (1, 2) if s + max(i, 1) <= rep.window}

    def test_x_and_y_slot_entries(self, met_setup, f9):
        _, an = met_setup
        rep = pc.build_rho_prime(an, rec.detect_structure(an)[0])
        # decompose X and Y in the stored degree-1 basis rows
        X4 = sf.deg1_to_f4(an.pair.X)
        Y4 = sf.deg1_to_f4(an.pair.Y)
        cx = express(an, 1, X4)
        cy = express(an, 1, Y4)

        def image_of(coords):
            m = {}
            for c, r in zip(coords, range(an.dim(1))):
                if c:
                    for s, val in pc.image(rep, 1, r).items():
                        m[s] = f9.add(m.get(s, f9.zero), f9.scale(c, val))
            return m

        # rho'(X) has alpha = 1 in the Y-slot -> [Y,X]-slot entry
        assert image_of(cx)[1] == f9.one
        # rho'(Y) kills the first slot and moves the [Y,X]-slot nontrivially
        y_img = image_of(cy)
        assert f9.is_zero(y_img[1])
        assert not f9.is_zero(y_img[2])

    def test_rejects_non_metabelian(self, dev_setup):
        _, an = dev_setup
        with pytest.raises(NotMetabelian):
            pc.build_rho_prime(an, rec.detect_structure(an)[0])


def test_degree_below_extension_line_is_not_e_stable():
    """Both builders refuse an analysis whose degree 3 has dim_F 1: the
    r-constrained subalgebra of the ``analyze-rconstrained`` golden case,
    given the flags of either branch."""
    pres = mc.from_json(json.loads((GOLDEN / "dev9mu.json").read_text()))
    pair = sf.pair_from_ints(pres.field, [0, 0, 1, 0], [1, 0, 0, 1])
    an = sf.generate_subalgebra(pres, pair)
    assert an.verdict.kind == "rconstrained" and an.dim(3) == 1
    message = "component of degree 3 is not an extension line"
    with pytest.raises(NotEStable, match=message):
        pc.build_rho_prime(an, rec.StructureFlags(True, 2, "metabelian"))
    with pytest.raises(NotEStable, match=message):
        pc.build_rho(an, rec.StructureFlags(False, 3, "insoluble-or-undetected"))


class TestAssemble:
    """N = E*rho(T): its dimensions and the presentation extracted from the
    maps (``oracle_extract``) against the base change of M's quotient."""

    def test_metabelian_dims_and_extraction(self, met_setup, f9):
        m, an = met_setup
        rep = pc.build_rho_prime(an, rec.detect_structure(an)[0])
        usable = rec.usable_window(rep.window, rep.k)
        assert usable == 14 - 2 - 1
        dims, extracted = oracle_extract(rep)
        assert dims[1] == 2
        assert all(dims[d] == 1 for d in range(2, usable + 1))
        assert extracted == n_presentation(rep)
        assert mc.validate(extracted).ok
        # after standardization the extraction is the metabelian algebra again
        std = pc.standard_generators(extracted).presentation
        assert std == mc.make_metabelian(f9, usable)

    def test_deviating_extraction_valid(self, dev_setup):
        _, an = dev_setup
        flags = rec.detect_structure(an)[0]
        rep = pc.build_rho(an, flags)
        dims, extracted = oracle_extract(rep)
        assert extracted == n_presentation(rep)
        assert mc.validate(extracted).ok
        assert dims[1] == 2

    def test_extension_bilinearity_of_bracket(self, met_setup, f9):
        _, an = met_setup
        rep = pc.build_rho_prime(an, rec.detect_structure(an)[0])
        rng = random.Random(31)
        elems = list(f9.elements())
        for _ in range(40):
            d1 = rng.randrange(1, 5)
            d2 = rng.randrange(1, 5)
            r1 = rng.randrange(an.dim(d1))
            r2 = rng.randrange(an.dim(d2))
            e1, e2 = rng.choice(elems), rng.choice(elems)
            m1 = pc.image(rep, d1, r1)
            m2 = pc.image(rep, d2, r2)
            slots = range(rep.slots_min, rep.window - d1 - d2 + 1)

            def scale(e, m):
                return {s: f9.mul(e, c) for s, c in m.items()}

            def commutator(a, b):
                return pc._commutator(f9, slots, a.__getitem__, d1, b.__getitem__, d2)

            lhs = commutator(scale(e1, m1), scale(e2, m2))
            assert lhs == scale(f9.mul(e1, e2), commutator(m1, m2))


class TestRoundtrip:
    def test_metabelian(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 14)
        report = rec.verify_roundtrip(m, thin_pair_f9, 14)
        assert report.branch == "rho_prime"
        assert report.iso and report.first_failure is None
        assert centralizers_match(m, thin_pair_f9, 14)

    def test_deviating(self, dev9_14, thin_pair_f9):
        report = rec.verify_roundtrip(dev9_14, thin_pair_f9, 14)
        assert report.branch == "rho"
        assert report.iso and centralizers_match(dev9_14, thin_pair_f9, 14)

    @pytest.mark.parametrize("which", ["metabelian9_14", "dev9_14"])
    def test_validates_only_the_extraction(self, request, monkeypatch, f9, thin_pair_f9, which):
        """After the loader's check, a round trip runs no Jacobi check: it
        reads the loaded table and builds no quotient and no extracted
        presentation.  Jacobi is checked in ``validate`` only, over the
        open triples of each top (``_Structure.open_triples``), and the
        search's forms, which read them too, are not computed either."""
        src = mc.make_metabelian(f9, 14) if which == "metabelian9_14" else request.getfixturevalue(which)
        pres = mc.MaxClassPresentation(f9, src.class_n, src.adjoint)
        assert mc.validate(pres).ok
        checked = []
        validate, open_triples = mc.validate, mc._Structure.open_triples

        def spy_validate(p):
            checked.append(("validate", p))
            return validate(p)

        def spy_open(st, top=None):
            checked.append(("open_triples", st))
            return open_triples(st, top)

        monkeypatch.setattr(mc, "validate", spy_validate)
        monkeypatch.setattr(mc._Structure, "open_triples", spy_open)
        assert rec.verify_roundtrip(pres, thin_pair_f9).iso
        assert checked == []
        monkeypatch.undo()
        assert centralizers_match(pres, thin_pair_f9)

    @pytest.mark.parametrize("which", ["metabelian9_14", "dev9_14"])
    def test_extracts_nothing(self, request, monkeypatch, f9, thin_pair_f9, which):
        """A round trip reads the usable window off the window and k
        (``usable_window``), so it builds no extracted presentation and no
        table for one: the package has no base change of a presentation,
        so the oracle ``apply_degree1_change`` runs zero times, and the
        report's window is that of N's presentation (``n_presentation``)."""
        pres = mc.make_metabelian(f9, 14) if which == "metabelian9_14" else request.getfixturevalue(which)
        calls = []
        change = pc.apply_degree1_change

        def spy(*args):
            calls.append(args)
            return change(*args)

        monkeypatch.setattr(pc, "apply_degree1_change", spy)
        report = rec.verify_roundtrip(pres, thin_pair_f9)
        assert report.iso and calls == []
        an = sf.generate_subalgebra(pres, thin_pair_f9, pres.class_n)
        flags = rec.detect_structure(an)[0]
        build = pc.build_rho_prime if flags.metabelian else pc.build_rho
        rep = build(an, flags)
        assert rec.usable_window(rep.window, rep.k) == report.usable_window == n_presentation(rep).class_n
        assert len(calls) == 1

    @pytest.mark.parametrize("class_n", [40, 80])
    def test_commutators_linear_in_window(self, monkeypatch, f9, thin_pair_f9, class_n):
        """A metabelian oracle round trip computes O(1) commutators per
        degree of the window, at most 4, each on the two slots below lo;
        the table proves the other slots."""
        pres = mc.make_metabelian(f9, class_n)
        calls = []
        commutator = pc._commutator

        def spy(field, slots, *args):
            calls.append(len(slots))
            return commutator(field, slots, *args)

        monkeypatch.setattr(pc, "_commutator", spy)
        assert pc.oracle_roundtrip(pres, thin_pair_f9).iso
        assert class_n < len(calls) <= 4 * class_n
        assert max(calls) == 2

    @pytest.mark.parametrize(
        "p, u, v", [(2, 1, 1), (3, 0, 2), (5, 0, 2), (7, 0, 3)], ids=["4", "9", "25", "49"]
    )
    def test_degree1_inverse_matches_generic_solve(self, p, u, v):
        """``_inverse_rows``, the closed-form 2x2 inverse of the round
        trip's degree-1 step, against the E-solve of each unit row (the
        F-solve of the doubled rows, the lemma of ``int_kernel``) on 200
        seeded E-independent row pairs; E-dependent rows raise
        DivisionByZero."""
        F = make_ext_field(p, u, v)
        rng = random.Random(f"inverse-rows-{F}")
        elems = list(F.elements())
        units = ((F.one, F.zero), (F.zero, F.one))
        checked = 0
        while checked < 200:
            rows = [(rng.choice(elems), rng.choice(elems)) for _ in range(2)]
            (a1, b1), (a2, b2) = rows
            if F.is_zero(F.sub(F.mul(a1, b2), F.mul(b1, a2))):
                continue
            doubled = doubled_rows(F, rows)
            want = []
            for unit in units:
                c = solve(F.p, doubled, doubled_rows(F, [unit])[0])
                want.append(tuple(zip(c[::2], c[1::2])))
            assert pc._inverse_rows(F, rows) == want, rows
            checked += 1
        with pytest.raises(DivisionByZero):
            pc._inverse_rows(F, [(F.one, F.mu), (F.mu, F.mul(F.mu, F.mu))])

    def test_maximal_pair_refused(self, f9, maximal_pair):
        m = mc.make_metabelian(f9, 14)
        with pytest.raises(PreconditionFailed):
            rec.verify_roundtrip(m, maximal_pair, 14)

    def test_report_json_shape(self, f9, thin_pair_f9):
        m = mc.make_metabelian(f9, 14)
        doc = rec.verify_roundtrip(m, thin_pair_f9, 14).to_json()
        assert set(doc) == {"branch", "k", "usable_window", "iso", "first_failure"}


def test_roundtrip_matches_oracle(f4, search9_14):
    """``verify_roundtrip`` against ``paper_checks.oracle_roundtrip``, which
    builds rho or rho' as stored maps and compares their slots and the phi
    map: the same report or the same error, on every standard searched
    presentation of GF(4) at class 14, GF(9) at class 14 and GF(9) with
    mu^2 = mu + 1 at class 13, with every normalized pair, at every window
    from 7 to the class.  The one mapped difference is the unrefuted
    kernel: the oracle's NotFaithful "representation has a kernel in
    degree d" is WindowTooSmall "kernel in degree d not refuted within
    window w".  It occurs on GF(4) and on GF(9), every time on the
    insoluble-surrogate branch (k = 3)."""
    f9b = make_ext_field(3, 1, 1)
    cases = [
        (f4, mc.search_sequences(f4, 14, 10**9)),
        (search9_14[0].field, search9_14),
        (f9b, mc.search_sequences(f9b, 13, 10**9)),
    ]
    seen = Counter()
    for field, found in cases:
        pairs = pc.normalized_pairs(field)
        for pres in filter(mc.is_standard, found):
            for pair in pairs:
                for window in range(7, pres.class_n + 1):
                    got = _outcome(rec.verify_roundtrip, pres, pair, window)
                    want = _outcome(pc.oracle_roundtrip, pres, pair, window)
                    if want[0] == "NotFaithful":
                        d = re.fullmatch(r"representation has a kernel in degree (\d+)", want[1])[1]
                        want = ("WindowTooSmall", f"kernel in degree {d} not refuted within window {window}")
                        seen["unrefuted", field.p] += 1
                        assert got[0] == "WindowTooSmall"
                        assert rec.detect_structure(sf.generate_subalgebra(pres, pair, window))[0].k == 3
                    assert got == want, (pres.adjoint, pair, window)
                    seen[got[1].branch if got[0] == "ok" else got[0]] += 1
    assert seen["unrefuted", 2] > 0 and seen["unrefuted", 3] > 0
    assert seen["rho"] and seen["rho_prime"] and seen["WindowTooSmall"] and seen["PreconditionFailed"]


