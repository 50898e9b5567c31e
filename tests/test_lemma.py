"""The generator and linearity lemmas against the loops they replaced.

Jacobi (``maxclass``) is checked only on triples with a degree-1
generator.  The all-triples loop it replaced is kept here as an oracle,
and the fast path must give the same verdict, the same first failure and
the same message on seeded valid and perturbed inputs.

The table lemmas are checked on the dict table ``dict_structure.DictStructure``,
which ``test_rows`` compares with ``maxclass._Structure`` (one row of
cells per total degree) and ``maxclass.validate``.
``DictStructure.jacobi`` evaluates each Jacobi triple with a generator by
one of two closed formulas (its docstring), and ``extend`` decides the
chain (c^{-1} and g with v_{d+1} = c^{-1}*[v_d, g]) once per pushed
degree.  The generic bracket of basis ids, the three-term Jacobi sum over
it and the per-cell choice of c^{-1} are kept here as oracles.
``check_new`` evaluates only the triples the chain lemma does not prove
(``new_triples``); the full list of closed forms is kept here as the
oracle ``oracle_jacobi_forms``, and the lemma itself is checked by the
generic bracket.

``search_sequences`` solves for the admissible pairs of each degree (the
projective kernel of its Jacobi forms) instead of trying every point of
P^1(E), reads a node's forms at (1, 0) and (0, 1) in one pass that
pushes nothing (``_Structure.linear_forms``, by the linearity lemma), and
at a free node derives its children's next-degree forms by the
bilinearity lemma (its docstring) instead of pushing every child.  The
trial-push search, the one-level search (which pushes every child of a
free node) and the probe pushes at (1, 0) and (0, 1) (``_columns`` over
``jacobi_forms``) it replaced are kept here as oracles.  Below a prefix of
(1 : 0) and (0 : 1) pairs it searches one child (1 : t) per E*-orbit and
rescales the others (the rescaling lemma, its docstring); the search that
visits each child is ``paper_checks.oracle_two_level_search``, and the
lemma is checked on its own over the trial-push search's output.

The table kernel (``extend``, ``jacobi`` and ``linear_forms`` of the
dict table, and the search's ``projective_kernel`` and ``free_children``) expands
each GF(p^2) product in place and reduces each coordinate once.  The
per-operation ``projective_kernel`` and ``free_children`` are kept here
as oracles; ``oracle_cells``, ``oracle_jacobi`` and the probe path stay
the oracles of the others.  They are compared at every node of the four
bench searches, on random tables, and at p = 1000003, where products of
several-digit residues show a dropped or misplaced reduction; and
``validate``'s report (first failure and triples checked) is compared
with Jacobi over the generic bracket on ``oracle_cells``.
``paper_checks.apply_degree1_change``'s results pass ``validate``, and
their tables hold the oracle's cells.

``reconstruct.detect_structure`` reads the largest degree i with a nonzero
bracket [v_i, v_j] in the window once; the scan per tail T^k it replaced
is kept here as its oracle.

``subfield.generate_subalgebra`` reads the dimensions of L = <X, Y> off
the d-values by the dimension lemma (the ``subfield`` module docstring)
and, for an E-dependent pair, off rank_F{X, Y} by its 2x2 minors
(``subfield._f_rank``); each d-value is one F-determinant per distinct
centralizer point (``subfield._d_key``), and ``scan`` classifies once
per d-key.  The degree-by-degree RowSpace generation (against the
closed-form bases of ``paper_checks.bases``), the RowSpace rank, the
RowSpace d-values (one span per degree) and the pair-by-pair scan, which
classifies each pair through those d-values, are kept here as oracles.
``scan`` reads its pairs per d-key off the Baer sublines through the
centralizer points (``subfield._key_counts``), and its thin count off
the affine F-lines and circles through them
(``subfield.count_thin_by_line_avoidance``).  The walks they replaced
(``paper_checks.pair_walk_keys`` over every normalized pair or F-plane,
``paper_checks.line_avoidance_loop`` over every beta in E, and
``paper_checks.line_avoidance_walk`` over every normalized pair) are
compared with them on every searched presentation put in standard form
and on constructed point sets over GF(9) and GF(25), where the sublines
are also enumerated plane by plane.  The thin count is also compared
with the loop over every beta on constructed sets of lambdas for
p <= 13: random sets, concyclic sets (the only ones with four or more
lambdas on a circle) and collinear sets.

``endo.identify_field`` reads End_0(L^3) and its field off dim L_3 and
(p, u, v) (the closed form in the ``endo`` docstring).  The ring solve on
the bottom degree it replaced (``paper_checks.compute_grend0`` and
``identify_field_of_ring``) is its oracle on every irreducible
t^2 - u*t - v for p <= 7, and on every pair of six presentations over
GF(4), GF(9) and GF(25).  The degree-by-degree solve
(``paper_checks.solve_graded_maps`` and ``propagated_grend0``) and the
Schur check on every degree (``paper_checks.identify_field_per_degree``)
that the ring solve replaced are the oracle of
``test_closed_form_matches_propagation``: the same FieldId report, or the
same error.

The round trip's oracle (``paper_checks.oracle_roundtrip``) is compared
with ``reconstruct.verify_roundtrip`` in ``test_reconstruct``.

The GF(p) kernel under the oracles (``int_kernel``: ``RowSpace``,
``span``, ``solve``, ``combine`` and ``mat_mul``) is compared with
Gauss-Jordan elimination and entry-by-entry products on ints mod p, on
entries that are negative or >= p, which stand for their residues; that
reference uses nothing of ``int_kernel``.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import dict_structure as ds
import paper_checks as pc
from int_kernel import RowSpace, combine, doubled_rows, mat_mul, solve, span
from thinlie import endo
from thinlie import maxclass as mc
from thinlie import reconstruct as rec
from thinlie import subfield as sf
from thinlie.errors import (
    BadBound,
    NotStandardForm,
    PreconditionFailed,
    ThinLieError,
    WindowTooSmall,
)
from thinlie.gf import make_ext_field, quadratic_is_irreducible


def _label(i: int) -> str:
    return "x" if i == 0 else "y" if i == 1 else f"v{i}"


# -- oracles: the generic bracket and the all-pairs loops ----------------------


def oracle_bracket(st, s, t):
    """Bracket of basis elements (ids: 0 = x, 1 = y, k = v_k).

    Returns (coefficient, target degree) or None when structurally zero
    (equal arguments or overflow past the current top degree).
    """
    F = st.field
    if s == t:
        return None
    if s <= 1 and t <= 1:
        if 2 > st.top:
            return None
        return (F.one, 2) if s == 1 else (F.neg(F.one), 2)
    if s <= 1:
        if t + 1 > st.top:
            return None
        c = st.a.get(t, F.zero) if s == 0 else st.b.get(t, F.zero)
        return (F.neg(c), t + 1)
    if t <= 1:
        if s + 1 > st.top:
            return None
        c = st.a.get(s, F.zero) if t == 0 else st.b.get(s, F.zero)
        return (c, s + 1)
    if s + t > st.top:
        return None
    return (st.get_vv(s, t), s + t)


def oracle_jacobi(st, u, w, g):
    """Coefficient of J(u,w,g) = [[u,w],g] + [[w,g],u] + [[g,u],w], term by term."""
    F = st.field
    acc = F.zero
    for p, q, r in ((u, w, g), (w, g, u), (g, u, w)):
        first = oracle_bracket(st, p, q)
        if first is None or F.is_zero(first[0]):
            continue
        second = oracle_bracket(st, first[1], r)
        if second is None:
            continue
        acc = F.add(acc, F.mul(first[0], second[0]))
    return acc


def oracle_jacobi_forms(st):
    """The closed-form Jacobi coefficients of every triple of ``new_triples(top)``."""
    return [st.jacobi(*t) for t in ds.new_triples(st.top)]


def jacobi_forms(st):
    """The closed-form Jacobi coefficients of the open triples, in
    ``open_triples`` order: the forms of a pushed pair, read by the probe
    pushes the search made before ``_Structure.linear_forms``."""
    return [st.jacobi(u, w, g) for _, u, w, g in st.open_triples()]


def oracle_cells(st):
    """The cells [v_i, v_j] of st's pairs, choosing g and inverting c per cell."""
    F = st.field
    a, b = st.a, st.b
    vv = {}

    def get(i, j):
        return F.neg(vv[(j, i)]) if i > j else vv.get((i, j), F.zero)

    for total in range(5, st.top + 1):
        for i in range(2, (total + 1) // 2):
            j = total - i
            if i == 2:
                vv[(i, j)] = F.sub(F.mul(a[j], b[j + 1]), F.mul(b[j], a[j + 1]))
                continue
            if not F.is_zero(a[i - 1]):
                c, gk = a[i - 1], a
            else:
                c, gk = b[i - 1], b
            vv[(i, j)] = F.mul(
                F.inv(c),
                F.sub(F.mul(get(i - 1, j), gk[total - 1]), F.mul(gk[j], get(i - 1, j + 1))),
            )
    return vv


def oracle_check_new(st):
    """Jacobi on every basis triple of total degree == top."""
    F = st.field
    T = st.top
    checked = 0
    m = T - 2
    if m >= 2:
        checked += 1
        if not F.is_zero(oracle_jacobi(st, m, 0, 1)):
            return (_label(m), "x", "y"), checked
    for i in range(2, (T + 1) // 2):
        j = T - 1 - i
        if j <= i:
            break
        for g in (0, 1):
            checked += 1
            if not F.is_zero(oracle_jacobi(st, i, j, g)):
                return (_label(j), _label(i), _label(g)), checked
    for i in range(2, T):
        for j in range(i + 1, T):
            k = T - i - j
            if k <= j:
                break
            checked += 1
            if not F.is_zero(oracle_jacobi(st, i, j, k)):
                return (_label(k), _label(j), _label(i)), checked
    return None, checked


def projective_pairs(field):
    """Canonical representatives of P^1(E): (1 : b) for all b, then (0 : 1)."""
    reps = [(field.one, e) for e in field.elements()]
    reps.append((field.zero, field.one))
    return reps


def oracle_search_sequences(field, class_n, limit):
    """Depth-first search that pushes every point of P^1(E) and checks it."""
    reps = projective_pairs(field)
    st = ds.DictStructure(field, class_n)
    stack = []
    out = []

    def dfs(d):
        if len(out) >= limit:
            return
        if d == class_n:
            out.append(mc.MaxClassPresentation(field, class_n, tuple(stack)))
            return
        for pair in reps:
            if len(out) >= limit:
                return
            added = st.extend(d, pair)
            fail, _ = st.check_new()
            if fail is None:
                stack.append(pair)
                dfs(d + 1)
                stack.pop()
            st.retract(d, added)

    dfs(2)
    return out


def oracle_one_level_search(field, class_n, limit):
    """Depth-first search over each node's projective kernel, pushing every
    child of a free node (the search before the bilinearity lemma)."""
    reps = projective_pairs(field)
    st = ds.DictStructure(field, class_n)
    stack = []
    out = []

    def forms_at(d, pair):
        added = st.extend(d, pair)
        forms = jacobi_forms(st)
        st.retract(d, added)
        return forms

    def dfs(d):
        if d == class_n:
            out.append(mc.MaxClassPresentation(field, class_n, tuple(stack)))
            return
        at_x = forms_at(d, mc.ex_point(field))
        at_y = forms_at(d, mc.ey_point(field))
        kernel = oracle_projective_kernel(field, at_x, at_y)
        for pair in reps if kernel is None else kernel:
            if len(out) >= limit:
                return
            added = st.extend(d, pair)
            stack.append(pair)
            dfs(d + 1)
            stack.pop()
            st.retract(d, added)

    dfs(2)
    return out


def oracle_projective_kernel(field, at_x, at_y):
    """``maxclass.projective_kernel`` one field operation at a time: the
    first nonzero row (s, t), then s*w = t*u on every row (u, w)."""
    F = field
    rows = list(zip(at_x, at_y))
    first = next((r for r in rows if not (F.is_zero(r[0]) and F.is_zero(r[1]))), None)
    if first is None:
        return None
    s, t = first
    if any(F.mul(s, w) != F.mul(t, u) for u, w in rows):
        return []
    return [(F.zero, F.one) if F.is_zero(t) else (F.one, F.neg(F.div(s, t)))]


def oracle_free_children(field, A, B):
    """``maxclass.free_children`` one field operation at a time: the minors'
    coefficients as sums of ``cross`` and the columns A + t*B entry by entry."""
    F = field
    (ax, ay), (bx, by) = A, B
    rows = [r for r in zip(ax, ay, bx, by) if not all(F.is_zero(e) for e in r)]

    def minor(r, s):
        def cross(f, g):
            return F.sub(F.mul(r[f], s[g]), F.mul(s[f], r[g]))

        return cross(2, 3), F.add(cross(0, 3), cross(2, 1)), cross(0, 1)

    nonzero = (
        m for i, r in enumerate(rows) for s in rows[i + 1:] for m in (minor(r, s),)
        if not all(F.is_zero(c) for c in m)
    )
    first = next(nonzero, None)
    for t in F.elements() if first is None else F.quadratic_roots(*first):
        yield (F.one, t), (
            [F.add(x, F.mul(t, y)) for x, y in zip(ax, bx)],
            [F.add(x, F.mul(t, y)) for x, y in zip(ay, by)],
        )
    yield (F.zero, F.one), B


def oracle_first_failure(st):
    """``check_new`` by the generic bracket: the first triple of
    ``new_triples(top)`` with a nonzero Jacobi sum, labelled, and its
    1-based position, else (None, the number of triples)."""
    F = st.field
    triples = ds.new_triples(st.top)
    for n, (u, w, g) in enumerate(triples, 1):
        if not F.is_zero(oracle_jacobi(st, u, w, g)):
            return (_label(max(u, w)), _label(min(u, w)), _label(g)), n
    return None, len(triples)


def oracle_validate_generators(pres):
    """(ok, first_failure, triples_checked) of Jacobi on the triples with a
    generator, on cells from ``oracle_cells`` (the table is filled by hand,
    not by ``extend``): the report ``validate`` gives."""
    st = ds.DictStructure(pres.field, pres.class_n)
    checked = 0
    for d in range(2, pres.class_n):
        st.a[d], st.b[d] = pres.pair(d)
        st.top = d + 1
        st.vv = oracle_cells(st)
        fail, cnt = oracle_first_failure(st)
        checked += cnt
        if fail is not None:
            return False, fail, checked
    return True, None, checked


def oracle_validate(pres):
    """(ok, first_failure, triples_checked) of the exhaustive validator."""
    st = ds.DictStructure(pres.field, pres.class_n)
    checked = 0
    for d in range(2, pres.class_n):
        st.extend(d, pres.pair(d))
        fail, cnt = oracle_check_new(st)
        checked += cnt
        if fail is not None:
            return False, fail, checked
    return True, None, checked


# -- the validator -------------------------------------------------------------


def _mutations(pres, rng, count):
    F = pres.field
    elems = list(F.elements())
    out = []
    for _ in range(count):
        pairs = list(pres.adjoint)
        for _ in range(rng.choice((1, 1, 2))):
            d = rng.randrange(len(pairs))
            pair = (rng.choice(elems), rng.choice(elems))
            while F.is_zero(pair[0]) and F.is_zero(pair[1]):
                pair = (rng.choice(elems), rng.choice(elems))
            pairs[d] = pair
        out.append(mc.MaxClassPresentation(F, pres.class_n, tuple(pairs)))
    return out


BIG_P = (1000003, 271828, 314159)  # p, u, v: mu^2 = u*mu + v, both nonzero


def _rescaled_by_residues(pres, rng):
    """``_rescaled`` with scalars drawn coordinate by coordinate."""
    F = pres.field
    pairs = []
    for a, b in pres.adjoint:
        c = (rng.randrange(1, F.p), rng.randrange(F.p))
        pairs.append((F.mul(c, a), F.mul(c, b)))
    return mc.MaxClassPresentation(F, pres.class_n, tuple(pairs))


def _large_p_presentations(rng, count):
    """Valid presentations at p = 1000003 with several-digit residues and
    c != 1 (a degree-1 base change of the metabelian one, rescaled), each
    followed by a copy with one pair replaced at random."""
    F = make_ext_field(*BIG_P)

    def element():
        return rng.randrange(F.p), rng.randrange(F.p)

    out = []
    for _ in range(count):
        meta = mc.make_metabelian(F, rng.randint(6, 16))
        while True:
            xp, yp = (element(), element()), (element(), element())
            if not F.is_zero(F.sub(F.mul(xp[0], yp[1]), F.mul(xp[1], yp[0]))):
                break
        pres = _rescaled_by_residues(pc.apply_degree1_change(meta, xp, yp), rng)
        pairs = list(pres.adjoint)
        pairs[rng.randrange(len(pairs))] = _residue_pair(F, rng)
        out += [pres, mc.MaxClassPresentation(F, pres.class_n, tuple(pairs))]
    return out


@pytest.mark.parametrize("found", ["search4_12", "search9_12", "search25_12", "large_p"])
def test_validate_matches_exhaustive(request, f9, found):
    """``validate`` gives the verdict and first failure of Jacobi on every
    triple, and the same report, triples_checked included, as Jacobi on
    every triple with a generator over ``oracle_cells``: on the searched
    presentations and their pair mutations (``_mutations``, after the
    class-6 GF(9) table whose chain turns to y at degree 3), and at
    p = 1000003 (``_large_p_presentations``)."""
    rng = random.Random(f"validate-{found}")
    if found == "large_p":
        cands = _large_p_presentations(rng, 30)
    else:
        pairs = (((1, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, 0)), ((1, 0), (0, 0)))
        cands = [mc.MaxClassPresentation(f9, 6, pairs)]
        for pres in request.getfixturevalue(found):
            cands += [pres] + _mutations(pres, rng, 3)
    failures = 0
    for cand in cands:
        fresh = mc.MaxClassPresentation(cand.field, cand.class_n, cand.adjoint)
        report = mc.validate(fresh)
        ok, first_failure, triples = oracle_validate(cand)
        assert (report.ok, report.first_failure) == (ok, first_failure), cand.adjoint
        assert report.triples_checked <= triples
        got = (report.ok, report.first_failure, report.triples_checked)
        assert got == oracle_validate_generators(cand), cand.adjoint
        failures += not ok
    assert 0 < failures < len(cands)


def _degree1_change(pres, rng):
    """pres after a random invertible degree-1 base change."""
    F = pres.field
    elems = list(F.elements())
    while True:
        xp = (rng.choice(elems), rng.choice(elems))
        yp = (rng.choice(elems), rng.choice(elems))
        if not F.is_zero(F.sub(F.mul(xp[0], yp[1]), F.mul(xp[1], yp[0]))):
            return pc.apply_degree1_change(pres, xp, yp)


def _table_key(st):
    """A copy of everything a table holds; a chain step by its scalar and branch."""
    steps = {d: (c_inv, g is st.a) for d, (c_inv, g) in st.step.items()}
    return st.class_n, st.top, dict(st.a), dict(st.b), ds.cells(st), steps


@pytest.mark.parametrize("found", ["search4_12", "search9_12", "search25_12"])
def test_derived_tables_match_validate(request, found):
    """Base-changed presentations pass ``validate``, and their tables
    (``paper_checks.table``) hold the cells of the dict oracle."""
    rng = random.Random(f"tables-{found}")
    for pres in request.getfixturevalue(found):
        parent = mc.MaxClassPresentation(pres.field, pres.class_n, pres.adjoint)
        assert mc.validate(parent).ok
        derived = [_degree1_change(parent, rng) for _ in range(2)]
        derived.append(_degree1_change(derived[rng.randrange(len(derived))], rng))
        for pres_d in derived:
            assert mc.validate(pres_d).ok
            assert _table_key(pc.table(pres_d)) == _table_key(ds.table(pres_d))


def test_search_prefixes_match_exhaustive(f9):
    """Every push of a class-14 GF(9) search: same verdict as all triples."""
    reps = projective_pairs(f9)
    st = ds.DictStructure(f9, 14)
    pushes = 0

    def dfs(d):
        nonlocal pushes
        if d == 14:
            return
        for pair in reps:
            added = st.extend(d, pair)
            fail, _ = st.check_new()
            pushes += 1
            assert fail == oracle_check_new(st)[0]
            if fail is None:
                dfs(d + 1)
            st.retract(d, added)

    dfs(2)
    assert pushes > 1000


def _random_pair(field, rng):
    """A nonzero pair whose entries are 0 about 30% of the time, else random."""
    elems = list(field.elements())
    while True:
        pair = tuple(field.zero if rng.random() < 0.3 else rng.choice(elems) for _ in "ab")
        if not all(field.is_zero(e) for e in pair):
            return pair


def _residue_pair(field, rng):
    """A nonzero pair whose entries are 0 or 1 now and then, else drawn
    coordinate by coordinate (E is not enumerated, so any p will do)."""
    p = field.p

    def entry():
        r = rng.random()
        return field.zero if r < 0.25 else field.one if r < 0.35 else (
            rng.randrange(p), rng.randrange(p)
        )

    while True:
        pair = (entry(), entry())
        if not all(field.is_zero(e) for e in pair):
            return pair


def random_pushes(F, seed, draw=_random_pair, tables=300):
    """Random tables, classes 4-16, pairs with zero and non-one entries.

    Yields the table after every push; a probe push, retracted after its
    yield, comes before each kept push.  ``draw(F, rng)`` gives the pairs.
    """
    rng = random.Random(seed)
    for _ in range(tables):
        class_n = rng.randint(4, 16)
        st = ds.DictStructure(F, class_n)
        for d in range(2, class_n):
            for keep in (False, True):
                added = st.extend(d, draw(F, rng))
                yield st
                if not keep:
                    st.retract(d, added)


RANDOM_TABLE_FIELDS = pytest.mark.parametrize(
    "p, u, v", [(2, 1, 1), (3, 0, 2), (5, 0, 2), (7, 0, 3)], ids=["4", "9", "25", "49"]
)


@RANDOM_TABLE_FIELDS
def test_closed_form_matches_generic_bracket(p, u, v):
    """At every push of random tables (``random_pushes``): the closed-form
    Jacobi coefficients of every triple and ``check_new`` equal the
    three-term sums over the generic bracket, ``jacobi_forms`` is that of
    the open triples in order, and the cells equal those built with a
    per-cell choice of c^{-1}."""
    F = make_ext_field(p, u, v)
    pushes = nonzero = passed = 0
    for st in random_pushes(F, f"closed-form-{p}"):
        triples = ds.new_triples(st.top)
        forms = [oracle_jacobi(st, *t) for t in triples]
        assert oracle_jacobi_forms(st) == forms
        opened = st.open_triples()
        assert [t[1:] for t in opened] == [triples[n - 1] for n, *_ in opened]
        assert jacobi_forms(st) == [forms[n - 1] for n, *_ in opened]
        bad = [n for n, f in enumerate(forms, 1) if not F.is_zero(f)]
        if bad:
            u_, w_, g_ = triples[bad[0] - 1]
            want = (_label(max(u_, w_)), _label(min(u_, w_)), _label(g_)), bad[0]
        else:
            want = None, len(triples)
        assert st.check_new() == want
        assert st.vv == oracle_cells(st)
        pushes += 1
        nonzero += bool(bad)
        passed += not bad
    assert pushes > 4000 and nonzero > 1000 and passed > 1000


@RANDOM_TABLE_FIELDS
def test_proved_triples_vanish(p, u, v):
    """The chain lemma (``_Structure.open_triples``) at every push of random
    tables, valid or not: J(v_m, x, y) = 0 for m >= 3, and J(v_u, v_w, g) = 0
    for w > u + 1 and g the chain generator of degree u (x when a_u != 0,
    else y), by the generic bracket.  Every other triple is open, and some
    open triple with w = u + 1 is nonzero, so the bound matters."""
    F = make_ext_field(p, u, v)
    proved = adjacent_nonzero = 0
    for st in random_pushes(F, f"closed-form-{p}"):
        opened = []
        for n, (u_, w_, g_) in enumerate(ds.new_triples(st.top), 1):
            if w_ == 0:
                is_proved = u_ >= 3
            else:
                chain_gen = 0 if not F.is_zero(st.a[u_]) else 1
                is_proved = w_ > u_ + 1 and g_ == chain_gen
            if is_proved:
                assert F.is_zero(oracle_jacobi(st, u_, w_, g_)), (st.a, st.b, u_, w_, g_)
                proved += 1
            else:
                opened.append((n, u_, w_, g_))
                if w_ == u_ + 1:
                    adjacent_nonzero += not F.is_zero(oracle_jacobi(st, u_, w_, g_))
        assert st.open_triples() == opened
    assert proved > 1000 and adjacent_nonzero > 0


# -- the search ----------------------------------------------------------------


def test_jacobi_forms_linear_in_new_pair(f9):
    """At every node of the class-12 GF(9) search, and for every (a : b):

    the forms after pushing (a, b) are a*f(1, 0) + b*f(0, 1), they are the
    coefficients of the open triples, check_new reports the position of
    the first nonzero coefficient of all triples, and (a : b) passes
    check_new exactly when it lies in the projective kernel.
    """
    F = f9
    reps = projective_pairs(F)
    st = ds.DictStructure(F, 12)
    kinds = set()

    def forms_at(d, pair):
        added = st.extend(d, pair)
        forms = jacobi_forms(st)
        return added, forms

    def dfs(d):
        if d == 12:
            return
        added, at_x = forms_at(d, mc.ex_point(F))
        st.retract(d, added)
        added, at_y = forms_at(d, mc.ey_point(F))
        st.retract(d, added)
        admissible = []
        for a, b in reps:
            added, forms = forms_at(d, (a, b))
            assert forms == [F.add(F.mul(a, s), F.mul(b, t)) for s, t in zip(at_x, at_y)]
            fail, checked = st.check_new()
            full = oracle_jacobi_forms(st)
            assert forms == [full[n - 1] for n, *_ in st.open_triples()]
            nonzero = [n for n, f in enumerate(full, 1) if not F.is_zero(f)]
            assert (fail is None) == all(F.is_zero(f) for f in forms) == (not nonzero)
            assert checked == (len(full) if fail is None else nonzero[0])
            if fail is None:
                admissible.append((a, b))
                dfs(d + 1)
            st.retract(d, added)
        kernel = mc.projective_kernel(F, at_x, at_y)
        assert (reps if kernel is None else kernel) == admissible
        kinds.add(len(admissible))

    dfs(2)
    assert kinds == {0, 1, len(reps)}


@pytest.mark.parametrize(
    "p, u, v, class_n",
    [(2, 1, 1, 12), (2, 1, 1, 14), (3, 0, 2, 12), (3, 0, 2, 14), (5, 0, 2, 12), (7, 0, 3, 8)],
    ids=["4_12", "4_14", "9_12", "9_14", "25_12", "49_8"],
)
def test_search_matches_trial_push(p, u, v, class_n):
    """Same list in the same order, full and cut off at a limit.

    The full search gets a limit one above the oracle's count, so a search
    that admits too much stops there instead of running on.
    """
    field = make_ext_field(p, u, v)
    for limit in (1, 7, 50):
        assert mc.search_sequences(field, class_n, limit) == oracle_search_sequences(
            field, class_n, limit
        )
    full = oracle_search_sequences(field, class_n, 10**9)
    assert len(full) >= 50
    assert mc.search_sequences(field, class_n, len(full) + 1) == full


def _columns(st, d):
    """The degree-d forms at (1, 0) and at (0, 1)."""
    out = []
    for pair in (mc.ex_point(st.field), mc.ey_point(st.field)):
        added = st.extend(d, pair)
        out.append(jacobi_forms(st))
        st.retract(d, added)
    return tuple(out)


def _next_columns(st, d, pair):
    """The degree-(d+1) forms at (1, 0) and at (0, 1) after pushing ``pair`` at d."""
    added = st.extend(d, pair)
    cols = _columns(st, d + 1)
    st.retract(d, added)
    return cols


def free_nodes(field, class_n):
    """Every free node of the search whose children have a next degree.

    Yields (st, d, A, B) with ``st`` holding the node's prefix (top d), and
    A, B the next-degree columns of its children (1 : 0) and (0 : 1).
    """
    reps = projective_pairs(field)
    st = ds.DictStructure(field, class_n)

    def walk(d):
        if d == class_n:
            return
        kernel = mc.projective_kernel(field, *_columns(st, d))
        if kernel is None and d + 1 < class_n:
            ex, ey = mc.ex_point(field), mc.ey_point(field)
            yield st, d, _next_columns(st, d, ex), _next_columns(st, d, ey)
        for pair in reps if kernel is None else kernel:
            added = st.extend(d, pair)
            yield from walk(d + 1)
            st.retract(d, added)

    yield from walk(2)


FREE_NODE_SEARCHES = pytest.mark.parametrize(
    "p, u, v, class_n",
    [(2, 1, 1, 14), (3, 0, 2, 14), (5, 0, 2, 12), (7, 0, 3, 8)],
    ids=["4_14", "9_14", "25_12", "49_8"],
)


@FREE_NODE_SEARCHES
def test_children_columns_bilinear(p, u, v, class_n):
    """At a free node, child (a : b) pushed directly has columns a*A + b*B."""
    F = make_ext_field(p, u, v)
    nodes = 0
    for st, d, (ax, ay), (bx, by) in free_nodes(F, class_n):
        nodes += 1
        for a, b in projective_pairs(F):
            want = tuple(
                [F.add(F.mul(a, s), F.mul(b, t)) for s, t in zip(col_a, col_b)]
                for col_a, col_b in ((ax, bx), (ay, by))
            )
            assert _next_columns(st, d, (a, b)) == want, (d, a, b)
    assert nodes > 10


@FREE_NODE_SEARCHES
def test_free_children_cover_survivors(p, u, v, class_n):
    """Every child of a free node with a nonempty next kernel is a candidate.

    The candidates come in P^1(E) order with the columns the child has when
    pushed directly.  Both branches are exercised: some free node has fewer
    candidates than children (roots of a minor) and, over GF(4) and GF(9),
    some has all of them (every minor vanishes identically).
    """
    F = make_ext_field(p, u, v)
    reps = projective_pairs(F)
    sizes = set()
    for st, d, A, B in free_nodes(F, class_n):
        cands = list(mc.free_children(F, A, B))
        pairs = [pair for pair, _ in cands]
        assert pairs == [pair for pair in reps if pair in pairs]
        for pair, cols in cands:
            assert cols == _next_columns(st, d, pair)
        for pair in reps:
            if mc.projective_kernel(F, *_next_columns(st, d, pair)) != []:
                assert pair in pairs, (d, pair)
        sizes.add(len(pairs) == len(reps))
    assert False in sizes
    if p <= 3:
        assert True in sizes


@pytest.mark.parametrize(
    "p, u, v, class_n",
    [(5, 0, 2, 14), (7, 0, 3, 10), (3, 0, 2, 13), (7, 0, 3, 9)],
    ids=["25_14", "49_10", "9_13", "49_9"],
)
def test_search_matches_one_level(p, u, v, class_n):
    """Same list in the same order as the one-level search, cut off and full.

    Free nodes sit at even degrees, so only an odd class has free nodes
    whose children are leaves.
    """
    field = make_ext_field(p, u, v)
    for limit in (1, 7):
        assert mc.search_sequences(field, class_n, limit) == oracle_one_level_search(
            field, class_n, limit
        )
    full = oracle_one_level_search(field, class_n, 10**9)
    assert mc.search_sequences(field, class_n, len(full) + 1) == full


def search_nodes(field, class_n):
    """Every node the search visits, with its probe columns.

    Yields (st, d, cols, children) with ``st`` holding the node's prefix
    (top d), cols = ``_columns(st, d)``, and children the probe columns
    (A, B) of the children (1 : 0) and (0 : 1) at a free node whose
    children have a next degree, else None.  Below a node come the pairs
    of its projective kernel, or at a free node the candidates of
    ``free_children`` on A and B, both by their oracles.
    """
    ex, ey = mc.ex_point(field), mc.ey_point(field)
    st = ds.DictStructure(field, class_n)

    def walk(d):
        cols = _columns(st, d)
        if d + 1 == class_n:
            yield st, d, cols, None
            return
        kernel = oracle_projective_kernel(field, *cols)
        children = None
        if kernel is None:
            children = _next_columns(st, d, ex), _next_columns(st, d, ey)
            kernel = [pair for pair, _ in oracle_free_children(field, *children)]
        yield st, d, cols, children
        for pair in kernel:
            added = st.extend(d, pair)
            yield from walk(d + 1)
            st.retract(d, added)

    yield from walk(2)


BENCH_SEARCHES = [(2, 1, 1, 16, 405), (3, 0, 2, 16, 190), (5, 0, 2, 14, 676), (7, 0, 3, 10, 50)]
BENCH_SEARCH_IDS = ["4_16", "9_16", "25_14", "49_10"]


@pytest.mark.parametrize("p, u, v, class_n, count", BENCH_SEARCHES, ids=BENCH_SEARCH_IDS)
def test_linear_forms_match_probe_pushes(p, u, v, class_n, count):
    """At every node of the search, ``linear_forms`` equals the forms of the
    probe pushes at (1, 0) and (0, 1) and writes nothing into the table.
    The walk ends in as many presentations as the search finds."""
    F = make_ext_field(p, u, v)
    nodes = leaves = 0
    for st, d, cols, _ in search_nodes(F, class_n):
        before = _table_key(st)
        assert st.linear_forms() == cols, d
        assert _table_key(st) == before
        nodes += 1
        if d + 1 == class_n:
            kernel = mc.projective_kernel(F, *cols)
            leaves += F.order + 1 if kernel is None else len(kernel)
    assert nodes > 100
    assert leaves == count == len(mc.search_sequences(F, class_n, 10**9))


@pytest.mark.parametrize("p, u, v, class_n, count", BENCH_SEARCHES, ids=BENCH_SEARCH_IDS)
def test_kernels_match_oracles(p, u, v, class_n, count):
    """At every node of the search, ``projective_kernel`` of its columns and,
    at a free node, ``free_children`` of its children's columns (each
    child with its columns) equal their per-operation oracles."""
    F = make_ext_field(p, u, v)
    kinds = set()
    free = 0
    for _, _, cols, children in search_nodes(F, class_n):
        kernel = mc.projective_kernel(F, *cols)
        assert kernel == oracle_projective_kernel(F, *cols)
        kinds.add(None if kernel is None else len(kernel))
        if children is not None:
            got = list(mc.free_children(F, *children))
            assert got == list(oracle_free_children(F, *children))
            free += 1
    assert kinds == {None, 0, 1} and free > 0


def rescaled(field, pres, gamma):
    """sigma_gamma of the rescaling lemma (``search_sequences``): every pair
    (1 : s) becomes (1 : gamma*s), and (0 : 1) stays."""
    F = field
    return mc.MaxClassPresentation(F, pres.class_n, tuple(
        (a, F.mul(gamma, b)) if a == F.one else (a, b) for a, b in pres.adjoint
    ))


@pytest.mark.parametrize("p, u, v", [(2, 1, 1), (3, 0, 2), (5, 0, 2)], ids=["4", "9", "25"])
def test_rescaling_maps_found_onto_itself(p, u, v):
    """The rescaling lemma, without the search: for every gamma in E*,
    sigma_gamma maps the trial-push search's class-12 presentations onto
    themselves, each image passes ``validate``, and it is the presentation
    ``apply_degree1_change`` reads off the base change x' = x, y' = gamma*y
    (the lemma's proof)."""
    F = make_ext_field(p, u, v)
    found = oracle_search_sequences(F, 12, 10**9)
    assert len(found) >= 100
    for gamma in itertools.islice(F.elements(), 1, None):
        images = [rescaled(F, pres, gamma) for pres in found]
        assert set(images) == set(found), gamma
        for pres, image in zip(found, images):
            assert mc.validate(image).ok
            change = pc.apply_degree1_change(pres, (F.one, F.zero), (F.zero, gamma))
            assert change.adjoint == image.adjoint


def rescaled_blocks(field, found):
    """The runs of ``found`` that ``search_sequences`` emits by rescaling.

    Such a presentation's first pair other than (1 : 0) and (0 : 1) is
    (1 : t), t != 1, at a degree below class_n - 1: the nonzero child
    searched below a fixed node is the first in ``F.key`` order, t* = 1,
    whenever any nonzero child has a completion.  Runs are grouped by
    the pairs up to that one, as (start, end) indices into ``found``.
    """
    F = field
    fixed = {mc.ex_point(F), mc.ey_point(F)}
    runs = {}
    for n, pres in enumerate(found):
        k = next((k for k, pair in enumerate(pres.adjoint) if pair not in fixed), None)
        if k is not None and k + 3 < pres.class_n and pres.adjoint[k][1] != F.one:
            runs.setdefault(pres.adjoint[: k + 1], []).append(n)
    return [(ns[0], ns[-1] + 1) for ns in runs.values()]


TWO_LEVEL_SEARCHES = [
    *(
        pytest.param(p, u, v, class_n, "full", id=f"{name}-full")
        for (p, u, v, class_n, _), name in zip(BENCH_SEARCHES, BENCH_SEARCH_IDS)
    ),
    pytest.param(2, 1, 1, 18, "full", id="4_18-full"),
    pytest.param(3, 0, 2, 18, "full", id="9_18-full"),
    pytest.param(3, 0, 2, 12, "every", id="9_12-every"),
    pytest.param(7, 0, 3, 8, "every", id="49_8-every"),
    pytest.param(5, 0, 2, 14, "in-block", id="25_14-in-block"),
]


@pytest.mark.parametrize("p, u, v, class_n, limits", TWO_LEVEL_SEARCHES)
def test_search_matches_two_level(p, u, v, class_n, limits):
    """Same list in the same order as the search that searches every child
    (1 : t) of a fixed node (``paper_checks.oracle_two_level_search``).

    "full": at a limit one above the oracle's count, so a search that
    admits too much stops there.  "every": at every limit from 1 to that
    count + 1.  "in-block": at the middle of each block the search
    rescales (``rescaled_blocks``), so the limit cuts a sorted block.
    """
    field = make_ext_field(p, u, v)
    full = pc.oracle_two_level_search(field, class_n, 10**9)
    if limits == "full":
        cuts = [len(full) + 1]
    elif limits == "every":
        cuts = range(1, len(full) + 2)
    else:
        blocks = rescaled_blocks(field, full)
        cuts = [start + (end - start) // 2 for start, end in blocks if end - start > 1]
        assert len(cuts) == field.order - 2
    for limit in cuts:
        want = full if limit > len(full) else pc.oracle_two_level_search(field, class_n, limit)
        assert mc.search_sequences(field, class_n, limit) == want, limit


@RANDOM_TABLE_FIELDS
def test_linear_forms_match_probe_pushes_on_random_tables(p, u, v):
    """The same at every push of random tables (``random_pushes``), whose
    pairs have zero and non-one entries, so chain steps with c != 1 and
    branches over y are read."""
    F = make_ext_field(p, u, v)
    scaled = 0
    for st in random_pushes(F, f"linear-forms-{p}"):
        before = _table_key(st)
        assert st.linear_forms() == _columns(st, st.top)
        assert _table_key(st) == before
        scaled += any(c_inv != F.one for c_inv, _ in st.step.values())
    assert scaled > 1000


@RANDOM_TABLE_FIELDS
def test_kernels_match_oracles_on_random_tables(p, u, v):
    """``projective_kernel`` of the columns of every push of random tables
    (``random_pushes``, with c != 1 chain steps), and ``free_children`` of
    the columns of its children (1 : 0) and (0 : 1) one degree up, equal
    their per-operation oracles; all three kernel shapes and both branches
    of the children occur."""
    F = make_ext_field(p, u, v)
    ex, ey = mc.ex_point(F), mc.ey_point(F)
    kinds, every = set(), set()
    for st in random_pushes(F, f"kernels-{p}"):
        cols = st.linear_forms()
        kernel = mc.projective_kernel(F, *cols)
        assert kernel == oracle_projective_kernel(F, *cols)
        kinds.add(None if kernel is None else len(kernel))
        A, B = (_next_columns(st, st.top, pair) for pair in (ex, ey))
        got = list(mc.free_children(F, A, B))
        assert got == list(oracle_free_children(F, A, B))
        every.add(len(got) == F.order + 1)
    assert kinds == {None, 0, 1} and every == {False, True}


def test_kernel_matches_oracles_at_large_p():
    """At p = 1000003, with entries drawn coordinate by coordinate, at every
    push of random tables: the cells, the Jacobi coefficient of every
    triple, ``check_new`` and ``linear_forms`` equal their oracles; the
    kernel of the columns, of a rank-1 matrix and of a zero-padded one,
    and the first children of ``free_children`` on the probe columns and
    on columns built to have a root t0 (A = C - t0*B with C of rank 1),
    equal the per-operation ones.  Products of several-digit residues
    reach far beyond p, so a dropped or misplaced reduction shows."""
    F = make_ext_field(*BIG_P)
    ex, ey = mc.ex_point(F), mc.ey_point(F)
    rng = random.Random("large-p")
    shapes = set()
    pushes = rooted_found = 0
    for st in random_pushes(F, "large-p", draw=_residue_pair, tables=40):
        triples = ds.new_triples(st.top)
        assert st.vv == oracle_cells(st)
        assert [st.jacobi(*t) for t in triples] == [oracle_jacobi(st, *t) for t in triples]
        assert st.check_new() == oracle_first_failure(st)
        cols = st.linear_forms()
        assert cols == _columns(st, st.top)
        lam = _residue_pair(F, rng)[0]
        rank1 = (cols[0], [F.mul(lam, x) for x in cols[0]])
        padded = ([F.zero] + cols[1], [F.zero] + [F.mul(lam, x) for x in cols[1]])
        for at_x, at_y in (cols, rank1, padded):
            kernel = mc.projective_kernel(F, at_x, at_y)
            assert kernel == oracle_projective_kernel(F, at_x, at_y)
            shapes.add(None if kernel is None else len(kernel))
        A, B = (_next_columns(st, st.top, pair) for pair in (ex, ey))
        t0 = (rng.randrange(F.p), rng.randrange(F.p))
        rs = [_residue_pair(F, rng)[0] for _ in B[0]]
        C = (rs, [F.mul(lam, r) for r in rs])
        rooted = tuple(
            [F.sub(c, F.mul(t0, b)) for c, b in zip(col_c, col_b)] for col_c, col_b in zip(C, B)
        )
        for a_cols in (A, rooted):
            # at most 2 roots and (0 : 1), unless every minor vanishes and E is enumerated
            got = list(itertools.islice(mc.free_children(F, a_cols, B), 4))
            assert got == list(itertools.islice(oracle_free_children(F, a_cols, B), 4))
        if len(got) < 4:
            assert ((F.one, t0), C) in got
            rooted_found += 1
        pushes += 1
    assert pushes > 500 and shapes == {None, 0, 1} and rooted_found > 100


# -- structure detection ----------------------------------------------------


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ThinLieError as exc:
        return (type(exc).__name__, str(exc))


def oracle_detect_structure(analysis, window=None):
    """``detect_structure`` by one scan of the window per tail T^k."""
    if analysis.verdict.kind != "thin":
        raise PreconditionFailed("structure detection expects a thin subalgebra")
    window = analysis.window if window is None else window
    st = pc.table(analysis.pres)
    F = st.field

    def tail_abelian(k):
        return all(
            F.is_zero(pc.vv(st, i, j))
            for i in range(k, window) for j in range(i + 1, window - i + 1)
        )

    if tail_abelian(2):
        return rec.StructureFlags(metabelian=True, k=2, detection="metabelian")
    for k in range(3, (window - 1) // 2 + 1):
        if tail_abelian(k):
            return rec.StructureFlags(metabelian=False, k=k, detection="abelian-window")
    if not tail_abelian(3):
        return rec.StructureFlags(metabelian=False, k=3, detection="insoluble-or-undetected")
    raise WindowTooSmall(
        "no abelian tail confirmed and no nonzero bracket witnessed in T^3"
    )


def test_detect_structure_matches_tail_scans(search4_12, search9_12, thin_pair_f9, rc_pair):
    """The largest nonzero bracket degree against one scan per tail, on
    two pairs at every window; all five outcomes occur.  Where the
    centralizers in the window are more than one point, the flags come
    from rows derived up to the window, and those rows hold the cells of
    the whole table there; elsewhere no row is derived."""
    outcomes, derived = set(), 0
    for pres in search4_12 + search9_12:
        full = ds.cells(pc.table(pres))
        for pair in (thin_pair_f9, rc_pair):
            for window in range(4, pres.class_n + 1):
                an = sf.generate_subalgebra(pres, pair, window)
                got = _outcome(rec.detect_structure, an)
                flags, st = got[1] if got[0] == "ok" else (None, None)
                if flags is not None:
                    got = ("ok", flags)
                    assert (st is None) == flags.metabelian
                assert got == _outcome(oracle_detect_structure, an), (pres.adjoint, pair, window)
                outcomes.add(got[1].detection if got[0] == "ok" else got[0])
                if st is not None:
                    derived += 1
                    assert st.top == window
                    assert ds.cells(st) == {ij: c for ij, c in full.items() if sum(ij) <= window}
    assert outcomes == {
        "metabelian", "abelian-window", "insoluble-or-undetected",
        "WindowTooSmall", "PreconditionFailed",
    }
    assert derived > 100


@pytest.mark.parametrize(
    "p, u, v, class_n, count, metabelian_count",
    [(2, 1, 1, 14, 7535, 1295), (3, 0, 2, 14, 11000, 3620), (5, 0, 2, 12, 6084, 4784),
     (7, 0, 3, 10, 350, 350)],
    ids=["4_14", "9_14", "25_12", "49_10"],
)
def test_metabelian_window_lemma(p, u, v, class_n, count, metabelian_count):
    """The metabelian-window lemma (``reconstruct.detect_structure``):
    the cells [v_i, v_j], 2 <= i < j, i + j <= window, all vanish
    (``_top_bracket`` < 2 on the whole table) iff C_2 .. C_{window-1} are
    one point, on every searched presentation and every window 4 .. class.
    The case counts are pinned, so no search can shrink unseen."""
    cases = metabelian = 0
    for pres in mc.search_sequences(make_ext_field(p, u, v), class_n, 10**9):
        seq, st = mc.two_step_centralizers(pres), pc.table(pres)
        for window in range(4, class_n + 1):
            one = len(seq.distinct(window)) == 1
            assert one == (rec._top_bracket(st, window) < 2), (pres.adjoint, window)
            cases += 1
            metabelian += one
    assert (cases, metabelian) == (count, metabelian_count)


# -- the subalgebra <X, Y> and the raw scan ------------------------------------


def oracle_d_values(l1, seq, window):
    """d_i = dim_F(C_i \\cap l1) for i = 2 .. window - 1, one span per degree."""
    out = []
    for i in range(2, window):
        # the F-plane of the E-line through the point: its doubled rows
        sp = span(l1.p, l1.basis() + doubled_rows(seq.field, [seq.point(i)]), 4)
        out.append(4 - sp.dim)
    return tuple(out)


def oracle_generate_subalgebra(pres, g, window=None):
    """Generate L = <X, Y> degree by degree and classify it within the window.

    Returns the canonical bases of L_1 .. L_window, their dimensions, d
    (None for a degenerate pair) and the verdict.
    """
    F = pres.field
    window = pres.class_n if window is None else window
    if not 4 <= window <= pres.class_n:
        raise BadBound(f"window {window} not in [4, {pres.class_n}]")
    pc.table(pres)
    seq = mc.two_step_centralizers(pres)

    l1 = RowSpace(F.p, 4)
    l1.insert(sf.deg1_to_f4(g.X))
    l1.insert(sf.deg1_to_f4(g.Y))
    if g.is_degenerate(F):
        bases = (tuple(l1.basis()),) + ((),) * (window - 1)
        return bases, tuple(len(b) for b in bases), None, sf.Verdict(kind="degenerate")

    bases = [tuple(l1.basis())]
    prev = l1
    for i in range(1, window):
        nxt = RowSpace(F.p, 2)
        for r in prev.basis():
            for gen in (g.X, g.Y):
                nxt.insert(pc.ad_gen(pres, i, r, gen))
        bases.append(tuple(nxt.basis()))
        prev = nxt
    d = oracle_d_values(l1, seq, window)
    return tuple(bases), tuple(len(b) for b in bases), d, sf._classify(d, window)


def oracle_scan(pres, window=None, raw=False):
    """Classify every generator pair one by one and tabulate the verdicts.

    Each pair's d-values are ranked by ``oracle_d_values``, one span per
    degree, so the scan's F-determinant key is checked, not reused.
    """
    F = pres.field
    if not mc.is_standard(pres):
        raise NotStandardForm("scan expects a standard-form presentation")
    window = pres.class_n if window is None else window
    if not 4 <= window <= pres.class_n:
        raise BadBound(f"window {window} not in [4, {pres.class_n}]")
    seq = mc.two_step_centralizers(pres)
    q = F.order
    count = q**4 - 1 if raw else q * q
    pairs = list(pc.raw_pairs(F)) if raw else pc.normalized_pairs(F)

    counts = {"thin": 0, "maximal": 0, "rconstrained": 0, "degenerate": 0}
    gaps = {}
    for g in pairs:
        if g.is_degenerate(F):
            v = sf.Verdict(kind="degenerate")
        else:
            l1 = span(F.p, [sf.deg1_to_f4(g.X), sf.deg1_to_f4(g.Y)], 4)
            v = sf._classify(oracle_d_values(l1, seq, window), window)
        counts[v.kind] += 1
        if v.kind == "rconstrained":
            key = str(v.r_observed) if v.r_observed is not None else "unobserved"
            gaps[key] = gaps.get(key, 0) + 1
    thin_by_lines = None
    agree = None
    if not raw:
        thin_by_lines = pc.line_avoidance_walk(pres, window)
        agree = thin_by_lines == counts["thin"]
    return sf.ScanTable(
        window=window,
        mode="raw" if raw else "normalized",
        total=count,
        counts=counts,
        rconstrained_gaps=dict(sorted(gaps.items())),
        thin_direct=counts["thin"],
        thin_by_lines=thin_by_lines,
        agree=agree,
    )


def _analysis_key(an):
    return pc.bases(an), an.dims, an.d, an.verdict


@pytest.mark.parametrize(
    "which, raw, windows",
    [
        ("dev9_14", True, (4, 9, 14)),
        ("dev25_14", False, (14,)),
        ("dev4_12", True, (12,)),
        ("metabelian9_12", True, (12,)),
    ],
    ids=["dev9_14-raw", "dev25_14-normalized", "dev4_12-raw", "metabelian9_12-raw"],
)
def test_generate_matches_rowspace(request, f9, which, raw, windows):
    """The closed form against the degree-by-degree RowSpace generation.

    Same bases (``paper_checks.bases``), dims, d and verdict for every
    pair, degenerate ones included; every verdict kind occurs on the
    deviating inputs.
    """
    pres = (
        mc.make_metabelian(f9, 12) if which == "metabelian9_12"
        else request.getfixturevalue(which)
    )
    F = pres.field
    pairs = list(pc.raw_pairs(F)) if raw else pc.normalized_pairs(F)
    kinds = set()
    for window in windows:
        amb = sf._Ambient(pres, window)
        for g in pairs:
            an = sf.generate_subalgebra(pres, g, window)
            want = oracle_generate_subalgebra(pres, g, window)
            assert _analysis_key(an) == want, (g, window)
            if want[2] is not None:
                key = sf._d_key(amb, g)
                assert tuple(key[k] for k in amb.slots) == want[2], (g, window)
            kinds.add(an.verdict.kind)
    assert "thin" in kinds and "degenerate" in kinds
    if which in ("dev9_14", "dev4_12"):
        assert kinds == {"thin", "maximal", "rconstrained", "degenerate"}


@pytest.mark.parametrize(
    "which, window",
    [("dev9_14", 6), ("dev9_14", 9), ("dev9_14", 14), ("dev4_12", 12), ("metabelian4_6", 6)],
    ids=["dev9_14-6", "dev9_14-9", "dev9_14-14", "dev4_12-12", "metabelian4_6-6"],
)
def test_raw_scan_matches_pairs(request, f4, which, window):
    """Planes weighted by |GL_2(F)| against the pair-by-pair raw scan.  At
    window 9, dev9_14 deviates only at degree 6, and the planes whose one
    zero is there give the gap key "unobserved"."""
    pres = (
        mc.make_metabelian(f4, 6) if which == "metabelian4_6"
        else request.getfixturevalue(which)
    )
    table = sf.scan(pres, window, raw=True)
    assert table == oracle_scan(pres, window, raw=True)
    if (which, window) == ("dev9_14", 9):
        assert "unobserved" in table.rconstrained_gaps


def test_d_key_matches_rowspace_on_every_raw_pair(dev25_14):
    """The F-determinant key against the RowSpace d-values on every
    E-independent raw pair of dev25_14 at window 14: each is an ordered
    basis of one E-independent F-plane, so the oracle runs once per plane."""
    F = dev25_14.field
    p, q = F.p, F.order
    amb = sf._Ambient(dev25_14, 14)
    gl2 = [m for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p]
    pairs = 0
    for plane in pc.f_planes(F):
        if plane.is_degenerate(F):
            continue
        r0, r1 = sf.deg1_to_f4(plane.X), sf.deg1_to_f4(plane.Y)
        want = oracle_d_values(span(p, [r0, r1], 4), amb.centralizers, 14)
        for a, b, c, d in gl2:
            X = pc.f4_to_deg1([(a * s + b * t) % p for s, t in zip(r0, r1)])
            Y = pc.f4_to_deg1([(c * s + d * t) % p for s, t in zip(r0, r1)])
            key = sf._d_key(amb, sf.GeneratorPair(X, Y))
            assert tuple(key[k] for k in amb.slots) == want, (X, Y)
            pairs += 1
    assert pairs == (q * q - 1) * (q * q - q)


def _rank_pair(p, x, y):
    """The closed-form rank_F{X, Y} and its RowSpace oracle for two F^4 rows."""
    g = sf.GeneratorPair(pc.f4_to_deg1(x), pc.f4_to_deg1(y))
    return sf._f_rank(p, g), span(p, [x, y], 4).dim


@pytest.mark.parametrize("p", [2, 3])
def test_f_rank_matches_span_on_every_pair(p):
    """``subfield._f_rank`` (the 2x2 minors) against the RowSpace rank on
    every ordered pair of F^4 vectors."""
    vectors = list(itertools.product(range(p), repeat=4))
    seen = set()
    for x in vectors:
        for y in vectors:
            got, want = _rank_pair(p, x, y)
            assert got == want, (x, y)
            seen.add(got)
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("p", [5, 7, 1000003])
def test_f_rank_matches_span_on_seeded_pairs(p):
    """The same on seeded pairs, a third of them forced to rank 0 or 1: the
    zero pair, a zero generator, and y = c*x.  At p = 1000003 the minors are
    products of several-digit residues, so a missed reduction shows."""
    rng = random.Random(f"f-rank-{p}")
    ranks = []
    for n in range(300):
        x = [rng.randrange(p) for _ in range(4)]
        c = rng.randrange(p)
        y = [rng.randrange(p) for _ in range(4)]
        if n % 3 == 1:
            y = [c * a % p for a in x]
        elif n % 3 == 2:
            x, y = ([0] * 4, [0] * 4) if n % 2 else ([0] * 4, y)
        got, want = _rank_pair(p, tuple(x), tuple(y))
        assert got == want, (x, y)
        ranks.append(got)
    assert set(ranks) == {0, 1, 2}


@pytest.mark.parametrize(
    "which, window",
    [("dev9_14", 9), ("dev9_14", 14), ("dev25_14", 14), ("metabelian49_20", 20)],
    ids=["dev9_14-9", "dev9_14-14", "dev25_14-14", "metabelian49_20-20"],
)
def test_normalized_scan_matches_pairs(request, which, window):
    """The per-key normalized scan against the pair-by-pair one."""
    pres = (
        mc.make_metabelian(make_ext_field(7, 0, 3), 20) if which == "metabelian49_20"
        else request.getfixturevalue(which)
    )
    table = sf.scan(pres, window)
    assert table == oracle_scan(pres, window)
    assert table.agree


@pytest.mark.parametrize("p, u, v", [(2, 1, 1), (3, 0, 2), (5, 0, 2)], ids=["4", "9", "25"])
def test_f_planes(p, u, v):
    """Distinct rref planes, as many as Gr(2, F^4) has; the E-independent
    ones, times |GL_2(F)| ordered bases each, are the |GL_2(E)| raw pairs
    that are not degenerate."""
    F = make_ext_field(p, u, v)
    planes = pc.f_planes(F)
    rows = [(sf.deg1_to_f4(g.X), sf.deg1_to_f4(g.Y)) for g in planes]
    assert len(set(rows)) == len(rows)
    for pair in rows:
        assert tuple(span(F.p, pair, 4).basis()) == pair
    assert len(planes) == (p**4 - 1) * (p**4 - p) // ((p**2 - 1) * (p**2 - p))
    q = p * p
    independent = sum(1 for g in planes if not g.is_degenerate(F))
    assert independent * (p**2 - 1) * (p**2 - p) == (q**2 - 1) * (q**2 - q)


# -- the scan in closed form: Baer sublines against the walks -----------------


def _assert_scan_counts(amb):
    """The subline key counts, in both modes, and the affine-line thin
    count against the pair walks they replaced."""
    for raw in (False, True):
        assert sf._key_counts(amb, raw) == pc.pair_walk_keys(amb, raw), (amb.points, raw)
    args = (amb.pres, amb.window, amb.centralizers)
    thin = sf.count_thin_by_line_avoidance(*args)
    assert thin == pc.line_avoidance_loop(*args) == pc.line_avoidance_walk(*args), amb.points


@pytest.mark.parametrize(
    "which, sizes",
    [
        ("search4_12", {1, 2, 3}),
        ("search4_24", {1, 2, 3, 4}),
        ("search9_12", {1, 2}),
        ("search9_14", {1, 2, 3}),
        ("search25_12", {1, 2}),
        ("search25_14", {1, 2}),
    ],
)
def test_key_counts_match_pair_walk_on_searched(request, which, sizes):
    """On every searched presentation, put in standard form by
    ``maxclass.standardize`` of its centralizers, at every window.  The
    counts depend on the distinct points alone, so each point set is
    checked once; ``sizes`` are the numbers of points that occur."""
    if which == "search4_24":
        found = mc.search_sequences(make_ext_field(2, 1, 1), 24, 10**9)
    else:
        found = request.getfixturevalue(which)
    seen = {}
    for pres in found:
        seq = mc.standardize(mc.two_step_centralizers(pres))
        for window in range(4, pres.class_n + 1):
            seen.setdefault(tuple(seq.distinct(window)), (pres, window, seq))
    for pres, window, seq in seen.values():
        _assert_scan_counts(sf._Ambient(pres, window, seq))
    assert {len(points) for points in seen} == sizes


def _all_sublines(F):
    """Every Baer subline of P^1(E), by enumerating the F-planes: B(U) is
    the set of normalized points of alpha*X + beta*Y, (alpha : beta) in
    P^1(F), for each E-independent plane U = span_F{X, Y}."""
    sublines = {}
    for g in pc.f_planes(F):
        if g.is_degenerate(F):
            continue
        on = set()
        for a, b in [(1, t) for t in range(F.p)] + [(0, 1)]:
            A = F.add(F.scale(a, g.X[0]), F.scale(b, g.Y[0]))
            B = F.add(F.scale(a, g.X[1]), F.scale(b, g.Y[1]))
            on.add(mc.ey_point(F) if F.is_zero(A) else (F.one, F.div(B, A)))
        sublines[frozenset(on)] = sublines.get(frozenset(on), 0) + 1
    p = F.p
    assert {len(b) for b in sublines} == {p + 1}
    assert set(sublines.values()) == {p + 1}
    assert len(sublines) == p * (p * p + 1)
    return list(sublines)


def _constructed_point_sets(F, rng):
    """Sets of 4-6 points with Ey first: random ones, and ones holding 4,
    5 or 6 points of the subline P^1(F) = {Ey} + {(1 : t) : t in F}."""
    ey = mc.ey_point(F)
    others = [(F.one, lam) for lam in F.elements()]
    sets = [[ey] + rng.sample(others, 3 + n % 3) for n in range(12)]
    on_f = [(F.one, (t, 0)) for t in range(F.p)]
    for k in (4, 5, 6):
        base = on_f[: k - 1]
        rest = [pt for pt in others if pt not in base]
        sets.append([ey] + base + rng.sample(rest, k - 1 - len(base)))
    return sets


@pytest.mark.parametrize("p, u, v", [(3, 0, 2), (5, 0, 2)], ids=["9", "25"])
def test_subline_counts_match_plane_enumeration(p, u, v):
    """``subfield._subline_counts`` against the sublines enumerated plane
    by plane, on constructed sets of 4-6 points (searches give such sets
    only over GF(4)); on the same sets the scan's counts match the walks.
    Sublines through 4 points, and through all p + 1 of P^1(F), occur."""
    F = make_ext_field(p, u, v)
    sublines = _all_sublines(F)
    rng = random.Random(f"sublines-{p}")
    largest = set()
    for points in _constructed_point_sets(F, rng):
        want = {}
        for b in sublines:
            key = tuple(int(pt in b) for pt in points)
            want[key] = want.get(key, 0) + 1
        got = sf._subline_counts(F, points)
        assert got == want, points
        largest.add(max(sum(key) for key in got))
        class_n = len(points) + 2
        seq = mc.CentralizerSequence(F, tuple(points))
        _assert_scan_counts(sf._Ambient(mc.make_metabelian(F, class_n), class_n, seq))
    assert 4 in largest and p + 1 in largest


def _lambda_sets(F, rng):
    """Sets of lambdas: eight random ones of 0-7 points; for each m in
    3 .. min(7, p + 1), m points of a random circle N(x - z) = r, alone
    and with two random points more; and for each m in 2 .. min(6, p), m
    points of a random affine F-line."""
    E = list(F.elements())
    p = F.p
    sets = [rng.sample(E, rng.randrange(min(8, len(E) + 1))) for _ in range(8)]
    for m in range(3, min(7, p + 1) + 1):
        z, r = rng.choice(E), rng.randrange(1, p)
        circle = [x for x in E if F.norm(F.sub(x, z)) == r]
        assert len(circle) == p + 1
        sets += [rng.sample(circle, m), rng.sample(circle, m) + rng.sample(E, 2)]
    for m in range(2, min(6, p) + 1):
        a, w = rng.choice(E), rng.choice([x for x in E if x != F.zero])
        sets.append([F.add(a, F.scale(t, w)) for t in rng.sample(range(p), m)])
    return [list(dict.fromkeys(lams)) for lams in sets]


@pytest.mark.parametrize(
    "p, u, v", [(2, 1, 1), (3, 0, 2), (5, 0, 2), (7, 0, 3), (11, 0, 10), (13, 0, 11)]
)
def test_line_count_matches_loop_on_constructed_sets(p, u, v):
    """The closed form of ``subfield.count_thin_by_line_avoidance`` against
    the loop over every beta, and for q <= 49 against the walk over every
    normalized pair, on the sets of ``_lambda_sets``.  Searched
    presentations have at most three lambdas, so only the concyclic sets
    here put four or more on a circle, and only the constructed sets put
    four or more on an affine F-line."""
    F = make_ext_field(p, u, v)
    rng = random.Random(f"line-count-{p}")
    for lams in _lambda_sets(F, rng):
        points = (mc.ey_point(F),) + tuple((F.one, lam) for lam in lams)
        window = len(points) + 2
        args = (mc.make_metabelian(F, max(4, window)), window, mc.CentralizerSequence(F, points))
        thin = sf.count_thin_by_line_avoidance(*args)
        assert thin == pc.line_avoidance_loop(*args), lams
        if p <= 7:
            assert thin == pc.line_avoidance_walk(*args), lams


@pytest.mark.parametrize("p, u, v", [(2, 1, 1), (3, 0, 2), (5, 0, 2), (7, 0, 3)])
def test_subline_counts_on_the_whole_line(p, u, v):
    """With every point of P^1(E) given, each subline meets them in its
    p + 1 points, and the p(p^2 + 1) sublines are all distinct keys."""
    F = make_ext_field(p, u, v)
    points = [mc.ey_point(F)] + [(F.one, lam) for lam in F.elements()]
    got = sf._subline_counts(F, points)
    assert set(got.values()) == {1}
    assert {sum(key) for key in got} == {p + 1}
    assert len(got) == p * (p * p + 1)


# -- the endomorphism field ------------------------------------------------------

# (p, u, v, class) of the metabelian algebras; the others are fixtures
_METABELIAN = {
    "metabelian4_10": (2, 1, 1, 10),
    "metabelian9_10": (3, 0, 2, 10),
    "metabelian9b_10": (3, 1, 1, 10),
    "metabelian9b_12": (3, 1, 1, 12),
    "metabelian25_10": (5, 0, 2, 10),
    "metabelian9_14": (3, 0, 2, 14),
    "metabelian25_14": (5, 0, 2, 14),
    "metabelian9_40": (3, 0, 2, 40),
    "metabelian25_40": (5, 0, 2, 40),
    "metabelian49_10": (7, 0, 3, 10),
}


def _presentation(request, which):
    if which == "dev9mu":
        with open(Path(__file__).parent / "golden" / "dev9mu.json", encoding="utf-8") as fh:
            return mc.from_json(json.load(fh))
    if which in _METABELIAN:
        p, u, v, class_n = _METABELIAN[which]
        return mc.make_metabelian(make_ext_field(p, u, v), class_n)
    return request.getfixturevalue(which)


# -- endo: one linear-form step per degree --------------------------------------


def test_grend0_brackets_each_degree_once(monkeypatch, thin_pair_f9):
    """The propagated solve brackets each basis row of L_3 .. L_{window-1}
    with X and Y once: 2 * sum(dim L_i) calls of ad_gen.
    ``endo.identify_field`` brackets nothing and inserts no row, at class
    40 or 160: it reads dim L_3 and (p, u, v) alone."""
    calls, inserts = [], []
    ad_gen, insert = pc.ad_gen, RowSpace.insert
    monkeypatch.setattr(pc, "ad_gen", lambda *args: calls.append(args) or ad_gen(*args))
    monkeypatch.setattr(
        RowSpace, "insert", lambda self, vec: inserts.append(vec) or insert(self, vec)
    )
    analyses = {
        class_n: sf.generate_subalgebra(
            mc.make_metabelian(make_ext_field(3, 0, 2), class_n), thin_pair_f9
        )
        for class_n in (40, 160)
    }
    pc.solve_graded_maps(analyses[40])
    assert len(calls) == 2 * sum(analyses[40].dim(i) for i in range(3, 40)) == 148
    for an in analyses.values():
        del calls[:], inserts[:]
        assert endo.identify_field(an).dim == 2
        assert (len(calls), len(inserts)) == (0, 0)


def test_c3_equals_c2_on_every_valid_gf4_presentation():
    """The Jacobi identity on (v_2, x, y) gives a_2*b_3 = b_2*a_3, so
    C_3 = C_2 (the ``endo`` lemma) and End_0(L^3) is never End_F(L_3):
    every adjoint choice of class 4 and 5 over GF(4) that validates."""
    F = make_ext_field(2, 1, 1)
    elems = list(F.elements())
    pairs = [(a, b) for a in elems for b in elems if not F.is_zero(a) or not F.is_zero(b)]
    valid = 0
    for class_n in (4, 5):
        for adjoint in itertools.product(pairs, repeat=class_n - 2):
            pres = mc.MaxClassPresentation(F, class_n, adjoint)
            if mc.validate(pres).ok:
                valid += 1
                seq = mc.two_step_centralizers(pres)
                assert seq.point(3) == seq.point(2), adjoint
    assert valid == 720


_CLOSED_FORM_SAMPLE = 200


def _propagated(an):
    """The report of the propagation oracle."""
    return pc.identify_field_per_degree(pc.propagated_grend0(an)).report()


@pytest.mark.parametrize(
    "which",
    ["dev9_14", "dev9mu", "metabelian9_14", "metabelian25_14", "metabelian49_10", "dev25_14"],
)
def test_closed_form_matches_propagation(request, which):
    """End_0 from dim L_3 and (p, u, v) against the degree-by-degree solve
    and Schur check: the same FieldId report, or the same error, at
    windows 4, 5 and the class.  Every non-degenerate raw pair
    of dev9_14 and dev9mu, every non-degenerate normalized pair of the
    metabelian algebra over GF(9), and a seeded sample of the others (raw
    pairs of dev25_14, normalized pairs of the metabelian algebras over
    GF(25) and GF(49)).

    L, and with it the propagated ring, depends only on the F-plane
    U = span_F{X, Y} (the ``subfield`` docstring), so the oracle runs once
    per plane and window and the package runs on every pair."""
    pres = _presentation(request, which)
    F = pres.field
    rng = random.Random(f"closed-form-{which}")
    if which.startswith("metabelian"):
        pairs = [g for g in pc.normalized_pairs(F) if not g.is_degenerate(F)]
        if F.p > 3:
            pairs = rng.sample(pairs, _CLOSED_FORM_SAMPLE)
    elif F.p == 3:
        pairs = [g for g in pc.raw_pairs(F) if not g.is_degenerate(F)]
    else:
        elems = list(F.elements())
        pairs = []
        while len(pairs) < _CLOSED_FORM_SAMPLE:
            g = sf.GeneratorPair(*(tuple(rng.choices(elems, k=2)) for _ in "XY"))
            if not g.is_degenerate(F):
                pairs.append(g)
    outcomes = set()
    for window in sorted({4, 5, pres.class_n}):
        amb = sf._Ambient(pres, window)
        oracle = {}
        for g in pairs:
            an = sf._analyse(amb, g)
            plane = pc.basis(an, 1)
            if plane not in oracle:
                oracle[plane] = _outcome(_propagated, an)
            got = _outcome(endo.identify_field, an)
            assert got == oracle[plane], (window, g)
            outcomes.add(got[1].dim if got[0] == "ok" else got[0])
    assert outcomes == ({2} if which.startswith("metabelian") else {1, 2})


def _ring_report(an):
    """The report of the bottom-degree ring solve."""
    return pc.identify_field_of_ring(pc.compute_grend0(an)).report()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_identify_field_closed_form_matches_ring(p):
    """The closed form in (p, u, v) and dim L_3 against the ring solve it
    replaced: the same FieldId report, or the same error, on every
    irreducible t^2 - u*t - v, on the first 10 searched presentations of
    class 8, for 10 seeded pairs each (degenerate ones included), at
    windows 4, 5 and 8."""
    outcomes = set()
    for u, v in itertools.product(range(p), repeat=2):
        if not quadratic_is_irreducible(p, u, v):
            continue
        F = make_ext_field(p, u, v)
        rng = random.Random(f"closed-form-ring-{F}")
        elems = list(F.elements())
        for pres in mc.search_sequences(F, 8, 10):
            pairs = [
                sf.GeneratorPair(*(tuple(rng.choices(elems, k=2)) for _ in "XY"))
                for _ in range(10)
            ]
            for window in (4, 5, 8):
                amb = sf._Ambient(pres, window)
                for g in pairs:
                    an = sf._analyse(amb, g)
                    got = _outcome(endo.identify_field, an)
                    assert got == _outcome(_ring_report, an), (F, pres.adjoint, g, window)
                    outcomes.add(got[1].embedding if got[0] == "ok" else got[0])
    assert outcomes == {"n/a", "mu_conj", "DegenerateGenerators"} | ({"mu"} if p > 2 else set())


@pytest.mark.parametrize(
    "which, embeddings",
    [
        ("metabelian4_10", {"n/a", "mu_conj"}),
        ("metabelian9_10", {"mu_conj"}),  # mu^2 = 2
        ("metabelian9b_10", {"mu"}),  # mu^2 = mu + 1
        ("metabelian25_10", {"mu"}),
        ("dev9_14", {"mu_conj"}),
        ("dev25_14", {"mu"}),
    ],
)
def test_identify_field_matches_ring_on_every_pair(request, which, embeddings):
    """The closed form against the ring solve at the class, on every
    non-degenerate normalized pair (every raw pair over GF(4), so that the
    dimension-1 rings of maximal pairs occur too); both embeddings occur.
    E lies in End_0(L^3) of a thin L, so there its field is quadratic."""
    pres = _presentation(request, which)
    F = pres.field
    seen = set()
    for g in pc.raw_pairs(F) if F.p == 2 else pc.normalized_pairs(F):
        if g.is_degenerate(F):
            continue
        an = sf.generate_subalgebra(pres, g)
        got = endo.identify_field(an)
        assert got == _ring_report(an), g
        assert got.dim == 2 or an.verdict.kind != "thin", g
        seen.add(got.embedding)
    assert seen == embeddings

# -- int_kernel: the oracles' GF(p) kernel against Gauss-Jordan elimination ----


def oracle_apply(p, rows, vec):
    """The row-vector action vec . rows mod p, one entry at a time."""
    assert len(vec) == len(rows)
    out = [0] * len(rows[0])
    for c, row in zip(vec, rows):
        if c % p == 0:
            continue
        for j, x in enumerate(row):
            out[j] = (out[j] + c * x) % p
    return out


def oracle_mul(p, a, b, ncols=None):
    """The product a . b mod p entry by entry; ``ncols`` is needed when b has no rows."""
    ncols = len(b[0]) if ncols is None else ncols
    out = []
    for r in a:
        row = []
        for j in range(ncols):
            acc = 0
            for k in range(len(b)):
                acc = (acc + r[k] * b[k][j]) % p
            row.append(acc)
        out.append(row)
    return out


def oracle_rref(p, rows, ncols):
    """Gauss-Jordan elimination mod p of the whole matrix, pivot by pivot:
    (rank, reduced rows, pivots, kernel rows)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [inv * x % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    kernel_rows = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][j] % p
        kernel_rows.append(vec)
    return r, rows, tuple(pivots), kernel_rows


def oracle_solve(p, rows, vec):
    """Coordinates read off the Gauss-Jordan form of the augmented columns."""
    n = len(rows)
    aug = [[r[j] for r in rows] + [x] for j, x in enumerate(vec)]
    _, reduced, pivots, _ = oracle_rref(p, aug, n + 1)
    if pivots != tuple(range(n)):
        raise ValueError("rows are dependent or the vector is outside their span")
    return [reduced[i][n] for i in range(n)]


def _solve_outcome(fn, p, rows, vec):
    try:
        return ("ok", fn(p, rows, vec))
    except ValueError as exc:
        return ("ValueError", str(exc))


def _random_matrix(p, rng, nrows, ncols, elems):
    """Sparse random rows, a low-rank product, or rows with zero and
    duplicate rows mixed in; entries are drawn from ``elems``."""

    def entry():
        return 0 if rng.random() < 0.4 else rng.choice(elems)

    shape = rng.randrange(3)
    if shape == 0:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    rank = rng.randint(0, min(nrows, ncols))
    if shape == 1:
        left = [[entry() for _ in range(rank)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(rank)]
        return oracle_mul(p, left, right, ncols)
    rows = [[entry() for _ in range(ncols)] for _ in range(rank)]
    while len(rows) < nrows:
        duplicate = rows and rng.random() < 0.5
        rows.append(list(rng.choice(rows)) if duplicate else [0] * ncols)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [2, 3, 7, 1000003])
def test_int_kernel_reduces_entries(p):
    """Entries that are negative or >= p stand for their residues:
    ``span``, ``basis``, ``kernel``, ``coords``, ``insert``'s return value
    and ``solve`` (equal values or the same ValueError) agree with
    Gauss-Jordan elimination on matrices with such entries mixed in, on
    every shape 1-6 x 1-6 and a tall 40 x 4."""
    rng = random.Random(f"gf-unreduced-{p}")
    elems = list(range(p)) if p < 10 else [1, 2, p - 1] + [rng.randrange(p) for _ in range(5)]

    def unreduce(rows):
        return [[x + p * rng.choice((-2, -1, 1, 2)) if rng.random() < 0.5 else x for x in r] for r in rows]

    assert not RowSpace(p, 3).insert([p, -p, 2 * p])
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 7)] + [(40, 4)]
    outcomes = set()
    for nrows, ncols in shapes:
        for _ in range(6):
            m = unreduce(_random_matrix(p, rng, nrows, ncols, elems))
            rank, reduced, _, kernel = oracle_rref(p, m, ncols)
            sp = RowSpace(p, ncols)
            grew = [sp.insert(row) for row in m]
            ranks = [oracle_rref(p, m[:k], ncols)[0] for k in range(nrows + 1)]
            assert grew == [b > a for a, b in zip(ranks, ranks[1:])], m
            assert sp.basis() == [tuple(r) for r in reduced[:rank]], m
            assert span(p, m, ncols).basis() == sp.basis(), m
            assert sp.kernel() == [tuple(r) for r in kernel], m
            rows = m[: rng.randint(1, nrows)]
            if rng.random() < 0.5:
                coeffs = [rng.choice(elems) for _ in rows]
                vec = unreduce([oracle_apply(p, rows, coeffs)])[0]
            else:
                vec = unreduce(_random_matrix(p, rng, 1, ncols, elems))[0]
            got = _solve_outcome(solve, p, rows, vec)
            assert got == _solve_outcome(oracle_solve, p, rows, vec), (rows, vec)
            outcomes.add(got[0])
            inside = unreduce([oracle_apply(p, m, [rng.choice(elems) for _ in m])])[0]
            for v in (inside, vec):
                want = _solve_outcome(oracle_solve, p, reduced[:rank], v)
                try:
                    assert ("ok", sp.coords(v)) == want, (m, v)
                except ValueError:
                    assert want[0] == "ValueError", (m, v)
                outcomes.add(want[0])
    assert outcomes == {"ok", "ValueError"}


@pytest.mark.parametrize("p", [2, 3, 7, 1000003])
def test_combine_and_product_match_entrywise(p):
    """``int_kernel.combine`` and ``mat_mul`` against the entry-by-entry
    vector-matrix and matrix products, on every shape 1-6 x 1-6 with about
    40% zero entries, and on zero and all-(p - 1) matrices."""
    rng = random.Random(f"gf-combine-{p}")

    def matrix(nrows, ncols):
        return [
            [0 if rng.random() < 0.4 else rng.randrange(p) for _ in range(ncols)]
            for _ in range(nrows)
        ]

    for nrows in range(1, 7):
        for ncols in range(1, 7):
            cases = [matrix(nrows, ncols) for _ in range(4)]
            cases += [[[0] * ncols] * nrows, [[p - 1] * ncols] * nrows]
            for rows in cases:
                for coeffs in (matrix(1, nrows)[0], [p - 1] * nrows):
                    want = tuple(oracle_apply(p, rows, coeffs))
                    assert combine(p, coeffs, rows) == want, (rows, coeffs)
                left = matrix(rng.randint(1, 6), nrows)
                assert mat_mul(p, left, rows) == oracle_mul(p, left, rows), (left, rows)
