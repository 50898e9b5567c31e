"""The generator and linearity lemmas against the loops they replaced.

Jacobi (``maxclass``), the rho homomorphism (``paper_checks._check_rep``),
the round-trip phi map (``paper_checks._phi_failure``) and the graded
isomorphism of ``paper_checks.iso_search`` (one point equation per
degree) are checked only on pairs and triples with a degree-1 generator.
The all-pairs loops they replaced are kept here as oracles, and each fast
path must give the same verdict, the same first failure and the same
message on seeded valid and perturbed inputs.

The table lemmas are checked on the dict table ``dict_structure.DictStructure``,
which ``test_rows`` compares with ``maxclass._Structure`` (one row of
cells per total degree) and ``maxclass.validate``.
``DictStructure.jacobi`` evaluates each Jacobi triple with a generator by
one of two closed formulas (its docstring), ``_phi_failure`` reads the
brackets with a generator off ``paper_checks.phi_at``, and ``extend``
decides the chain (c^{-1} and g with v_{d+1} = c^{-1}*[v_d, g]) once per
pushed degree.  The generic bracket of basis ids, the three-term Jacobi
sum over it, the per-cell choice of c^{-1} and the scale-by-scale
isomorphism certification are kept here as oracles.  ``check_new``
evaluates only the triples the chain lemma does not prove
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

``paper_checks.iso_search`` solves one linear system for the degree-1
maps that carry B's point onto A's at every degree and reads the
key-least nonsingular one off the kernel's reduced basis, trying at most
3 elements of E per free coordinate (the certification and walk lemmas in its docstring).
The brute force over every projective degree-1 map, and the loop over
the degree-1 maps that fix the centralizer lines of the standard forms,
certified by the base-changed canonical chain, are kept here as oracles.

``subfield.generate_subalgebra`` reads the dimensions of L = <X, Y> off
the d-values by the dimension lemma (the ``subfield`` module docstring)
and, for an E-dependent pair, off rank_F{X, Y} by its 2x2 minors
(``subfield._f_rank``); each d-value is one F-determinant per distinct
centralizer point (``subfield._d_key``), a raw ``scan`` classifies each
F-plane of L_1 once, weighted by |GL_2(F)|, and ``scan`` classifies once
per d-key.  The degree-by-degree RowSpace generation (against the
closed-form bases of ``paper_checks.bases``), the RowSpace rank, the
RowSpace d-values (one span per degree) and the pair-by-pair scan, which
classifies each pair through those d-values, are kept here as oracles.

``reconstruct.verify_roundtrip`` builds no representation: by the slot
lemma (its docstring) rho and phi are the adjoint action on an invariant
subspace, so it scans table cells for faithfulness and takes the rest
from the lemma.  The round trip on stored maps it replaced
(``paper_checks.oracle_roundtrip``) is its oracle in
``test_reconstruct``; that one stores a representation's entries only on
the slots below lo, reads the others off the structure table, and
``_check_rep`` and ``_phi_failure`` compare only the stored slots.  The
per-entry and the full-table image constructions, both checks on every
slot, the commutator extraction (compared with N's presentation, a base
change of the ambient one) and the span comparison are kept here as the
oracles of that oracle.  ``apply_degree1_change`` derives its result's
table without Jacobi checks; that table is compared with ``validate``'s.

``endo.identify_field`` reads End_0(L^3) and its field off dim L_3 and
(p, u, v) (the closed form in the ``endo`` docstring).  The ring solve on
the bottom degree it replaced (``paper_checks.compute_grend0`` and
``identify_field_of_ring``) is the oracle of
``test_identify_field_closed_form_matches_ring``, on every irreducible
t^2 - u*t - v for p <= 7.  The degree-by-degree solve
(``paper_checks.solve_graded_maps`` and ``propagated_grend0``) and the
Schur check on every degree (``paper_checks.identify_field_per_degree``)
that the ring solve replaced are the oracle of
``test_closed_form_matches_propagation``: the same FieldId report, or the
same error.  The version of the identification that enumerated the ring
is kept here as a further oracle.

``paper_checks.solve_graded_maps`` takes one linear-form step per degree:
the ad rows [v, g] of each degree are computed once, f_{i+1} solves
[v, g]*f_{i+1} = f_i(v)*T_g on a spanning subset of them, and every sum of
forms goes through ``int_kernel.combine``.  The per-operation propagation it
replaced, which bracketed each degree twice, is kept here as
``oracle_solve_graded_maps``; both must give the same kernel rows, the same
forms at every degree, or the same error, at shift 0.  The oracle takes any
shift, and ``paper_checks.grend_d_dimension`` runs it.

``reconstruct.detect_structure`` reads the largest degree i with a nonzero
bracket [v_i, v_j] in the window once, and the tests' ``int_kernel.solve``
and ``int_kernel.RowSpace.kernel`` are read off the canonical ``RowSpace``.
The scan per tail T^k and the Gauss-Jordan elimination they replaced are
kept here as oracles, and so are the entry-by-entry vector-matrix and
matrix products that ``int_kernel.combine`` and ``mat_mul`` replaced.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import dict_structure as ds
import generic_gf as gg
import paper_checks as pc
from int_kernel import RowSpace, combine, mat_mul, solve, span
from thinlie import endo
from thinlie import maxclass as mc
from thinlie import reconstruct as rec
from thinlie import subfield as sf
from paper_checks import DimensionAnomaly, NotFaithful, express
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


def _identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def _random_nonzero(field, rng):
    elems = list(field.elements())
    while True:
        e = rng.choice(elems)
        if not field.is_zero(e):
            return e


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


def _map_scale(F, e, m):
    return {s: F.mul(e, c) for s, c in m.items()}


def _map_add(F, m1, m2):
    out = dict(m1)
    for s, c in m2.items():
        out[s] = F.add(out.get(s, F.zero), c)
    return out


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


def oracle_check_rep(rep):
    """Faithfulness, then the homomorphism property on all basis pairs."""
    an = rep.analysis
    F = an.field
    pres = an.pres
    cap = rep.window - rep.k
    images = _full_images(rep)
    for d in range(1, cap + 1):
        rows = []
        for r in range(an.dim(d)):
            m = images[(d, r)]
            flat = []
            for s in range(rep.slots_min, rep.window + 1):
                flat.extend(m.get(s, F.zero))
            rows.append(flat)
        if span(F.p, rows, len(rows[0])).dim != an.dim(d):
            raise NotFaithful(f"representation has a kernel in degree {d}")
    for d1 in range(1, cap + 1):
        for d2 in range(d1, cap + 1):
            if d1 + d2 > cap:
                continue
            for r1 in range(an.dim(d1)):
                for r2 in range(an.dim(d2)):
                    if d1 == d2 and r2 <= r1:
                        continue
                    lie = pc.bracket_vec(pres, d1, pc.basis(an, d1)[r1], d2, pc.basis(an, d2)[r2])
                    coords = express(an, d1 + d2, lie)
                    want = {}
                    for c, idx in zip(coords, range(an.dim(d1 + d2))):
                        if c:
                            want = _map_add(
                                F, want, _map_scale(F, (c % F.p, 0), images[(d1 + d2, idx)])
                            )
                    got = oracle_commutator(
                        F, rep.slots_min, rep.window,
                        images[(d1, r1)], d1, images[(d2, r2)], d2,
                    )
                    for s in range(rep.slots_min, rep.window - d1 - d2 + 1):
                        if want.get(s, F.zero) != got.get(s, F.zero):
                            raise DimensionAnomaly(
                                f"rho([t,t']) != [rho(t), rho(t')] at degrees "
                                f"({d1},{d2}), slot {s}"
                            )


def oracle_check_rep_generators(rep):
    """``_check_rep`` comparing every slot of every pair (g, t), g and t
    basis rows, g of degree 1."""
    an = rep.analysis
    F = an.field
    pres = an.pres
    cap = rep.window - rep.k
    images = _full_images(rep)
    for d in range(1, cap + 1):
        rows = []
        for r in range(an.dim(d)):
            m = images[(d, r)]
            flat = []
            for s in range(rep.slots_min, rep.window + 1):
                flat.extend(m.get(s, F.zero))
            rows.append(flat)
        if span(F.p, rows, len(rows[0])).dim != an.dim(d):
            raise NotFaithful(f"representation has a kernel in degree {d}")
    for d in range(1, cap):
        for r1, g in enumerate(pc.basis(an, 1)):
            for r2, t in enumerate(pc.basis(an, d)):
                if d == 1 and r2 <= r1:
                    continue
                want = {}
                for idx, c in enumerate(express(an, d + 1, pc.bracket_vec(pres, 1, g, d, t))):
                    if c:
                        want = _map_add(F, want, _map_scale(F, (c % F.p, 0), images[(d + 1, idx)]))
                got = oracle_commutator(
                    F, rep.slots_min, rep.window, images[(1, r1)], 1, images[(d, r2)], d
                )
                for s in range(rep.slots_min, rep.window - d):
                    if want.get(s, F.zero) != got.get(s, F.zero):
                        raise DimensionAnomaly(
                            f"rho([t,t']) != [rho(t), rho(t')] at degrees (1,{d}), slot {s}"
                        )


def oracle_phi_failure(st, rep, usable, phi):
    """The first basis pair (s, t), s before t, on which phi is not a homomorphism."""
    F = st.field
    basis_ids = [0, 1] + list(range(2, usable + 1))
    for n1, s in enumerate(basis_ids):
        for t in basis_ids[n1 + 1 :]:
            ds, dt = max(s, 1), max(t, 1)
            if ds + dt > usable:
                continue
            res = oracle_bracket(st, s, t)
            want = {}
            if res is not None and not F.is_zero(res[0]):
                coeff, tgt = res
                want = _map_scale(F, coeff, phi[tgt])
            got = oracle_commutator(F, rep.slots_min, rep.window, phi[s], ds, phi[t], dt)
            for sl in range(rep.slots_min, rep.window - ds - dt + 1):
                if want.get(sl, F.zero) != got.get(sl, F.zero):
                    return f"phi([{_label(s)},{_label(t)}]) mismatch at slot {sl}"
    return None


def oracle_phi_generators(st, rep, usable, phi):
    """``_phi_failure`` comparing every slot of every pair (g, t), g = x or y."""
    F = st.field
    for s, gen in ((0, (F.one, F.zero)), (1, (F.zero, F.one))):
        for t in range(s + 1, usable):
            coeff = F.neg(F.one if t == 1 else pc.phi_at(st, t, gen))
            want = _map_scale(F, coeff, phi[t + 1])
            got = oracle_commutator(F, rep.slots_min, rep.window, phi[s], 1, phi[t], t)
            for sl in range(rep.slots_min, rep.window - t):
                if want.get(sl, F.zero) != got.get(sl, F.zero):
                    return f"phi([{_label(s)},{_label(t)}]) mismatch at slot {sl}"
    return None


def oracle_extends(F, sta, stb, window, a1, b1, a2, b2):
    """The generator relations, then the certification on all v-v pairs."""
    s2 = F.sub(F.mul(b2, a1), F.mul(a2, b1))
    scales = {2: s2}
    for i in range(2, window):
        ai, bi = sta.a[i], sta.b[i]
        px = F.mul(scales[i], F.add(F.mul(a1, stb.a[i]), F.mul(b1, stb.b[i])))
        py = F.mul(scales[i], F.add(F.mul(a2, stb.a[i]), F.mul(b2, stb.b[i])))
        if not F.is_zero(ai):
            if F.is_zero(px):
                return False
            scales[i + 1] = F.div(px, ai)
        else:
            if F.is_zero(py):
                return False
            scales[i + 1] = F.div(py, bi)
        if px != F.mul(ai, scales[i + 1]) or py != F.mul(bi, scales[i + 1]):
            return False
    for i in range(2, window):
        for j in range(i + 1, window - i + 1):
            lhs = F.mul(sta.get_vv(i, j), scales.get(i + j, F.zero))
            rhs = F.mul(F.mul(scales[i], scales[j]), stb.get_vv(i, j))
            if lhs != rhs:
                return False
    return True


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


def _table_key(st):
    """A copy of everything a table holds; a chain step by its scalar and branch."""
    steps = {d: (c_inv, g is st.a) for d, (c_inv, g) in st.step.items()}
    return st.class_n, st.top, dict(st.a), dict(st.b), ds.cells(st), steps


@pytest.mark.parametrize("found", ["search4_12", "search9_12", "search25_12"])
def test_derived_tables_match_validate(request, found):
    """Extend-built base-changed tables equal the tables ``validate``
    derives for the same pairs, which pass."""
    rng = random.Random(f"tables-{found}")
    for pres in request.getfixturevalue(found):
        parent = mc.MaxClassPresentation(pres.field, pres.class_n, pres.adjoint)
        assert mc.validate(parent).ok
        derived = [_degree1_change(parent, rng) for _ in range(2)]
        derived.append(_degree1_change(derived[rng.randrange(len(derived))], rng))
        for pres_d in derived:
            fresh = mc.MaxClassPresentation(pres_d.field, pres_d.class_n, pres_d.adjoint)
            assert mc.validate(fresh).ok
            assert _table_key(pres_d._structure) == _table_key(fresh._structure)


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


# -- rho and rho' --------------------------------------------------------------


def _e_of(an, degree, vec):
    """Extension coefficient of an ambient vector against basis(degree)[0];
    components of degree >= 3 are extension lines, so it always exists."""
    F = an.field
    w = pc.basis(an, degree)[0]
    return F.div((vec[0], vec[1]), (w[0], w[1]))


def oracle_rho_images(an, k):
    """The images of ``build_rho`` (k >= 3) or ``build_rho_prime`` (k = 2),
    one ``bracket_vec`` and one ``_e_of`` per entry."""
    F = an.field
    pres = an.pres
    window = an.window

    def entry(s, row, d, t):
        return _e_of(an, s + d, pc.bracket_vec(pres, s, row, d, t))

    images = {}
    if k > 2:
        for d in range(1, window - k + 2):
            for r, t in enumerate(pc.basis(an, d)):
                images[(d, r)] = {
                    s: entry(s, pc.basis(an, s)[0], d, t) for s in range(k - 1, window - d + 1)
                }
        return images
    X4, Y4 = sf.deg1_to_f4(an.pair.X), sf.deg1_to_f4(an.pair.Y)
    yx = pc.bracket_vec(pres, 1, Y4, 1, X4)
    for d in range(1, window):
        for r, t in enumerate(pc.basis(an, d)):
            m = {}
            if d == 1:
                m[1] = (solve(F.p, [X4, Y4], t)[0], 0)
            elif 1 + d <= window:
                m[1] = entry(1, Y4, d, t)
            if 2 + d <= window:
                m[2] = entry(2, yx, d, t)
            for s in range(3, window - d + 1):
                m[s] = entry(s, pc.basis(an, s)[0], d, t)
            images[(d, r)] = m
    return images


def oracle_table_images(an, k):
    """The same images with every basis row's map built in full: the slots
    from lo = k - 1 (lo = 3 on rho') off the structure table as
    eps_s*c*eps_{s+d}^{-1}, and rho' slots 1 and 2 by ``bracket_vec``."""
    F = an.field
    pres = an.pres
    st = mc.tables(pres)
    window = an.window
    lo = k - 1 if k > 2 else 3
    eps = {s: (pc.basis(an, s)[0][0], pc.basis(an, s)[0][1]) for s in range(lo, window + 1)}
    inv = {s: F.inv(e) for s, e in eps.items()}

    def table(d, t):
        slots = range(lo, window - d + 1)
        if d == 1:
            g = sf.f4_to_deg1(t)
            return {s: F.mul(F.mul(eps[s], pc.phi_at(st, s, g)), inv[s + 1]) for s in slots}
        e_t = (t[0], t[1])
        return {s: F.mul(F.mul(F.mul(eps[s], e_t), st.get_vv(s, d)), inv[s + d]) for s in slots}

    if k > 2:
        return {
            (d, r): table(d, t) for d in range(1, window - k + 2) for r, t in enumerate(pc.basis(an, d))
        }
    X4, Y4 = sf.deg1_to_f4(an.pair.X), sf.deg1_to_f4(an.pair.Y)
    yx = pc.bracket_vec(pres, 1, Y4, 1, X4)
    images = {}
    for d in range(1, window):
        for r, t in enumerate(pc.basis(an, d)):
            m = {}
            if d == 1:
                m[1] = (solve(F.p, [X4, Y4], t)[0], 0)
            elif 1 + d <= window:
                m[1] = _e_of(an, 1 + d, pc.bracket_vec(pres, 1, Y4, d, t))
            if 2 + d <= window:
                m[2] = _e_of(an, 2 + d, pc.bracket_vec(pres, 2, yx, d, t))
            m.update(table(d, t))
            images[(d, r)] = m
    return images


def _flat(F, rep, m):
    return [m.get(s, F.zero) for s in range(rep.slots_min, rep.window + 1)]


def oracle_generation_check(rep):
    """[N_d, N_1] = N_{d+1} for d < usable, by comparing E-spans."""
    an = rep.analysis
    F = an.field
    ncols = rep.window - rep.slots_min + 1
    images = _full_images(rep)
    x_map, y_map = images[(1, 0)], images[(1, 1)]
    for d in range(1, rep.window - rep.k - 1):
        target = gg.span(F, [_flat(F, rep, images[(d + 1, r)]) for r in range(an.dim(d + 1))], ncols)
        got = gg.RowSpace(F, ncols)
        for r in range(an.dim(d)):
            for gen_map in (x_map, y_map):
                got.insert(_flat(F, rep, oracle_commutator(
                    F, rep.slots_min, rep.window, images[(d, r)], d, gen_map, 1
                )))
        if not (got.dim == target.dim and all(target.contains(r) for r in got.basis())):
            raise DimensionAnomaly(f"[N_{d}, N_1] != N_{d + 1}")


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
    E-rank of each degree's flattened images, and the chain of N in
    x_N = rho(r1), y_N = rho(r2) by commutators ([v, x_N] when nonzero,
    else [v, y_N]), validated."""
    an = rep.analysis
    F = an.field
    usable = rep.window - rep.k - 1
    ncols = rep.window - rep.slots_min + 1
    images = _full_images(rep)
    dims = {}
    for d in range(1, usable + 1):
        sp = gg.RowSpace(F, ncols)
        for r in range(an.dim(d)):
            sp.insert(_flat(F, rep, images[(d, r)]))
        dims[d] = sp.dim
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


def _rep(pres, pair, window=None):
    an = sf.generate_subalgebra(pres, pair, pres.class_n if window is None else window)
    flags = rec.detect_structure(an)
    if flags.metabelian:
        return pc.build_rho_prime(an, flags)
    return pc.build_rho(an, flags)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ThinLieError as exc:
        return (type(exc).__name__, str(exc))


def _corrupt(F, rng, maps, ids=None):
    """A copy of maps (basis id -> slot -> entry) with one or two stored
    entries of the maps ``ids`` (default: any) changed."""
    out = {i: dict(m) for i, m in maps.items()}
    ids = sorted(i for i, m in maps.items() if m) if ids is None else ids
    for _ in range(rng.choice((1, 1, 2))):
        m = out[rng.choice(ids)]
        s = rng.choice(sorted(m))
        m[s] = F.add(m[s], _random_nonzero(F, rng))
    return out


def _second_generator_only(F, rng, rep, gens, maps):
    """``_corrupt`` on the degree-1 map of gens[1], after which the stored
    entries of v_2, v_3, ... are solved from the relations of gens[0]:
    [m_0, m_1] = c*m_2, [gens[0], gens[1]] = c*v_2, and [m_0, m_t] =
    -phi_t(gens[0])*m_{t+1}.  Every pair with gens[0] then compares equal,
    so only a check of the pairs with gens[1] can fail."""
    st = mc.tables(rep.analysis.pres)
    out = _corrupt(F, rng, maps, ids=[1])
    entry = pc._reader(rep, gens, out)
    (a1, b1), (a2, b2) = gens
    for t in range(1, max(out)):
        c = F.sub(F.mul(b1, a2), F.mul(a1, b2)) if t == 1 else F.neg(pc.phi_at(st, t, gens[0]))
        for s in out[t + 1]:
            got = F.sub(F.mul(entry(0, s), entry(t, s + 1)), F.mul(entry(t, s), entry(0, s + t)))
            out[t + 1][s] = F.div(got, c)
    return out


@pytest.mark.parametrize("which", ["dev9_14", "metabelian9_14", "metabelian25_14"])
def test_check_rep_matches_all_pairs(request, thin_pair_f9, which):
    """``_check_rep`` against the generator-pair and the all-pairs oracles,
    which compare every slot, on the rep and on 300 reps whose stored
    entries are changed, a third of them so that only the pairs with r2
    can fail.  rho stores no entry, since every slot is a table slot, so
    only the rho' reps are changed."""
    pres = _presentation(request, which)
    F = pres.field
    rep = _rep(pres, thin_pair_f9)
    checks = (pc._check_rep, oracle_check_rep_generators, oracle_check_rep)
    assert [_outcome(fn, rep) for fn in checks] == [("ok", None)] * 3
    if rep.branch == "rho":
        assert rep.lo == rep.slots_min and not any(rep.images.values())
        return
    assert all(s < rep.lo for m in rep.images.values() for s in m)
    rng = random.Random(f"check-rep-{which}")
    rows = pc._rows(rep.analysis)
    stages = set()
    generation_failures = second_failures = 0
    for n in range(300):
        second = n % 3 == 0
        if second:
            images = _second_generator_only(F, rng, rep, rows, rep.images)
        else:
            images = _corrupt(F, rng, rep.images)
        bad = pc.RhoRep(
            branch=rep.branch, k=rep.k, window=rep.window, slots_min=rep.slots_min,
            lo=rep.lo, analysis=rep.analysis, images=images,
        )
        got = _outcome(pc._check_rep, bad)
        assert [_outcome(fn, bad) for fn in checks[1:]] == [got, got]
        stages.add(got[0])
        second_failures += second and got[0] == "DimensionAnomaly"
        if _outcome(oracle_generation_check, bad)[0] != "ok":
            # _check_rep's comparison proves [N_d, N_1] = N_{d+1}
            assert got[0] != "ok"
            generation_failures += 1
    assert "DimensionAnomaly" in stages
    assert generation_failures > 0
    assert second_failures > 0


def _phi_args(monkeypatch, pres, pair, window=None):
    """The arguments ``oracle_roundtrip`` passes to the phi check."""
    seen = []
    real = pc._phi_failure

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(pc, "_phi_failure", spy)
    assert pc.oracle_roundtrip(pres, pair, window).iso
    monkeypatch.undo()
    (args,) = seen
    return args


def _full_phi(rep, phi):
    """phi on every slot: its stored entries, and from rep.lo on x, y and
    v_i acting on the basis rows, one ``bracket_vec`` per entry."""
    an = rep.analysis
    args = {0: (1, (1, 0, 0, 0)), 1: (1, (0, 0, 1, 0))}
    full = {}
    for i, m in phi.items():
        d, t = args.get(i, (i, (1, 0)))
        full[i] = dict(m)
        for s in range(rep.lo, rep.window - d + 1):
            full[i][s] = _e_of(an, s + d, pc.bracket_vec(an.pres, s, pc.basis(an, s)[0], d, t))
    return full


def _assert_matches_oracles(monkeypatch, pres, pair, window, rep):
    """Every check of a round trip against its oracles, on a valid rep.

    Also the two facts the round trip takes from lemmas instead of guards
    (``_check_rep``, ``build_rho_prime``): the images of the rows of T_1
    are F-independent already on the slot lo, and those rows lie in
    span_F{X, Y}."""
    images = _full_images(rep)
    an = rep.analysis
    p = an.field.p
    assert span(p, [images[(1, r)][rep.lo] for r in (0, 1)], 2).dim == 2
    gens = [sf.deg1_to_f4(an.pair.X), sf.deg1_to_f4(an.pair.Y)]
    assert span(p, gens + list(pc.basis(an, 1)), 4).dim == span(p, gens, 4).dim == 2
    assert images == oracle_table_images(rep.analysis, rep.k)
    assert images == oracle_rho_images(rep.analysis, rep.k)
    checks = (pc._check_rep, oracle_check_rep_generators, oracle_check_rep, oracle_generation_check)
    assert [_outcome(fn, rep) for fn in checks] == [("ok", None)] * 4
    usable = rec.usable_window(rep.window, rep.k)
    r1, r2 = pc._rows(rep.analysis)
    dims, extracted = oracle_extract(rep)
    assert dims == {d: 2 if d == 1 else 1 for d in range(1, usable + 1)}
    assert extracted == pc.apply_degree1_change(pc.quotient(pres, usable), r1, r2)
    st, rep, usable, phi = _phi_args(monkeypatch, pres, pair, window)
    full = _full_phi(rep, phi)
    assert pc._phi_failure(st, rep, usable, phi) is None
    assert oracle_phi_generators(st, rep, usable, full) is None
    assert oracle_phi_failure(st, rep, usable, full) is None


@pytest.mark.parametrize(
    "which, branch, windows",
    [
        ("metabelian9_14", "rho_prime", (14, 10)),
        ("metabelian25_14", "rho_prime", (14, 10)),
        ("metabelian9_40", "rho_prime", (40, 27)),
        ("metabelian25_40", "rho_prime", (40, 21)),
        ("dev9_14", "rho", (14, 12)),
        ("dev25_14", "rho", (14, 12)),
    ],
    ids=["metabelian9_14", "metabelian25_14", "metabelian9_40", "metabelian25_40", "dev9_14", "dev25_14"],
)
def test_images_and_generation_match_oracles(request, monkeypatch, thin_pair_f9, which, branch, windows):
    """On both branches the images equal the per-entry and the full-table
    ones, ``_check_rep`` and ``_phi_failure`` agree with their oracles on
    every slot, N's presentation extracted from the maps is M's quotient in
    the basis of T_1, and the [N_d, N_1] = N_{d+1} check that the round
    trip does not make passes."""
    pres = _presentation(request, which)
    for window in windows:
        rep = _rep(pres, thin_pair_f9, window)
        assert rep.branch == branch
        _assert_matches_oracles(monkeypatch, pres, thin_pair_f9, window, rep)


@pytest.mark.parametrize("found", ["search4_12", "search9_12", "search25_12"])
def test_images_match_oracle_with_scaled_rows(request, monkeypatch, thin_pair_f9, found):
    """The same on the thin pairs of searched presentations, among
    X = x + y, Y = mu*x + (mu + 1)*y and X = x + y, Y = mu*x + 2mu*y.  The
    second has det(X, Y) = mu, so the basis row of T_2 is mu*v_2, not v_2;
    the rho branch with k = 3 reads that row in slot 2 and as the argument
    t."""
    pres_list = request.getfixturevalue(found)
    F = pres_list[0].field
    scaled = sf.GeneratorPair((F.one, F.one), (F.mu, F.coerce((0, 2))))
    reps = []
    for pair in (thin_pair_f9, scaled):
        count = 0
        for pres in pres_list:
            try:
                rep = _rep(pres, pair)
            except ThinLieError:
                continue
            reps.append((pres, pair, rep))
            count += 1
            if count == 6:
                break
    assert {"rho", "rho_prime"} == {rep.branch for _, _, rep in reps}
    # over GF(9) no rep found here is a k = 3 rho with that row
    assert (found != "search9_12") == any(
        rep.slots_min == 2 and pc.basis(rep.analysis, 2) == ((0, 1),) for _, _, rep in reps
    )
    for pres, pair, rep in reps:
        _assert_matches_oracles(monkeypatch, pres, pair, pres.class_n, rep)


def oracle_detect_structure(analysis, window=None):
    """``detect_structure`` by one scan of the window per tail T^k."""
    if analysis.verdict.kind != "thin":
        raise PreconditionFailed("structure detection expects a thin subalgebra")
    window = analysis.window if window is None else window
    st = mc.tables(analysis.pres)
    F = st.field

    def tail_abelian(k):
        return all(
            F.is_zero(st.get_vv(i, j))
            for i in range(k, window) for j in range(i + 1, window - i + 1)
        )

    if tail_abelian(2):
        return rec.StructureFlags(metabelian=True, k=2, z_degree=1, detection="metabelian")
    for k in range(3, (window - 1) // 2 + 1):
        if tail_abelian(k):
            return rec.StructureFlags(
                metabelian=False, k=k, z_degree=k - 1, detection="abelian-window"
            )
    if not tail_abelian(3):
        return rec.StructureFlags(
            metabelian=False, k=3, z_degree=2, detection="insoluble-or-undetected"
        )
    raise WindowTooSmall(
        "no abelian tail confirmed and no nonzero bracket witnessed in T^3"
    )


def test_detect_structure_matches_tail_scans(search4_12, search9_12, thin_pair_f9, rc_pair):
    """The largest nonzero bracket degree against one scan per tail, on
    two pairs at every window; all five outcomes occur."""
    outcomes = set()
    for pres in search4_12 + search9_12:
        for pair in (thin_pair_f9, rc_pair):
            for window in range(4, pres.class_n + 1):
                an = sf.generate_subalgebra(pres, pair, window)
                got = _outcome(rec.detect_structure, an)
                assert got == _outcome(oracle_detect_structure, an), (pres.adjoint, pair, window)
                outcomes.add(got[1].detection if got[0] == "ok" else got[0])
    assert outcomes == {
        "metabelian", "abelian-window", "insoluble-or-undetected",
        "WindowTooSmall", "PreconditionFailed",
    }


# -- the round-trip phi map ----------------------------------------------------


@pytest.mark.parametrize("which", ["dev9_14", "metabelian9_14", "metabelian25_14"])
def test_phi_check_matches_all_pairs(request, monkeypatch, thin_pair_f9, which):
    """``_phi_failure`` against the generator-pair and the all-pairs
    oracles, which compare every slot, on 300 phi maps whose stored entries
    are changed (one entry, a whole map scaled, or phi(y) changed with
    every pair with x kept equal).  On rho nothing is stored, so nothing is
    changed."""
    pres = _presentation(request, which)
    F = pres.field
    st, rep, usable, phi = _phi_args(monkeypatch, pres, thin_pair_f9)
    full = _full_phi(rep, phi)
    assert pc._phi_failure(st, rep, usable, phi) is None
    assert oracle_phi_generators(st, rep, usable, full) is None
    assert oracle_phi_failure(st, rep, usable, full) is None
    if rep.branch == "rho":
        assert not any(phi.values())
        return
    rng = random.Random(f"phi-{which}")
    failures = 0
    units = ((F.one, F.zero), (F.zero, F.one))
    second_failures = 0
    for n in range(300):
        mode = n % 3
        if mode == 0:
            wrong = _second_generator_only(F, rng, rep, units, phi)
        elif mode == 1:
            wrong = _corrupt(F, rng, phi)
        else:
            wrong = dict(phi)
            idx = rng.choice(sorted(wrong))
            wrong[idx] = _map_scale(F, _random_nonzero(F, rng), wrong[idx])
        got = pc._phi_failure(st, rep, usable, wrong)
        full = _full_phi(rep, wrong)
        assert got == oracle_phi_generators(st, rep, usable, full)
        assert got == oracle_phi_failure(st, rep, usable, full)
        failures += got is not None
        second_failures += mode == 0 and got is not None
    assert failures > 0
    assert second_failures > 0


# -- iso_search ----------------------------------------------------------------


def oracle_iso_search(pres_a, pres_b, window=None):
    """The brute force ``iso_search`` replaced: every projective degree-1 map.

    Maps are enumerated with the first nonzero coordinate normalized to 1,
    in ``F.elements()`` order, and the first one ``oracle_extends``
    certifies is returned.
    """
    if pres_a.field != pres_b.field:
        raise PreconditionFailed("presentations live over different fields")
    F = pres_a.field
    window = min(pres_a.class_n, pres_b.class_n) if window is None else window
    A = pc.quotient(pres_a, window) if pres_a.class_n != window else pres_a
    B = pc.quotient(pres_b, window) if pres_b.class_n != window else pres_b
    sta, stb = mc.tables(A), mc.tables(B)
    elems = list(F.elements())

    def is_canonical(quad) -> bool:
        for c in quad:
            if not F.is_zero(c):
                return c == F.one
        return False

    for a1 in elems:
        for b1 in elems:
            for a2 in elems:
                for b2 in elems:
                    quad = (a1, b1, a2, b2)
                    if not is_canonical(quad):
                        continue
                    det = F.sub(F.mul(a1, b2), F.mul(b1, a2))
                    if F.is_zero(det):
                        continue
                    if oracle_extends(F, sta, stb, window, a1, b1, a2, b2):
                        return pc.IsoResult(found=True, transform=((a1, b1), (a2, b2)))
    return pc.IsoResult(found=False, transform=None)


def oracle_iso_standard(pres_a, pres_b, window=None):
    """The standard-form ``iso_search`` replaced, without its budget.

    In standard coordinates a graded isomorphism fixes Ey, and also Ex when
    a degree of A deviates (the centralizer lemma).  Each candidate
    psi = [[1, b1], [0, b2]] (b1 = 0 when A deviates) is mapped back as
    T_A^{-1} psi T_B, normalized, and certified by comparing the
    base-changed chain of B with A's canonical chain; the key-least
    certified map is returned.
    """
    if pres_a.field != pres_b.field:
        raise PreconditionFailed("presentations live over different fields")
    F = pres_a.field
    window = min(pres_a.class_n, pres_b.class_n) if window is None else window
    A = pc.quotient(pres_a, window) if pres_a.class_n != window else pres_a
    B = pc.quotient(pres_b, window) if pres_b.class_n != window else pres_b
    deviates = bool(mc.two_step_centralizers(A).deviations())
    t_a = pc.standard_generators(A).transform
    t_b = pc.standard_generators(B).transform
    t_a_inv = [gg.solve(F, t_a, e) for e in _identity(F, 2)]
    target = pc.apply_degree1_change(A, (F.one, F.zero), (F.zero, F.one)).adjoint
    best = None
    for b1 in [F.zero] if deviates else F.elements():
        for b2 in F.elements():
            if F.is_zero(b2):
                continue
            phi = oracle_mul(F, oracle_mul(F, t_a_inv, [[F.one, b1], [F.zero, b2]]), t_b)
            quad = phi[0] + phi[1]
            lead = F.inv(next(c for c in quad if not F.is_zero(c)))
            quad = [F.mul(lead, c) for c in quad]
            key = [F.key(c) for c in quad]
            if (best is None or key < best[0]) and pc.apply_degree1_change(
                B, (quad[0], quad[1]), (quad[2], quad[3])
            ).adjoint == target:
                best = (key, quad)
    if best is None:
        return pc.IsoResult(found=False, transform=None)
    a1, b1, a2, b2 = best[1]
    return pc.IsoResult(found=True, transform=((a1, b1), (a2, b2)))


def _degree1_change(pres, rng):
    """pres after a random invertible degree-1 base change."""
    F = pres.field
    elems = list(F.elements())
    while True:
        xp = (rng.choice(elems), rng.choice(elems))
        yp = (rng.choice(elems), rng.choice(elems))
        if not F.is_zero(F.sub(F.mul(xp[0], yp[1]), F.mul(xp[1], yp[0]))):
            return pc.apply_degree1_change(pres, xp, yp)


def _rescaled(pres, rng):
    """pres with each pair multiplied by a random nonzero scalar: the same
    algebra on the basis v_{i+1} rescaled, but with a non-canonical chain."""
    F = pres.field
    pairs = []
    for a, b in pres.adjoint:
        c = _random_nonzero(F, rng)
        pairs.append((F.mul(c, a), F.mul(c, b)))
    return mc.MaxClassPresentation(F, pres.class_n, tuple(pairs))


def _iso_pairs(found, dev, rng, n_random, n):
    """Random pairs, (P, standard form of P), P against a base change of P
    on either side, the first (metabelian) presentation against random P,
    base changes of the deviating oracle ``dev``, neighbours in search order
    cut just above their first difference (so they differ in the last pair
    only), and rescaled (non-canonical) presentations on either side."""
    pairs = [tuple(rng.sample(found, 2)) for _ in range(n_random)]
    for pres in rng.sample(found, n):
        pairs.append((pres, pc.standard_generators(pres).presentation))
    for pres in rng.sample(found, n):
        pairs.append((pres, _degree1_change(pres, rng)))
        pairs.append((_degree1_change(pres, rng), pres))
    pairs += [(found[0], pres) for pres in rng.sample(found[1:], n)]
    if dev is not None:
        pairs.append((dev, _degree1_change(dev, rng)))
        pairs.append((_degree1_change(dev, rng), _degree1_change(dev, rng)))
    for a, b in list(zip(found, found[1:]))[:n]:
        top = next(d for d in range(2, a.class_n) if a.pair(d) != b.pair(d)) + 1
        if top >= 4:
            pairs.append((pc.quotient(a, top), pc.quotient(b, top)))
    for a, b in pairs[:n_random] + [(found[0], found[0])] + ([(dev, dev)] if dev else []):
        pairs.append((_rescaled(a, rng), b))
        pairs.append((a, _rescaled(b, rng)))
        pairs.append((_rescaled(a, rng), _rescaled(_degree1_change(b, rng), rng)))
    return pairs


def test_iso_search_matches_all_pairs(request):
    """Standard-form candidates against the brute force with all-pairs certification.

    The oracle tries every degree-1 map and certifies it with the v-v
    pairs too (``oracle_extends``); ``iso_search`` must give the same
    ``found`` and the same transform, with isomorphic and non-isomorphic
    pairs over every field.
    """
    cases = [  # (fixture, deviating oracle, random pairs, pairs of each other kind)
        ("search9_12", None, 20, 10),
        ("search4_12", None, 10, 6),
        ("search9_14", "dev9_14", 10, 5),
        ("search25_12", "dev25_12", 2, 2),
    ]
    inputs = []
    for name, dev, n_random, n in cases:
        rng = random.Random("iso-search" if name == "search9_12" else f"iso-{name}")
        dev = request.getfixturevalue(dev) if dev else None
        inputs.append(_iso_pairs(request.getfixturevalue(name), dev, rng, n_random, n))
    fast = [[pc.iso_search(a, b) for a, b in pairs] for pairs in inputs]
    for pairs, results in zip(inputs, fast):
        for (a, b), f in zip(pairs, results):
            s = oracle_iso_search(a, b)
            assert f.found == s.found, (a.adjoint, b.adjoint)
            assert f.transform == s.transform, (a.adjoint, b.adjoint)
        assert any(f.found for f in results) and not all(f.found for f in results)


def test_iso_search_matches_standard_forms():
    """The linear solve against the standard-form loop over GF(49), where the
    brute force is too slow: search results at class 16 (one metabelian,
    the rest deviating at 14), their degree-1 changes and rescaled forms."""
    F = make_ext_field(7, 0, 3)
    found = mc.search_sequences(F, 16, 10**9)
    pairs = _iso_pairs(found, None, random.Random("iso-49"), 10, 5)
    results = [pc.iso_search(a, b) for a, b in pairs]
    for (a, b), f in zip(pairs, results):
        s = oracle_iso_standard(a, b)
        assert f.found == s.found, (a.adjoint, b.adjoint)
        assert f.transform == s.transform, (a.adjoint, b.adjoint)
    assert any(f.found for f in results) and not all(f.found for f in results)


def _iso_kernel(pres_a, pres_b):
    """RREF basis and pivots of W: the maps Phi = (a1, b1, a2, b2) under which
    B's point (phi_i(a1, b1) : phi_i(a2, b2)) is proportional to A's point
    (a_i : b_i) at every degree i, each row read off the unit maps."""
    F = pres_a.field
    window = min(pres_a.class_n, pres_b.class_n)
    sta = mc.tables(pc.quotient(pres_a, window))
    stb = mc.tables(pc.quotient(pres_b, window))
    units = _identity(F, 4)
    rows = []
    for i in range(2, window):
        row = []
        for a1, b1, a2, b2 in units:
            px, py = pc.phi_at(stb, i, (a1, b1)), pc.phi_at(stb, i, (a2, b2))
            row.append(F.sub(F.mul(px, sta.b[i]), F.mul(py, sta.a[i])))
        rows.append(row)
    rows = gg.span(F, oracle_rref(F, rows, 4)[3], 4).basis()
    return rows, [next(j for j, c in enumerate(r) if not F.is_zero(c)) for r in rows]


@pytest.mark.parametrize(
    "name, dev",
    [("search4_12", "dev4_12"), ("search9_12", "dev9_12"), ("search25_12", "dev25_12")],
    ids=["4", "9", "25"],
)
def test_iso_walk_bound(request, name, dev):
    """Whenever W holds a nonsingular map, the result's entries at W's pivots
    (the free coordinates t, the leading 1 and the zeros before it) lie
    among the 3 least-key elements of E; the seeded inputs reach dim W = 3
    and a nonzero W whose every element is singular."""
    found = request.getfixturevalue(name)
    F = found[0].field
    small = list(itertools.islice(F.elements(), 3))
    rng = random.Random(f"walk-{name}")
    dims, all_singular = set(), 0
    for a, b in _iso_pairs(found, request.getfixturevalue(dev), rng, 10, 5):
        basis, pivots = _iso_kernel(a, b)
        res = pc.iso_search(a, b)
        assert res.found == oracle_iso_standard(a, b).found, (a.adjoint, b.adjoint)
        dims.add(len(basis))
        if res.found:
            quad = res.transform[0] + res.transform[1]
            assert all(quad[j] in small for j in pivots), (a.adjoint, b.adjoint)
        elif basis:
            all_singular += 1
    assert 3 in dims and all_singular


# -- the subalgebra <X, Y> and the raw scan ------------------------------------


def point_rows_f4(field, point):
    """The F-plane of the E-line through alpha*x + beta*y, as two F^4 rows."""
    al, be = point
    return [
        sf.deg1_to_f4((al, be)),
        sf.deg1_to_f4((field.mul(field.mu, al), field.mul(field.mu, be))),
    ]


def oracle_d_values(l1, seq, window):
    """d_i = dim_F(C_i \\cap l1) for i = 2 .. window - 1, one span per degree."""
    out = []
    for i in range(2, window):
        sp = span(l1.p, l1.basis() + point_rows_f4(seq.field, seq.point(i)), 4)
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
    mc.tables(pres)
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
    pairs = list(pc.raw_pairs(F)) if raw else sf.normalized_pairs(F)

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
        thin_by_lines = sf.count_thin_by_line_avoidance(pres, window)
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
    pairs = list(pc.raw_pairs(F)) if raw else sf.normalized_pairs(F)
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
    for plane in sf.f_planes(F):
        if plane.is_degenerate(F):
            continue
        r0, r1 = sf.deg1_to_f4(plane.X), sf.deg1_to_f4(plane.Y)
        want = oracle_d_values(span(p, [r0, r1], 4), amb.centralizers, 14)
        for a, b, c, d in gl2:
            X = sf.f4_to_deg1([(a * s + b * t) % p for s, t in zip(r0, r1)])
            Y = sf.f4_to_deg1([(c * s + d * t) % p for s, t in zip(r0, r1)])
            key = sf._d_key(amb, sf.GeneratorPair(X, Y))
            assert tuple(key[k] for k in amb.slots) == want, (X, Y)
            pairs += 1
    assert pairs == (q * q - 1) * (q * q - q)


def _rank_pair(p, x, y):
    """The closed-form rank_F{X, Y} and its RowSpace oracle for two F^4 rows."""
    g = sf.GeneratorPair(sf.f4_to_deg1(x), sf.f4_to_deg1(y))
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
    planes = sf.f_planes(F)
    rows = [(sf.deg1_to_f4(g.X), sf.deg1_to_f4(g.Y)) for g in planes]
    assert len(set(rows)) == len(rows)
    for pair in rows:
        assert tuple(span(F.p, pair, 4).basis()) == pair
    assert len(planes) == (p**4 - 1) * (p**4 - p) // ((p**2 - 1) * (p**2 - p))
    q = p * p
    independent = sum(1 for g in planes if not g.is_degenerate(F))
    assert independent * (p**2 - 1) * (p**2 - p) == (q**2 - 1) * (q**2 - q)


# -- the endomorphism field ------------------------------------------------------

SCHUR_EXHAUSTIVE_LIMIT = 4096


def _ring_elements(ring):
    p = ring.field.p
    for coords in itertools.product(range(p), repeat=ring.dim):
        if any(coords):
            yield coords


def oracle_identify_field(ring):
    """Verify the ring is a (commutative) field and name its isomorphism type.

    Commutativity comes from the multiplication table; invertibility is
    Schur's lemma made testable: every nonzero element must act with
    nonzero determinant on every component in the window.  A ring of
    dimension 2 with an irreducible quadratic minimal polynomial is the
    field GF(p^2); the Galois-conjugate ambiguity of its identification
    with the ambient extension is resolved by reading off the scalar by
    which a distinguished root of the ambient quadratic acts.
    """
    F = ring.field
    p = F.p
    for i in range(ring.dim):
        for j in range(i + 1, ring.dim):
            if ring.mult_table[i][j] != ring.mult_table[j][i]:
                raise pc.NotCommutative(
                    f"basis elements {i} and {j} do not commute"
                )
    # Schur invertibility on every degree
    exhaustive = p**ring.dim <= SCHUR_EXHAUSTIVE_LIMIT
    elements = list(_ring_elements(ring)) if exhaustive else [
        pc._lf_unit(ring.dim, k) for k in range(ring.dim)
    ]
    for coords in elements:
        flat = ring.element_flat(coords)
        for degree in range(pc.K0, ring.analysis.window + 1):
            mat = pc._eval_forms(p, ring._symbolic[degree], flat)
            if span(p, mat, len(mat)).dim < len(mat):
                raise pc.NotAField(
                    f"nonzero element {coords} is singular on degree {degree}"
                )
    if ring.dim == 1:
        return pc.RingFieldId(**pc._FIELD_F)
    if ring.dim != 2:
        raise pc.NotAField(f"unexpected ring dimension {ring.dim}")
    # canonical generator: first basis element outside F*identity
    gen = None
    for k in range(ring.dim):
        cand = pc._lf_unit(ring.dim, k)
        if span(p, [cand, ring.identity], ring.dim).dim > 1:
            gen = cand
            break
    if gen is None:
        raise pc.NotAField("ring has no element outside F*identity")
    # minimal polynomial of the generator: g^2 = m1*1 + m2*g
    g2 = ring.compose(gen, gen)
    m1, m2 = solve(p, [ring.identity, gen], g2)
    c1 = (-m2) % p
    c0 = (-m1) % p
    if not quadratic_is_irreducible(p, m2, m1):
        raise pc.NotAField(f"minimal polynomial t^2 + {c1}t + {c0} is reducible")
    # locate a root of the ambient quadratic t^2 - u t - v inside the ring
    mu_abs = None
    for coords in _ring_elements(ring):
        if span(p, [coords, ring.identity], ring.dim).dim <= 1:
            continue
        sq = ring.compose(coords, coords)
        want = tuple(
            (F.u * a + F.v * b) % p for a, b in zip(coords, ring.identity)
        )
        if sq == want:
            mu_abs = coords
            break
    if mu_abs is None:
        raise pc.NotAField("no root of the ambient quadratic inside the ring")
    sigma = pc.scalar_of_action(ring, mu_abs)
    if sigma == F.mu:
        embedding = "mu"
        mu_hat = mu_abs
    elif sigma == F.conj(F.mu):
        embedding = "mu_conj"
        mu_hat = tuple(
            (F.u * i - a) % p for a, i in zip(mu_abs, ring.identity)
        )
    else:
        raise DimensionAnomaly(f"root acts by {sigma}, not a conjugate of mu")
    gen_sigma = pc.scalar_of_action(ring, gen)
    return pc.RingFieldId(
        dim=2,
        min_poly=(c0, c1, 1),
        is_field=True,
        embedding=embedding,
        generator=gen,
        mu_hat=mu_hat,
        sigma=gen_sigma,
    )


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
def test_identify_field_matches_enumeration(request, which, embeddings):
    """The ring solve against the ring enumeration: equal field, generator,
    root and scalar on the ring of every non-degenerate normalized pair
    (every raw pair over GF(4), so that the dimension-1 rings of maximal
    pairs occur too), and the package's report is theirs.  The
    enumeration runs on the propagated ring, whose basis, identity and
    table must equal the bottom-degree solve's."""
    pres = _presentation(request, which)
    F = pres.field
    pairs = pc.raw_pairs(F) if F.p == 2 else sf.normalized_pairs(F)
    seen = set()
    for g in pairs:
        if g.is_degenerate(F):
            continue
        an = sf.generate_subalgebra(pres, g)
        ring = pc.compute_grend0(an)
        fid = pc.identify_field_of_ring(ring)
        prop = pc.propagated_grend0(an)
        assert pc.ring_fields(prop) == pc.ring_fields(ring), g
        assert fid == oracle_identify_field(prop), g
        assert endo.identify_field(an) == fid.report(), g
        # E lies in End_0(L^3) of a thin L, so its field is quadratic
        assert fid.dim == 2 or an.verdict.kind != "thin", g
        seen.add(fid.embedding)
    assert seen == embeddings


def _replaced(record, **changes):
    """A copy of ``record`` with the named fields changed."""
    return type(record)(**{**vars(record), **changes})


def _perturbed(ring, prop, rng):
    """One product of the table replaced in the package ring and in the
    propagated one, or one propagated form of ``prop`` replaced.  Returns
    (package ring, or None when the perturbation is a form, propagated ring)."""
    p = ring.field.p
    if rng.random() < 0.2:
        i, j = rng.sample(range(ring.dim), 2)
        table = [list(row) for row in ring.mult_table]
        table[i][j] = tuple(rng.randrange(p) for _ in range(ring.dim))
        table = tuple(map(tuple, table))
        return _replaced(ring, mult_table=table), _replaced(prop, mult_table=table)
    degree = rng.randint(pc.K0, ring.analysis.window)
    sym = [list(row) for row in prop._symbolic[degree]]
    r, c = rng.randrange(len(sym)), rng.randrange(len(sym[0]))
    sym[r][c] = tuple(rng.randrange(p) for _ in sym[r][c])
    return None, _replaced(prop, _symbolic={**prop._symbolic, degree: sym})


@pytest.mark.parametrize("which", ["metabelian9_10", "dev9_14"])
def test_identify_field_failures_match(request, thin_pair_f9, which):
    """Wherever the enumeration finds a zero divisor or a non-commuting
    pair, so does the identification; where it accepts, the identification
    gives the same FieldId or refuses an identity that does not act as I or
    a generator that misses its minimal polynomial.  A perturbed table
    reaches ``paper_checks.identify_field_of_ring``; a perturbed propagated
    form reaches only the per-degree check
    (``paper_checks.identify_field_per_degree``), since the bottom-degree
    solve reads no degree above 3."""
    pres = _presentation(request, which)
    an = sf.generate_subalgebra(pres, thin_pair_f9)
    ring = pc.compute_grend0(an)
    prop = pc.propagated_grend0(an)
    assert pc.ring_fields(prop) == pc.ring_fields(ring)
    rng = random.Random(f"identify-field-{which}")
    kinds = set()
    for _ in range(300):
        bad_ring, bad_prop = _perturbed(ring, prop, rng)
        want = _outcome(oracle_identify_field, bad_prop)
        if bad_ring is not None:
            got = _outcome(pc.identify_field_of_ring, bad_ring)
        else:
            got = _outcome(pc.identify_field_per_degree, bad_prop)
        kinds.add(want[0])
        if want[0] in ("NotAField", "NotCommutative"):
            assert got[0] == want[0], (want, got)
        elif want[0] == "ok":
            assert got == want or got[0] == "NotAField", (want, got)
    assert {"NotAField", "NotCommutative", "ok"} <= kinds


def test_schur_sees_non_basis_elements():
    """At p = 67 the enumeration checked only the basis elements e0, e1;
    the per-degree Schur check also refuses a singular e1 - e0."""
    F = make_ext_field(67, 0, 66)
    p = F.p
    pair = sf.GeneratorPair(((1, 0), (1, 0)), ((0, 1), (1, 1)))
    ring = pc.propagated_grend0(sf.generate_subalgebra(mc.make_metabelian(F, 6), pair))
    assert ring.dim == 2
    # forms phi_k on bottom matrices with phi_k(basis_j) = [k == j]
    b0, b1 = ring.basis
    i, j = next(
        (i, j) for i, j in itertools.combinations(range(len(b0)), 2)
        if (b0[i] * b1[j] - b0[j] * b1[i]) % p
    )

    def dual(target):
        form = [0] * len(b0)
        form[i], form[j] = solve(F.p, [(b0[i], b1[i]), (b0[j], b1[j])], target)
        return form

    phi0, phi1 = dual((1, 0)), dual((0, 1))
    # e0 acts as I and e1 as diag(1, 2) on one degree, so e1 - e0 is singular
    A, B = ((1, 0), (0, 1)), ((1, 0), (0, 2))
    degree = pc.K0 + 1
    sym = [
        [tuple((a * x + b * y) % p for x, y in zip(phi0, phi1)) for a, b in zip(ra, rb)]
        for ra, rb in zip(A, B)
    ]
    bad = _replaced(ring, _symbolic={**ring._symbolic, degree: sym})
    assert bad.matrix_at((1, 0), degree) == [[1, 0], [0, 1]]
    assert bad.matrix_at((0, 1), degree) == [[1, 0], [0, 2]]
    assert bad.matrix_at((p - 1, 1), degree) == [[0, 0], [0, 1]]
    assert _outcome(oracle_identify_field, bad)[0] == "ok"
    with pytest.raises(pc.NotAField):
        pc.identify_field_per_degree(bad)


# -- endo: one linear-form step per degree --------------------------------------


def _lf_zero(n):
    return (0,) * n


def _lf_add(p, a, b):
    return tuple((x + y) % p for x, y in zip(a, b))


def _lf_scale(p, c, a):
    return tuple(c * x % p for x in a)


def _gen_images(analysis, degree):
    """[(row_index, gen_index, coords of [row, gen] in the L_{degree+1} basis)]."""
    out = []
    for r_idx, row in enumerate(pc.basis(analysis, degree)):
        for g_idx, gen in enumerate((analysis.pair.X, analysis.pair.Y)):
            img = pc.ad_gen(analysis.pres, degree, row, gen)
            out.append((r_idx, g_idx, express(analysis, degree + 1, img)))
    return out


def oracle_solve_graded_maps(analysis, shift, k0, window):
    """Solution space of graded degree-`shift` L-endomorphisms of the module.

    Returns (kernel_rows, symbolic) where each kernel row is a flattened
    bottom matrix V_{k0} -> V_{k0+shift} and symbolic[i] is the propagated
    matrix at source degree i with linear-form entries.
    """
    p = analysis.field.p
    dim_src = analysis.dim(k0)
    dim_tgt = analysis.dim(k0 + shift)
    n_unk = dim_src * dim_tgt
    symbolic = {
        k0: [
            [pc._lf_unit(n_unk, r * dim_tgt + c) for c in range(dim_tgt)]
            for r in range(dim_src)
        ]
    }
    constraints = []
    i = k0
    while i + 1 + shift <= window:
        src_imgs = _gen_images(analysis, i)  # spans V_{i+1}
        tgt_imgs = _gen_images(analysis, i + shift)
        tgt_lookup = {(r, g): v for r, g, v in tgt_imgs}
        f_i = symbolic[i]
        d_next = analysis.dim(i + 1)
        d_next_tgt = analysis.dim(i + 1 + shift)
        pairs = []
        for r_idx, g_idx, in_vec in src_imgs:
            out_vec = [_lf_zero(n_unk)] * d_next_tgt
            for s in range(analysis.dim(i + shift)):
                coeff_forms = f_i[r_idx][s]
                tgt_vec = tgt_lookup[(s, g_idx)]
                for j, c in enumerate(tgt_vec):
                    if c:
                        out_vec[j] = _lf_add(p, out_vec[j], _lf_scale(p, c, coeff_forms))
            pairs.append((tuple(in_vec), out_vec))
        # choose a spanning subset of the concrete input vectors
        chooser = RowSpace(p, d_next)
        selected = []
        for idx, (in_vec, _) in enumerate(pairs):
            if chooser.insert(in_vec):
                selected.append(idx)
        if len(selected) != d_next:
            raise pc.CoveringFails(
                f"[L_{i}, L_1] does not span L_{i + 1}; propagation is not forced"
            )
        sel_rows = [pairs[idx][0] for idx in selected]
        inv = [solve(p, sel_rows, pc._lf_unit(d_next, j)) for j in range(d_next)]
        f_next = []
        for j in range(d_next):
            acc = [_lf_zero(n_unk)] * d_next_tgt
            for k, idx in enumerate(selected):
                c = inv[j][k]
                if c:
                    for col in range(d_next_tgt):
                        acc[col] = _lf_add(
                            p, acc[col], _lf_scale(p, c, pairs[idx][1][col])
                        )
            f_next.append(acc)
        symbolic[i + 1] = f_next
        # consistency: every (input, output) pair must match the propagated map
        for in_vec, out_vec in pairs:
            for col in range(d_next_tgt):
                acc = _lf_zero(n_unk)
                for j, c in enumerate(in_vec):
                    if c:
                        acc = _lf_add(p, acc, _lf_scale(p, c, f_next[j][col]))
                diff = tuple((a - b) % p for a, b in zip(acc, out_vec[col]))
                if any(diff):
                    constraints.append(diff)
        i += 1
    if constraints:
        kernel_rows = [tuple(r) for r in oracle_rref(gg.BaseField(p), constraints, n_unk)[3]]
    else:
        kernel_rows = [pc._lf_unit(n_unk, k) for k in range(n_unk)]
    return kernel_rows, symbolic


_SOLVER_SAMPLE = 60


@pytest.mark.parametrize(
    "which",
    [
        "metabelian4_10",
        "metabelian9_14",
        "metabelian9b_12",
        "dev9_14",
        "metabelian25_14",
        "metabelian49_10",
        "dev25_14",
    ],
)
def test_solver_matches_propagation_oracle(request, which):
    """The one-step-per-degree solver against the per-operation propagation:
    equal kernel rows, equal forms at every degree, or the same error, at
    shift 0, on every non-degenerate pair (raw over GF(4), normalized
    otherwise) or a seeded sample of them over GF(25)/GF(49)."""
    pres = _presentation(request, which)
    F = pres.field
    pairs = [
        g for g in (pc.raw_pairs(F) if F.p == 2 else sf.normalized_pairs(F))
        if not g.is_degenerate(F)
    ]
    if F.p > 3:
        pairs = random.Random(f"solver-{which}").sample(pairs, _SOLVER_SAMPLE)
    amb = sf._Ambient(pres, pres.class_n)
    for g in pairs:
        an = sf._analyse(amb, g)
        got = _outcome(pc.solve_graded_maps, an)
        want = _outcome(oracle_solve_graded_maps, an, 0, pc.K0, an.window)
        assert got == want, g


def test_solver_matches_propagation_oracle_at_class_40(thin_pair_f9):
    pres = _presentation(None, "metabelian9_40")
    an = sf.generate_subalgebra(pres, thin_pair_f9)
    assert pc.solve_graded_maps(an) == oracle_solve_graded_maps(an, 0, pc.K0, an.window)


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
        pairs = [g for g in sf.normalized_pairs(F) if not g.is_degenerate(F)]
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


# -- gf: one row reduction and one combination ---------------------------------


def oracle_apply(field, rows, vec):
    """The row-vector action vec . rows, one field operation at a time."""
    assert len(vec) == len(rows)
    out = [field.zero] * len(rows[0])
    for c, row in zip(vec, rows):
        if field.is_zero(c):
            continue
        for j, x in enumerate(row):
            out[j] = field.add(out[j], field.mul(c, x))
    return out


def oracle_mul(field, a, b, ncols=None):
    """The product a . b entry by entry; ``ncols`` is needed when b has no rows."""
    ncols = len(b[0]) if ncols is None else ncols
    out = []
    for r in a:
        row = []
        for j in range(ncols):
            acc = field.zero
            for k in range(len(b)):
                acc = field.add(acc, field.mul(r[k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def oracle_rref(F, rows, ncols):
    """Gauss-Jordan elimination of the whole matrix, pivot by pivot:
    (rank, reduced rows, pivots, kernel rows)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if not F.is_zero(rows[i][c]):
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    kernel_rows = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [F.zero] * ncols
        vec[j] = F.one
        for ri, pc in enumerate(pivots):
            vec[pc] = F.neg(rows[ri][j])
        kernel_rows.append(vec)
    return r, rows, tuple(pivots), kernel_rows


def oracle_solve(field, rows, vec):
    """Coordinates read off the Gauss-Jordan form of the augmented columns."""
    n = len(rows)
    aug = [[r[j] for r in rows] + [x] for j, x in enumerate(vec)]
    _, reduced, pivots, _ = oracle_rref(field, aug, n + 1)
    if pivots != tuple(range(n)):
        raise ValueError("rows are dependent or the vector is outside their span")
    return [reduced[i][n] for i in range(n)]


def _solve_outcome(fn, field, rows, vec):
    try:
        return ("ok", fn(field, rows, vec))
    except ValueError as exc:
        return ("ValueError", str(exc))


_EXT = {2: (1, 1), 3: (0, 2), 5: (0, 2), 7: (0, 3)}


def _random_matrix(field, rng, nrows, ncols, elems=None):
    """Sparse random rows, a low-rank product, or rows with zero and
    duplicate rows mixed in; entries are drawn from ``elems`` (default:
    every element of the field)."""
    elems = list(field.elements()) if elems is None else elems

    def entry():
        return field.zero if rng.random() < 0.4 else rng.choice(elems)

    shape = rng.randrange(3)
    if shape == 0:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    rank = rng.randint(0, min(nrows, ncols))
    if shape == 1:
        left = [[entry() for _ in range(rank)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(rank)]
        return oracle_mul(field, left, right, ncols)
    rows = [[entry() for _ in range(ncols)] for _ in range(rank)]
    while len(rows) < nrows:
        duplicate = rows and rng.random() < 0.5
        rows.append(list(rng.choice(rows)) if duplicate else [field.zero] * ncols)
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize(
    "p, ext",
    [(2, False), (3, False), (7, False), (2, True), (3, True), (5, True), (7, True)],
    ids=["2", "3", "7", "4", "9", "25", "49"],
)
def test_rref_and_solve_match_gauss_jordan(p, ext):
    """``RowSpace`` and ``solve`` against Gauss-Jordan elimination: the
    basis is the nonzero reduced rows, the kernel is the oracle's, and
    ``solve`` gives equal coordinates or the same ValueError, on every
    shape 1-6 x 1-6 and a tall 40 x 4.  The package kernel is over GF(p);
    the GF(p^2) cases run its field-generic predecessor (``generic_gf``),
    which the E-linear oracles use."""
    field = make_ext_field(p, *_EXT[p]) if ext else gg.BaseField(p)
    scalars, span_, solve_ = (field, gg.span, gg.solve) if ext else (p, span, solve)
    rng = random.Random(f"gf-rref-{field}")
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 7)] + [(40, 4)]
    solved = set()
    for nrows, ncols in shapes:
        for _ in range(6):
            m = _random_matrix(field, rng, nrows, ncols)
            rank, reduced, _, kernel = oracle_rref(field, m, ncols)
            sp = span_(scalars, m, ncols)
            assert sp.basis() == [tuple(r) for r in reduced[:rank]], m
            assert sp.kernel() == [tuple(r) for r in kernel], m
            rows = m[: rng.randint(1, nrows)]
            if rng.random() < 0.5:
                coeffs = [rng.choice(list(field.elements())) for _ in rows]
                vec = oracle_apply(field, rows, coeffs)
            else:
                vec = _random_matrix(field, rng, 1, ncols)[0]
            got = _solve_outcome(lambda _, r, v: solve_(scalars, r, v), field, rows, vec)
            assert got == _solve_outcome(oracle_solve, field, rows, vec), (rows, vec)
            solved.add(got[0])
    assert solved == {"ok", "ValueError"}


@pytest.mark.parametrize("p", [2, 3, 7, 1000003])
def test_int_kernel_reduces_entries(p):
    """Entries that are negative or >= p stand for their residues:
    ``span``, ``basis``, ``kernel``, ``coords``, ``insert``'s return value
    and ``solve`` (equal values or the same ValueError) agree with
    Gauss-Jordan elimination on matrices with such entries mixed in, on
    every shape 1-6 x 1-6 and a tall 40 x 4."""
    field = gg.BaseField(p)
    rng = random.Random(f"gf-unreduced-{p}")
    elems = list(range(p)) if p < 10 else [1, 2, p - 1] + [rng.randrange(p) for _ in range(5)]

    def unreduce(rows):
        return [[x + p * rng.choice((-2, -1, 1, 2)) if rng.random() < 0.5 else x for x in r] for r in rows]

    assert not RowSpace(p, 3).insert([p, -p, 2 * p])
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 7)] + [(40, 4)]
    outcomes = set()
    for nrows, ncols in shapes:
        for _ in range(6):
            m = unreduce(_random_matrix(field, rng, nrows, ncols, elems))
            rank, reduced, _, kernel = oracle_rref(field, m, ncols)
            sp = RowSpace(p, ncols)
            grew = [sp.insert(row) for row in m]
            ranks = [oracle_rref(field, m[:k], ncols)[0] for k in range(nrows + 1)]
            assert grew == [b > a for a, b in zip(ranks, ranks[1:])], m
            assert sp.basis() == [tuple(r) for r in reduced[:rank]], m
            assert span(p, m, ncols).basis() == sp.basis(), m
            assert sp.kernel() == [tuple(r) for r in kernel], m
            rows = m[: rng.randint(1, nrows)]
            if rng.random() < 0.5:
                coeffs = [rng.choice(elems) for _ in rows]
                vec = unreduce([oracle_apply(field, rows, coeffs)])[0]
            else:
                vec = unreduce(_random_matrix(field, rng, 1, ncols, elems))[0]
            got = _solve_outcome(lambda _, r, v: solve(p, r, v), field, rows, vec)
            assert got == _solve_outcome(oracle_solve, field, rows, vec), (rows, vec)
            outcomes.add(got[0])
            inside = unreduce([oracle_apply(field, m, [rng.choice(elems) for _ in m])])[0]
            for v in (inside, vec):
                want = _solve_outcome(oracle_solve, field, reduced[:rank], v)
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
    field = gg.BaseField(p)
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
                    want = tuple(oracle_apply(field, rows, coeffs))
                    assert combine(p, coeffs, rows) == want, (rows, coeffs)
                left = matrix(rng.randint(1, 6), nrows)
                assert mat_mul(p, left, rows) == oracle_mul(field, left, rows), (left, rows)
