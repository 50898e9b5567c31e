"""The paper's checks that no subcommand runs, kept as independent test oracles.

The package computes what the CLI reports: the classification of thin
subalgebras generated in degree 1 (``subfield``), the degree-0
endomorphism ring (``endo``), the round trip (``reconstruct``) and the
scan.  The checks here carry the lemmas behind those results and test
them by other means:

* ``verify_covering`` and ``verify_ideal_sandwich`` check the covering
  and r-constrained properties by brute force over every homogeneous
  element, under the budget ``BRUTE_FORCE_LIMIT``;
* ``thin_line_criterion`` decides thinness from centralizer data alone,
  and ``normalize_generators`` moves a pair into the normal form;
* ``iso_search`` finds a graded isomorphism between two presentations;
* ``propagated_grend0`` and ``identify_field_per_degree`` are the
  degree-by-degree End_0 solve and Schur check that ``endo`` replaced by
  its closed form, and ``scalar_action`` applies an element of that ring
  at any degree;
* ``grend_d_dimension`` gives the dimension of the degree-d graded
  endomorphism space;
* ``oracle_two_level_search`` is the presentation search before it
  searched one subtree per E*-orbit (``maxclass.search_sequences``);
* ``quotient``, ``image`` and ``raw_pairs`` are the test-support
  truncation, the full image of a basis row under a representation, and
  every generator pair.
"""

from __future__ import annotations

from itertools import chain, islice, product

import generic_gf as gg
from thinlie import endo
from thinlie import maxclass as mc
from thinlie import reconstruct as rec
from thinlie import subfield as sf
from thinlie._record import record
from thinlie.errors import (
    BadBound,
    DegenerateGenerators,
    DimensionAnomaly,
    NotCommutative,
    NotStandardForm,
    PreconditionFailed,
    ThinLieError,
)
from thinlie.gf import RowSpace, combine, quadratic_is_irreducible, solve, span

BRUTE_FORCE_LIMIT = 200_000


class WindowTooLargeForBruteForce(ThinLieError):
    pass


# -- test support ----------------------------------------------------------------


def quotient(pres, class_n):
    """The class-``class_n`` truncation: the first class_n - 2 pairs.

    The result is not validated; ``tables`` validates it on first use.
    """
    if not 4 <= class_n <= pres.class_n:
        raise BadBound(f"quotient bound {class_n} not in [4, {pres.class_n}]")
    return mc.MaxClassPresentation(pres.field, class_n, pres.adjoint[: class_n - 2])


def image(rep, d, r):
    """rho of the basis row r of T_d on every slot it reaches (``RhoRep``)."""
    an = rep.analysis
    F = an.field
    entry = rec._reader(rep, rec._rows(an), rep.images)
    slots = range(rep.slots_min, rep.window - d + 1)
    if d == 1:
        return {s: entry(r, s) for s in slots}
    row = an.basis(d)[r]
    e = (row[0], row[1])
    return {s: F.mul(e, entry(d, s)) for s in slots}


def raw_pairs(field):
    """Every generator pair but (0, 0), (0, 0), in ``field.elements()`` order."""
    elems = list(field.elements())
    for al in elems:
        for be in elems:
            for ga in elems:
                for de in elems:
                    if al == ga == (0, 0) and be == de == (0, 0):
                        continue
                    yield sf.GeneratorPair((al, be), (ga, de))


# -- brute-force verifiers ---------------------------------------------------


@record
class CoveringReport:
    ok: bool
    first_failure: tuple | None  # (degree, coefficients)


def _nonzero_coeff_vectors(p, dim):
    for coeffs in product(range(p), repeat=dim):
        if any(coeffs):
            yield coeffs


def _brute_force_guard(p, window):
    if (p**2) * window > BRUTE_FORCE_LIMIT:
        raise WindowTooLargeForBruteForce(
            f"~{p**2 * window} element checks exceed limit {BRUTE_FORCE_LIMIT}"
        )


def verify_covering(analysis):
    """Exhaustively check [u, L_1] = L_{i+1} for every nonzero homogeneous u."""
    if analysis.d is None:
        raise DegenerateGenerators("covering check needs independent generators")
    pres = analysis.pres
    p = pres.field.p
    g = analysis.pair
    _brute_force_guard(p, analysis.window)
    for i in range(1, analysis.window):
        target = analysis.space(i + 1)
        for coeffs in _nonzero_coeff_vectors(p, analysis.dim(i)):
            u = combine(p, coeffs, analysis.basis(i))
            img = RowSpace(p, 2)
            img.insert(sf.ad_gen(pres, i, u, g.X))
            img.insert(sf.ad_gen(pres, i, u, g.Y))
            if not (img.dim == target.dim and all(target.contains(r) for r in img.basis())):
                return CoveringReport(ok=False, first_failure=(i, coeffs))
    return CoveringReport(ok=True, first_failure=None)


@record
class SandwichReport:
    ok: bool
    r: int
    witness: tuple | None  # (degree, coeffs, missing degree)


def ideal_closure(analysis, degree, vec):
    """Span of the ideal of L generated by a homogeneous element.

    Closure under ad X, ad Y and F-spans suffices because L is generated
    in degree 1; stability under bracketing with all of L is a tested
    property, not an assumption.
    """
    pres = analysis.pres
    g = analysis.pair
    spans = {}
    for h in range(degree, analysis.window + 1):
        spans[h] = RowSpace(pres.field.p, 4 if h == 1 else 2)
    spans[degree].insert(vec)
    work = [(degree, tuple(vec))]
    while work:
        h, u = work.pop()
        if h + 1 > analysis.window:
            continue
        for gen in (g.X, g.Y):
            w = sf.ad_gen(pres, h, u, gen)
            if spans[h + 1].insert(w):
                work.append((h + 1, w))
    return spans


def verify_ideal_sandwich(analysis, r):
    """Check that every homogeneous ideal generator reaches r degrees down.

    For each degree i <= window - r and each nonzero l in L_i, the ideal
    generated by l must contain every L_h with i + r <= h <= window.
    """
    if analysis.d is None:
        raise DegenerateGenerators("sandwich check needs independent generators")
    if r < 1:
        raise BadBound("r must be >= 1")
    p = analysis.field.p
    _brute_force_guard(p, analysis.window)
    for i in range(1, analysis.window - r + 1):
        for coeffs in _nonzero_coeff_vectors(p, analysis.dim(i)):
            l = combine(p, coeffs, analysis.basis(i))
            spans = ideal_closure(analysis, i, l)
            for h in range(i + r, analysis.window + 1):
                target = analysis.basis(h)
                if not all(spans[h].contains(row) for row in target):
                    return SandwichReport(ok=False, r=r, witness=(i, coeffs, h))
    return SandwichReport(ok=True, r=r, witness=None)


# -- normal form -------------------------------------------------------------


@record
class NormalizationResult:
    pair: sf.GeneratorPair
    presentation: mc.MaxClassPresentation
    transform: tuple  # degree-1 base change: new x, new y in (x, y)
    complete: bool
    note: str


def normalize_generators(pres, g):
    """Move an E-independent pair into the form X = x + y, Y = mu*x + delta*y.

    Uses the graded automorphism scaling degree i by alpha^{-i} (which
    fixes the presentation), an F-shear and F-scaling of Y, and finally a
    rescaling of the ambient y (which changes the presentation by a
    recorded degree-1 base change).  When a step's precondition fails the
    partial form reached so far is returned with ``complete=False``.
    """
    F = pres.field
    if g.is_degenerate(F):
        raise DegenerateGenerators("cannot normalize an E-dependent pair")
    if not mc.is_standard(pres):
        raise NotStandardForm("normalization expects a standard-form presentation")
    ident = ((F.one, F.zero), (F.zero, F.one))
    al, be = g.X
    ga, de = g.Y
    if F.is_zero(al):
        return NormalizationResult(g, pres, ident, False, "alpha = 0: X lies in Ey")
    inv_al = F.inv(al)
    be = F.mul(inv_al, be)
    ga = F.mul(inv_al, ga)
    de = F.mul(inv_al, de)
    # X is now x + beta*y; make gamma equal mu via an F-shear and F-scaling.
    if ga[1] == 0:  # gamma in F
        return NormalizationResult(
            sf.GeneratorPair((F.one, be), (ga, de)),
            pres,
            ident,
            False,
            "gamma in F after scaling: L_1 meets Ey",
        )
    g0, g1 = ga
    f = pow(g1, F.p - 2, F.p)
    ga = F.scale(f, F.sub(ga, F.embed(g0)))  # = mu
    de = F.scale(f, F.sub(de, F.mul(F.embed(g0), be)))
    if F.is_zero(be):
        return NormalizationResult(
            sf.GeneratorPair((F.one, be), (ga, de)),
            pres,
            ident,
            False,
            "beta = 0: X = x, no y-rescale possible",
        )
    # Rescale the ambient y by beta; in the new basis X = x' + y'.
    pres2 = mc.apply_degree1_change(pres, (F.one, F.zero), (F.zero, be))
    transform = ((F.one, F.zero), (F.zero, be))
    de2 = F.div(de, be)
    pair2 = sf.GeneratorPair((F.one, F.one), (F.mu, de2))
    complete = de2[1] != 0  # delta not in F
    note = "" if complete else "delta in F: pair cannot be thin"
    return NormalizationResult(pair2, pres2, transform, complete, note)


# -- the line criterion ----------------------------------------------------------


@record
class LineCriterionResult:
    script_l: tuple  # lambdas of centralizers E(x + lambda*y) in window
    ey_occurs: bool
    affine_line: tuple | None  # {t*b + (1-t)*d : t in F}
    visible: tuple  # lambdas of E-lines actually meeting span_F{X, Y}
    ey_condition: bool
    avoided: bool


def visible_lambdas(field, g):
    """All lambda with span_F{X, Y} meeting E(x + lambda*y), plus an Ey flag.

    span_F{X, Y} meets the line of x + lambda*y iff lambda is the ratio
    (s*beta + t*delta)/(s*alpha + t*gamma) for some (s : t) in P^1(F); it
    meets Ey iff some denominator vanishes, i.e. alpha, gamma are
    F-dependent.  The lambda set is the image of P^1(F) under an injective
    Moebius map, so it has exactly |F| + 1 elements when Ey is avoided.
    """
    F = field
    (al, be), (ga, de) = g.X, g.Y
    meets_ey = not sf._f_independent(F, al, ga)
    lams = set()
    for s, t in [(1, t) for t in range(F.p)] + [(0, 1)]:
        den = F.add(F.scale(s, al), F.scale(t, ga))
        if F.is_zero(den):
            continue
        num = F.add(F.scale(s, be), F.scale(t, de))
        lams.add(F.div(num, den))
    return tuple(sorted(lams, key=F.key)), meets_ey


def thin_line_criterion(pres, g, window=None):
    """Decide thinness from centralizer data alone.

    The span of X and Y avoids every two-step centralizer inside the
    window iff (a) alpha, gamma are F-independent (the Ey condition) and
    (b) no lambda of an occurring centralizer is visible from the pair.
    The affine F-line through alpha^{-1}beta and gamma^{-1}delta is also
    reported; it shares only those two points with the visible lambda set,
    so it is a diagnostic, not the criterion itself.  Both sets are
    enumerated, so the criterion raises WindowTooLargeForBruteForce when
    the p + 1 points of P^1(F) exceed BRUTE_FORCE_LIMIT.
    """
    F = pres.field
    if g.is_degenerate(F):
        raise DegenerateGenerators("criterion needs E-independent generators")
    if not mc.is_standard(pres):
        raise NotStandardForm("criterion expects a standard-form presentation")
    if F.p + 1 > BRUTE_FORCE_LIMIT:
        raise WindowTooLargeForBruteForce(
            f"{F.p + 1} points of P^1(F) exceed limit {BRUTE_FORCE_LIMIT}"
        )
    window = pres.class_n if window is None else window
    points = mc.two_step_centralizers(pres).distinct(window)
    ey_occurs = mc.ey_point(F) in points
    # the others are normalized (1 : lambda)
    script_l = sorted((pt[1] for pt in points if pt != mc.ey_point(F)), key=F.key)
    (al, be), (ga, de) = g.X, g.Y
    visible, meets_ey = visible_lambdas(F, g)
    affine = None
    if not F.is_zero(al) and not F.is_zero(ga):
        b = F.div(be, al)
        dl = F.div(de, ga)
        line = set()
        for t in range(F.p):
            line.add(F.add(F.scale(t, b), F.scale((1 - t) % F.p, dl)))
        affine = tuple(sorted(line, key=F.key))
    ey_condition = not meets_ey
    avoided = ey_condition and not (set(visible) & set(script_l))
    return LineCriterionResult(
        script_l=tuple(script_l),
        ey_occurs=ey_occurs,
        affine_line=affine,
        visible=visible,
        ey_condition=ey_condition,
        avoided=avoided,
    )


# -- graded isomorphism search by one linear solve -------------------------------


@record
class IsoResult:
    found: bool
    transform: tuple | None  # degree-1 base change: images of x and y


def iso_search(pres_a, pres_b, window=None):
    """Search for a graded isomorphism between two presentations.

    Certification lemma: Phi = (a1, b1, a2, b2), meaning x -> a1 x + b1 y
    and y -> a2 x + b2 y, is a graded isomorphism iff it is nonsingular
    and, at every degree i in [2, window - 1], the point
    (phi_i(a1, b1) : phi_i(a2, b2)) of B equals the point (a_i : b_i) of A
    in P^1(E).  Proof: [y, x] = v_2 forces Phi(v_2) = s_2 v_2 with
    s_2 = a1*b2 - b1*a2 != 0, and along A's chain Phi(v_{i+1}) =
    s_{i+1} v_{i+1}.  Phi transports [v_i, x] = a_i v_{i+1} and [v_i, y] =
    b_i v_{i+1} iff s_i*(phi_i(a1, b1), phi_i(a2, b2)) = s_{i+1}*(a_i, b_i)
    in B for some s_{i+1} != 0, that is iff the two points are equal.
    Once the generator relations transport, Phi is a homomorphism on all
    pairs by the generator lemma (see ``reconstruct._check_rep``): both
    truncations are Lie algebras generated by x and y.

    Both points are nonzero vectors: A has no zero pair, and a nonsingular
    Phi maps B's pair (p_i, q_i) to a nonzero one.  So they are equal iff
    phi_i(a1, b1)*b_i - phi_i(a2, b2)*a_i = 0, one linear equation in Phi
    per degree, and the certified maps are the nonsingular elements of the
    kernel W of the window x 4 system.  The degree-2 row is the tensor of
    the nonzero vectors (p_2, q_2) and (b_2, -a_2), so dim W <= 3.

    Walk lemma: the result is the certified Phi whose first nonzero entry
    is 1, least in ``F.key`` order entry by entry (the first one an
    enumeration of all degree-1 maps in ``F.elements()`` order would find).
    Let W's RREF basis be r_1..r_k with pivots j_1 < ... < j_k.  The
    normalized vectors led at j_m are r_m + sum_{l>m} t_l r_l, and among
    them the key order is the lexicographic key order of (t_{m+1}, ...):
    each entry before j_{l+1} depends on t_{m+1}..t_l only.  A later pivot
    means more leading zeros, and 0 has the least key, so the levels are
    walked from m = k down to 1.  On a level, det is a polynomial of degree
    <= 2 in at most 2 variables.  If it is not identically zero, at most 2
    values of the first t make it vanish for every second t, and for any
    other first t it has at most 2 roots.  So the 3 least-key elements of E
    (q >= 4) reach the least nonsingular vector of every level that has
    one, and E is never enumerated further.
    """
    if pres_a.field != pres_b.field:
        raise PreconditionFailed("presentations live over different fields")
    F = pres_a.field
    window = min(pres_a.class_n, pres_b.class_n) if window is None else window
    A = quotient(pres_a, window) if pres_a.class_n != window else pres_a
    B = quotient(pres_b, window) if pres_b.class_n != window else pres_b
    mc.tables(A)
    mc.tables(B)
    rows = []
    for i in range(2, window):
        (a, b), (p, q) = A.pair(i), B.pair(i)
        rows.append([F.mul(p, b), F.mul(q, b), F.neg(F.mul(p, a)), F.neg(F.mul(q, a))])
    basis = gg.span(F, gg.span(F, rows, 4).kernel(), 4).basis()
    small = list(islice(F.elements(), 3))
    for m in reversed(range(len(basis))):
        for ts in product(small, repeat=len(basis) - 1 - m):
            quad = basis[m]
            for t, row in zip(ts, basis[m + 1:]):
                quad = [F.add(c, F.mul(t, r)) for c, r in zip(quad, row)]
            a1, b1, a2, b2 = quad
            if not F.is_zero(F.sub(F.mul(a1, b2), F.mul(b1, a2))):
                return IsoResult(found=True, transform=((a1, b1), (a2, b2)))
    return IsoResult(found=False, transform=None)


# -- the propagated degree-0 ring ------------------------------------------------
#
# ``endo`` reads End_0(L^3) off dim L_3 and d (the lemma in its docstring).
# The per-degree solve it replaced is kept here as its oracle: the ring
# with a propagated matrix at every degree, the composition crosscheck one
# degree up, and the field identification that checks Schur's lemma on
# every degree.


class CoveringFails(ThinLieError):
    pass


class NotAField(ThinLieError):
    pass


class OutOfWindow(ThinLieError):
    pass


def _lf_unit(n, k):
    return tuple(1 if i == k else 0 for i in range(n))


def solve_graded_maps(analysis):
    """Solution space of graded degree-0 L-endomorphisms of the module.

    Returns (kernel_rows, symbolic) where each kernel row is a flattened
    bottom matrix V_3 -> V_3 and symbolic[i] is the propagated matrix at
    degree i with linear-form entries.

    One step per degree i: the ad rows [v, g] of L_i are computed once, in
    L_{i+1} coordinates.  The image of [v, g] is f_i(v)*T_g, where T_g
    holds the ad rows of g.  f_{i+1} is read off the first ad rows that
    span L_{i+1} (inverting them), and each other row [v, g] contributes
    the residual [v, g]*f_{i+1} - f_i(v)*T_g, entrywise, as a constraint.
    """
    p = analysis.field.p
    dim = analysis.dim(endo.K0)
    n_unk = dim * dim
    symbolic = {
        endo.K0: [[_lf_unit(n_unk, r * dim + c) for c in range(dim)] for r in range(dim)]
    }
    gens = (analysis.pair.X, analysis.pair.Y)
    constraints = []
    minus_one = (p - 1,)
    for i in range(endo.K0, analysis.window):
        f_i = symbolic[i]
        ad = [
            [analysis.express(i + 1, sf.ad_gen(analysis.pres, i, v, g)) for g in gens]
            for v in analysis.basis(i)
        ]
        # T[g][j]: column j of T_g, the matrix of ad g from L_i to L_{i+1}
        T = [list(zip(*(t[g] for t in ad))) for g in (0, 1)]
        rows = [  # ([v, g], f_i(v)*T_g) for v in L_i, g = X, Y
            (v_ad[g], [combine(p, col, f_i[r]) for col in T[g]])
            for r, v_ad in enumerate(ad)
            for g in (0, 1)
        ]
        d_next = analysis.dim(i + 1)
        cols = range(d_next)
        chooser = RowSpace(p, d_next)
        selected = [k for k, (in_vec, _) in enumerate(rows) if chooser.insert(in_vec)]
        if len(selected) != d_next:
            raise CoveringFails(
                f"[L_{i}, L_1] does not span L_{i + 1}; propagation is not forced"
            )
        sel_rows = [rows[k][0] for k in selected]
        f_next = []
        for j in range(d_next):
            inv = solve(p, sel_rows, _lf_unit(d_next, j))
            f_next.append([combine(p, inv, [rows[k][1][c] for k in selected]) for c in cols])
        symbolic[i + 1] = f_next
        for k, (in_vec, out) in enumerate(rows):
            if k in selected:
                continue  # zero residual by construction
            for c in cols:
                diff = combine(p, in_vec + minus_one, [f[c] for f in f_next] + [out[c]])
                if any(diff):
                    constraints.append(diff)
    return span(p, constraints, n_unk).kernel(), symbolic


@record
class PropagatedRing:
    """``endo.EndoRing`` with its propagated matrix at every degree."""

    analysis: sf.SubalgebraAnalysis
    dim: int
    basis: tuple
    identity: tuple
    mult_table: tuple
    _symbolic: dict

    @property
    def field(self):
        return self.analysis.field

    def element_flat(self, coords):
        return combine(self.field.p, coords, self.basis)

    def matrix_at(self, coords, degree):
        """The element's concrete matrix on V_degree."""
        window = self.analysis.window
        if not endo.K0 <= degree <= window:
            raise OutOfWindow(f"degree {degree} outside [{endo.K0}, {window}]")
        return _eval_forms(self.field.p, self._symbolic[degree], self.element_flat(coords))

    def compose(self, e1, e2):
        """Coordinates of e1 o e2 (apply e2 first)."""
        p = self.field.p
        d = self.analysis.dim(endo.K0)
        prod = endo._compose_flat(p, d, self.element_flat(e1), self.element_flat(e2))
        return _ring_coords(p, self.basis, prod)


def ring_fields(ring):
    """What an ``EndoRing`` and a ``PropagatedRing`` share: (dim, basis,
    identity, mult_table)."""
    return (ring.dim, ring.basis, ring.identity, ring.mult_table)


def _eval_forms(p, sym, flat):
    """A propagated matrix of linear forms evaluated at a flattened bottom matrix."""
    return [[sum(a * b for a, b in zip(form, flat)) % p for form in row] for row in sym]


def _ring_coords(p, basis, flat):
    """Coordinates of a flattened bottom matrix in the ring basis."""
    try:
        return tuple(solve(p, basis, flat))
    except ValueError:
        raise DimensionAnomaly("vector not in the span of the ring basis") from None


def propagated_grend0(analysis):
    """The ring of graded degree-0 L-endomorphisms of L^3, propagated degree
    by degree through the window and solved exactly."""
    if analysis.d is None:
        raise DegenerateGenerators("endomorphism ring needs independent generators")
    kernel_rows, symbolic = solve_graded_maps(analysis)
    d = analysis.dim(endo.K0)
    p = analysis.field.p
    identity_flat = [int(r == c) for r in range(d) for c in range(d)]
    table = [
        tuple(
            _ring_coords(p, kernel_rows, endo._compose_flat(p, d, ki, kj))
            for kj in kernel_rows
        )
        for ki in kernel_rows
    ]
    ring = PropagatedRing(
        analysis=analysis,
        dim=len(kernel_rows),
        basis=tuple(kernel_rows),
        identity=_ring_coords(p, kernel_rows, identity_flat),
        mult_table=tuple(table),
        _symbolic=symbolic,
    )
    _crosscheck_composition(ring)
    return ring


def _crosscheck_composition(ring):
    """Recompute the table one degree up; guards against propagation bugs."""
    p = ring.field.p
    deg = endo.K0 + 1
    for i in range(ring.dim):
        for j in range(ring.dim):
            mi = ring.matrix_at(_lf_unit(ring.dim, i), deg)
            mj = ring.matrix_at(_lf_unit(ring.dim, j), deg)
            direct = endo._mat_mul(p, mj, mi)
            via_table = ring.matrix_at(ring.mult_table[i][j], deg)
            if direct != via_table:
                raise DimensionAnomaly(
                    f"composition at degree {deg} disagrees with the bottom table"
                )


def scalar_of_action(ring, coords):
    """The extension scalar by which an element acts on V_{k0}.

    Well-defined whenever the element acts as an E-scalar there; verified
    against every basis row.
    """
    F = ring.field
    mat = ring.matrix_at(coords, endo.K0)
    rows = ring.analysis.basis(endo.K0)
    sigma = None
    for w, m_row in zip(rows, mat):
        img = combine(F.p, m_row, rows)
        cand = F.div((img[0], img[1]), (w[0], w[1]))
        if sigma is None:
            sigma = cand
        elif sigma != cand:
            raise DimensionAnomaly("element does not act as an extension scalar")
    return sigma


def identify_field_per_degree(ring):
    """``endo.identify_field`` with Schur's lemma checked on every degree.

    Commutativity comes from the multiplication table.  On every component
    in the window the identity must act as I, and the generator's matrix G
    must satisfy the generator's minimal polynomial, G^2 = m2*G + m1*I.
    That polynomial is irreducible over GF(p), so G has no eigenvalue in
    GF(p) and a*I + b*G is invertible for every nonzero (a, b): no nonzero
    element is singular on any component.  The root of the ambient
    quadratic that acts as mu and the embedding are read off as in
    ``endo.identify_field``.
    """
    F = ring.field
    p = F.p
    for i in range(ring.dim):
        for j in range(i + 1, ring.dim):
            if ring.mult_table[i][j] != ring.mult_table[j][i]:
                raise NotCommutative(
                    f"basis elements {i} and {j} do not commute"
                )
    if ring.dim not in (1, 2):
        raise NotAField(f"unexpected ring dimension {ring.dim}")
    degrees = range(endo.K0, ring.analysis.window + 1)
    for degree in degrees:
        one = ring.matrix_at(ring.identity, degree)
        if one != [[int(r == c) for c in range(len(one))] for r in range(len(one))]:
            raise NotAField(f"the identity does not act as I on degree {degree}")
    if ring.dim == 1:
        return endo.FieldId(
            dim=1,
            min_poly=None,
            is_field=True,
            embedding="n/a",
            generator=None,
            mu_hat=None,
            sigma=None,
        )
    # canonical generator: first basis element outside F*identity
    gen = None
    for k in range(ring.dim):
        cand = _lf_unit(ring.dim, k)
        if span(p, [cand, ring.identity], ring.dim).dim > 1:
            gen = cand
            break
    if gen is None:
        raise NotAField("ring has no element outside F*identity")
    # minimal polynomial of the generator: g^2 = m1*1 + m2*g
    g2 = ring.compose(gen, gen)
    m1, m2 = solve(p, [ring.identity, gen], g2)
    c1 = (-m2) % p
    c0 = (-m1) % p
    if not quadratic_is_irreducible(p, m2, m1):
        raise NotAField(f"minimal polynomial t^2 + {c1}t + {c0} is reducible")
    for degree in degrees:
        G = ring.matrix_at(gen, degree)
        want = [
            [(m2 * a + m1 * (r == c)) % p for c, a in enumerate(row)]
            for r, row in enumerate(G)
        ]
        if endo._mat_mul(p, G, G) != want:
            raise NotAField(
                f"generator misses t^2 + {c1}t + {c0} on degree {degree}"
            )
    # the root acting as mu, from the embedding gen -> sigma
    sigma = scalar_of_action(ring, gen)
    a, b = solve(p, [F.one, sigma], F.mu)
    mu_hat = tuple((a * i + b * g) % p for i, g in zip(ring.identity, gen))
    conj = tuple((F.u * i - m) % p for m, i in zip(mu_hat, ring.identity))
    if ring.compose(mu_hat, mu_hat) != tuple(
        (F.u * m + F.v * i) % p for m, i in zip(mu_hat, ring.identity)
    ):
        raise DimensionAnomaly("mu_hat is not a root of the ambient quadratic")
    return endo.FieldId(
        dim=2,
        min_poly=(c0, c1, 1),
        is_field=True,
        embedding="mu" if mu_hat < conj else "mu_conj",
        generator=gen,
        mu_hat=mu_hat,
        sigma=sigma,
    )


# -- endomorphisms of other degrees and the ring's action -------------------------


def scalar_action(ring, e, degree, vec):
    """Apply a ring element to a module vector given in the L-basis coords.

    ``ring`` is a ``PropagatedRing``: it has a matrix at every degree.
    """
    return combine(ring.field.p, vec, ring.matrix_at(e, degree))


@record
class GrendDim:
    shift: int
    dim: int
    bound: int

    @property
    def bound_ok(self):
        return self.dim <= self.bound


def grend_d_dimension(analysis, shift):
    """Dimension of the degree-`shift` graded endomorphism space of L^3.

    Solved by the per-operation propagation (``oracle_solve_graded_maps``
    in ``test_lemma``), which takes any shift.  Also reports the a-priori
    bound min(dim V_m) over target degrees in the window; the computed
    dimension must not exceed it.
    """
    from test_lemma import oracle_solve_graded_maps  # test_lemma imports this module

    if analysis.d is None:
        raise DegenerateGenerators("endomorphism solve needs independent generators")
    window = analysis.window
    if shift < 0 or endo.K0 + shift > window:
        raise OutOfWindow(f"shift {shift} pushes the bottom past the window")
    kernel_rows, _ = oracle_solve_graded_maps(analysis, shift, endo.K0, window)
    bound = min(analysis.dim(m) for m in range(endo.K0 + shift, window + 1))
    return GrendDim(shift=shift, dim=len(kernel_rows), bound=bound)


# -- the two-level search --------------------------------------------------------


def oracle_two_level_search(field, class_n, limit):
    """``maxclass.search_sequences`` before it searched one subtree per
    E*-orbit: every child (1 : t) of every node is searched on its own.

    Each node branches over the projective kernel of its columns, and a
    free node over the children ``maxclass.free_children`` reads off the
    columns of (1 : 0) and (0 : 1) (the bilinearity lemma), in ``F.key``
    order, then (0 : 1).  The list is in that lexicographic order and cut
    at ``limit``.
    """
    F = field
    st = mc._Structure(field, class_n)
    out = []

    def next_columns(d, pair):
        added = st.extend(d, pair)
        cols = st.linear_forms()
        st.retract(d, added)
        return cols

    def children(d, cols):
        kernel = mc.projective_kernel(F, *cols)
        if kernel is not None:
            return ((pair, None) for pair in kernel)
        if d + 1 == class_n:
            leaves = chain(((F.one, t) for t in F.elements()), [mc.ey_point(F)])
            return ((pair, None) for pair in leaves)
        return mc.free_children(
            F, next_columns(d, mc.ex_point(F)), next_columns(d, mc.ey_point(F))
        )

    def dfs(d, stack, cols):
        for pair, child_cols in children(d, st.linear_forms() if cols is None else cols):
            if len(out) >= limit:
                return
            if d + 1 == class_n:
                out.append(mc.MaxClassPresentation(field, class_n, stack + (pair,)))
                continue
            if d + 2 == class_n and child_cols is not None:
                dfs(d + 1, stack + (pair,), child_cols)
                continue
            added = st.extend(d, pair)
            dfs(d + 1, stack + (pair,), child_cols)
            st.retract(d, added)

    dfs(2, (), None)
    return out
