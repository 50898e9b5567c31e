"""The paper's checks that no subcommand runs, kept as independent test oracles.

The package computes what the CLI reports: the classification of thin
subalgebras generated in degree 1 (``subfield``), the degree-0
endomorphism ring (``endo``), the round trip (``reconstruct``) and the
scan.  The checks here carry the lemmas behind those results and test
them by other means:

* ``verify_covering`` and ``verify_ideal_sandwich`` check the covering
  and r-constrained properties by brute force over every homogeneous
  element, under the budget ``BRUTE_FORCE_LIMIT``;
* ``standard_generators`` base-changes a presentation to standard
  generators by ``apply_degree1_change``, which rebuilds the pairs and the
  table; ``maxclass.standardize`` replaced it by a map of the centralizer
  points, and ``phi_at`` reads phi_d off either table layout;
* ``thin_line_criterion`` decides thinness from centralizer data alone,
  and ``normalize_generators`` moves a pair into the normal form;
* ``compute_grend0`` and ``identify_field_of_ring`` solve End_0 on the
  bottom degree as a ring (a kernel, a multiplication table and the
  solves behind them), which ``endo.identify_field`` replaced by its
  closed form in (p, u, v) and dim L_3;
* ``propagated_grend0`` and ``identify_field_per_degree`` are the
  degree-by-degree End_0 solve and Schur check that the bottom-degree
  solve replaced, and ``scalar_action`` applies an element of that ring
  at any degree;
* ``grend_d_dimension`` gives the dimension of the degree-d graded
  endomorphism space, by the per-operation propagation
  ``solve_shifted_maps``, which takes any shift;
* ``oracle_two_level_search`` is the presentation search before it
  searched one subtree per E*-orbit (``maxclass.search_sequences``);
* ``oracle_roundtrip`` is the round trip on stored representations
  (``build_rho``, ``build_rho_prime``, the slot comparisons of
  ``_check_rep`` and the phi map of ``_phi_failure``), which
  ``reconstruct.verify_roundtrip`` replaced by one faithfulness scan of
  the structure table, and ``top_bracket_scan`` is the scan of every cell
  that ``reconstruct._top_bracket`` replaced by reading the rows of total
  degree <= window;
* ``bases`` gives the canonical F-basis of every L_i in closed form
  (``space`` and ``express`` read vectors in it), which the package
  dropped because no subcommand reads a basis row: it keeps only the
  dimensions;
* ``pair_walk_keys`` is the scan's walk over every normalized pair
  (``normalized_pairs``) or every F-plane (``f_planes``), which
  ``subfield._key_counts`` replaced by counting the Baer sublines through
  the centralizer points, and ``line_avoidance_walk`` is the pair-by-pair
  line-avoidance count that ``subfield.count_thin_by_line_avoidance``
  replaced by counting affine lines;
* ``quotient``, ``image``, ``raw_pairs``, ``ad_gen``, ``bracket_vec`` and
  ``f4_to_deg1`` are the test-support truncation, the full image of a
  basis row under a representation, every generator pair, the bracket of
  homogeneous elements in F-coordinates, and a degree-1 element from its
  F-coordinates.
"""

from __future__ import annotations

from itertools import chain, combinations, product

from int_kernel import RowSpace, combine, mat_mul, solve, span
from thinlie import endo
from thinlie import maxclass as mc
from thinlie import reconstruct as rec
from thinlie import subfield as sf
from thinlie._record import cache, record
from thinlie.errors import (
    BadBound,
    DegenerateGenerators,
    NotStandardForm,
    PreconditionFailed,
    ThinLieError,
)
from thinlie.gf import quadratic_is_irreducible

BRUTE_FORCE_LIMIT = 200_000


class WindowTooLargeForBruteForce(ThinLieError):
    pass


class DimensionAnomaly(ThinLieError):
    pass


# -- test support ----------------------------------------------------------------


def _line(p, c):
    """The rref basis row of F*c*v_i: c scaled so its first nonzero entry is 1."""
    c0, c1 = c
    if c0 == 0:
        return (0, 1)
    return (1, c1 * pow(c0, p - 2, p) % p)


_last_bases = [None, None]  # (analysis, its bases): oracles read one degree at a time


def bases(an):
    """The canonical (rref) F-basis of every L_i of an analysis, i = 1..window.

    The package keeps only the dimensions.  This is the closed form of the
    dimension lemma (``subfield`` docstring): the rref of span_F{X, Y} for
    L_1, nothing above it for a degenerate pair, L_2 = F*det(X, Y)*v_2,
    a full degree stays full, and a line F*c*v_i with d_i = 0 grows to
    M_{i+1}, with d_i = 1 to the line of c*phi_i(X) or c*phi_i(Y),
    whichever is nonzero.  The last analysis asked for is remembered.
    """
    if _last_bases[0] is not an:
        _last_bases[:] = [an, _bases(an)]
    return _last_bases[1]


def _bases(an):
    F, g, window = an.field, an.pair, an.window
    l1 = tuple(span(F.p, [sf.deg1_to_f4(g.X), sf.deg1_to_f4(g.Y)], 4).basis())
    if an.d is None:
        return (l1,) + ((),) * (window - 1)
    st = mc.tables(an.pres)
    full = ((1, 0), (0, 1))
    c = _line(F.p, g.det(F))
    out = [l1, (c,)]
    for i, d_i in zip(range(2, window), an.d):
        if len(out[-1]) == 2 or d_i == 0:
            out.append(full)
            continue
        phi = phi_at(st, i, g.X)
        if F.is_zero(phi):
            phi = phi_at(st, i, g.Y)
        c = _line(F.p, F.mul(c, phi))
        out.append((c,))
    return tuple(out)


def basis(an, degree):
    """The canonical F-basis of L_degree (``bases``)."""
    return bases(an)[degree - 1]


def space(an, degree):
    """L_degree of a ``SubalgebraAnalysis`` as a row space."""
    return span(an.field.p, basis(an, degree), 4 if degree == 1 else 2)


def express(an, degree, vec):
    """Coordinates of an ambient vector in the canonical L_degree basis."""
    return tuple(space(an, degree).coords(vec))


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
    entry = _reader(rep, _rows(an), rep.images)
    slots = range(rep.slots_min, rep.window - d + 1)
    if d == 1:
        return {s: entry(r, s) for s in slots}
    row = basis(an, d)[r]
    e = (row[0], row[1])
    return {s: F.mul(e, entry(d, s)) for s in slots}


def f4_to_deg1(vec):
    """The degree-1 element with F-coordinates (a0, a1, b0, b1): (A, B)."""
    return ((vec[0], vec[1]), (vec[2], vec[3]))


def normalized_pairs(field):
    """Canonical representatives X = x + beta*y, Y = mu*x + delta*y."""
    out = []
    for be in field.elements():
        for de in field.elements():
            out.append(sf.GeneratorPair((field.one, be), (field.mu, de)))
    return out


def f_planes(field):
    """Every F-plane of M_1 = F^4 once, as the pair of its two rref rows.

    A plane with pivot columns j < k has free entries in row X at the
    columns after j other than k, and in row Y at the columns after k.
    """
    out = []
    for j, k in combinations(range(4), 2):
        free = [(0, c) for c in range(j + 1, 4) if c != k]
        free += [(1, c) for c in range(k + 1, 4)]
        for values in product(range(field.p), repeat=len(free)):
            rows = [[0] * 4, [0] * 4]
            rows[0][j] = rows[1][k] = 1
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            out.append(sf.GeneratorPair(f4_to_deg1(rows[0]), f4_to_deg1(rows[1])))
    return out


def pair_walk_keys(amb, raw=False):
    """The scan's pairs per d-key, by walking them: every E-independent
    normalized pair, or every E-independent F-plane weighted by
    |GL_2(F)|, keyed by ``subfield._d_key``.  This is the scan before
    ``subfield._key_counts`` read the keys off the Baer sublines."""
    F = amb.pres.field
    weight = (F.order - 1) * (F.order - F.p) if raw else 1
    keys = {}
    for g in f_planes(F) if raw else normalized_pairs(F):
        if not g.is_degenerate(F):
            key = sf._d_key(amb, g)
            keys[key] = keys.get(key, 0) + weight
    return keys


def line_avoidance_walk(pres, window=None, centralizers=None):
    """``subfield.count_thin_by_line_avoidance`` pair by pair: the q^2
    normalized pairs (beta, delta), each tested at every lambda."""
    F = pres.field
    window = pres.class_n if window is None else window
    seq = mc.two_step_centralizers(pres) if centralizers is None else centralizers
    lams = [pt[1] for pt in seq.distinct(window) if pt != mc.ey_point(F)]
    count = 0
    for be in F.elements():
        for de in F.elements():
            if de == F.mul(F.mu, be):
                continue
            if all(
                sf._f_independent(F, F.sub(be, lam), F.sub(de, F.mul(lam, F.mu)))
                for lam in lams
            ):
                count += 1
    return count


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


def ad_gen(pres, degree, vec, gen):
    """[vec, gen] for an F-coordinate vector of degree `degree`.

    Returns F^2 coordinates in degree + 1 (the zero vector past the bound).
    """
    F = pres.field
    if degree + 1 > pres.class_n:
        return (0, 0)
    if degree == 1:
        (A, B), (al, be) = f4_to_deg1(vec), gen
        return F.sub(F.mul(B, al), F.mul(A, be))  # [Ax+By, alpha x + beta y]
    return F.mul((vec[0], vec[1]), phi_at(mc.tables(pres), degree, gen))


def bracket_vec(pres, deg_u, u, deg_w, w):
    """[u, w] for F-coordinate vectors of arbitrary degrees.

    Degree-1 vectors live in F^4, all others in F^2; the result is in
    F^2 coordinates of degree deg_u + deg_w (zero past the class bound).
    """
    F = pres.field
    st = mc.tables(pres)
    if deg_u + deg_w > pres.class_n:
        return (0, 0)
    if deg_w == 1:
        return ad_gen(pres, deg_u, u, f4_to_deg1(w))
    if deg_u == 1:
        img = ad_gen(pres, deg_w, w, f4_to_deg1(u))
        return F.neg(img)
    cu = (u[0], u[1])
    cw = (w[0], w[1])
    return F.mul(F.mul(cu, cw), st.get_vv(deg_u, deg_w))


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
        target = space(analysis, i + 1)
        for coeffs in _nonzero_coeff_vectors(p, analysis.dim(i)):
            u = combine(p, coeffs, basis(analysis, i))
            img = RowSpace(p, 2)
            img.insert(ad_gen(pres, i, u, g.X))
            img.insert(ad_gen(pres, i, u, g.Y))
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
            w = ad_gen(pres, h, u, gen)
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
            l = combine(p, coeffs, basis(analysis, i))
            spans = ideal_closure(analysis, i, l)
            for h in range(i + r, analysis.window + 1):
                target = basis(analysis, h)
                if not all(spans[h].contains(row) for row in target):
                    return SandwichReport(ok=False, r=r, witness=(i, coeffs, h))
    return SandwichReport(ok=True, r=r, witness=None)


# -- the base change of the presentation ------------------------------------------


def phi_at(st, d, gen):
    """phi_d(alpha, beta) = alpha*a_d + beta*b_d: [v_d, alpha*x + beta*y] = phi_d*v_{d+1},
    off the pairs of a table of either layout."""
    F = st.field
    return F.add(F.mul(gen[0], st.a[d]), F.mul(gen[1], st.b[d]))


def apply_degree1_change(pres, xp, yp):
    """Recompute the presentation after the degree-1 base change.

    xp and yp are the new generators in the old (x, y) coordinates; the
    new chain is re-normalized canonically (v'_{i+1} = [v'_i, x'] when
    that bracket is nonzero, else [v'_i, y']).

    The input is validated (``tables``), and the result describes the
    same algebra in the basis x', y', v'_2 = [y', x'] = s_2*v_2,
    v'_{i+1} = s_{i+1}*v_{i+1}, so the result satisfies Jacobi too.  Its
    table is therefore derived by ``_Structure.extend`` alone, without
    ``validate``'s Jacobi check: the cells extend derives are consequences
    of the pairs and Jacobi, so they are the brackets of that algebra.
    This is the presentation ``maxclass.standardize`` avoids rebuilding.
    """
    F = pres.field
    st = mc.tables(pres)
    a1, b1 = xp
    a2, b2 = yp
    det = F.sub(F.mul(b2, a1), F.mul(a2, b1))  # [y', x'] = det * v_2
    if F.is_zero(det):
        raise ValueError("degree-1 base change is singular")
    s = det
    new_pairs = []
    for d in range(2, pres.class_n):
        p = F.mul(s, phi_at(st, d, xp))
        q = F.mul(s, phi_at(st, d, yp))
        if not F.is_zero(p):
            new_pairs.append((F.one, F.div(q, p)))
            s = p
        else:
            new_pairs.append((F.zero, F.one))
            s = q
    out = mc.MaxClassPresentation(F, pres.class_n, tuple(new_pairs))
    out._structure = mc._Structure(F, pres.class_n)
    for d in range(2, pres.class_n):
        out._structure.extend(d, out.pair(d))
    return out


@record
class StandardForm:
    presentation: mc.MaxClassPresentation
    transform: tuple  # new x and new y in the old (x, y) coordinates
    changed: bool


def standard_generators(pres):
    """Base-change to standard generators and a canonical adjoint chain.

    Afterwards C_2 = Ey, and if some centralizer inside the window differs
    from C_2 the least such degree has centralizer Ex.  The operation is
    idempotent.  ``maxclass.standardize`` gives the centralizers of the
    result from those of ``pres``, with the same choice of (x', y').
    """
    F = pres.field
    seq = mc.two_step_centralizers(pres)
    c2 = seq.points[0]
    yp = c2  # a spanning vector of C_2
    devs = seq.deviations()
    if devs:
        xp = seq.point(devs[0])
    else:
        xp = (F.one, F.zero) if c2 == mc.ey_point(F) else (F.zero, F.one)
    out = apply_degree1_change(pres, xp, yp)
    identity = xp == (F.one, F.zero) and yp == (F.zero, F.one)
    return StandardForm(
        presentation=out,
        transform=(xp, yp),
        changed=not (identity and out.adjoint == pres.adjoint),
    )


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
    ga = F.scale(f, F.sub(ga, (g0, 0)))  # = mu
    de = F.scale(f, F.sub(de, F.mul((g0, 0), be)))
    if F.is_zero(be):
        return NormalizationResult(
            sf.GeneratorPair((F.one, be), (ga, de)),
            pres,
            ident,
            False,
            "beta = 0: X = x, no y-rescale possible",
        )
    # Rescale the ambient y by beta; in the new basis X = x' + y'.
    pres2 = apply_degree1_change(pres, (F.one, F.zero), (F.zero, be))
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


# -- the bottom-degree ring solve ------------------------------------------------
#
# ``endo.identify_field`` reads its report off (p, u, v) and dim L_3 (the
# closed form in the ``endo`` docstring).  The ring solve it replaced is
# kept here as its oracle: the kernel of "f commutes with m_mu" on the
# bottom matrix, its multiplication table, and the field read off the
# table with the root of the ambient quadratic and its embedding.

K0 = 3  # the module is L^{K0}; its bottom degree carries the unknowns


class CoveringFails(ThinLieError):
    pass


class NotAField(ThinLieError):
    pass


class NotCommutative(ThinLieError):
    pass


class OutOfWindow(ThinLieError):
    pass


@record
class EndoRing:
    analysis: sf.SubalgebraAnalysis
    dim: int
    basis: tuple  # flattened bottom matrices
    identity: tuple  # coordinates of id in the basis
    mult_table: tuple  # coords of basis[i] o basis[j]

    @property
    def field(self):
        return self.analysis.field

    def element_flat(self, coords):
        return combine(self.field.p, coords, self.basis)

    def compose(self, e1, e2):
        """Coordinates of e1 o e2 (apply e2 first)."""
        p = self.field.p
        d = self.analysis.dim(K0)
        prod = _compose_flat(p, d, self.element_flat(e1), self.element_flat(e2))
        return tuple(solve(p, self.basis, prod))


@record
class RingFieldId:
    """``endo.FieldId``'s report and the ring elements behind it: the
    generator, the root mu_hat acting as mu, and the scalar sigma by which
    the generator acts on V_{k0}."""

    dim: int
    min_poly: tuple | None  # (c0, c1, 1) for t^2 + c1 t + c0
    is_field: bool
    embedding: str  # "mu" | "mu_conj" | "n/a"
    generator: tuple | None
    mu_hat: tuple | None
    sigma: tuple | None

    def report(self):
        return endo.FieldId(self.dim, self.min_poly, self.is_field, self.embedding)


_FIELD_F = dict(
    dim=1, min_poly=None, is_field=True, embedding="n/a", generator=None, mu_hat=None, sigma=None
)


def _compose_flat(p, d, flat1, flat2):
    """Flattened bottom matrix of e1 o e2; row vectors, so v . M2 . M1."""
    m1, m2 = ([f[r * d : (r + 1) * d] for r in range(d)] for f in (flat1, flat2))
    return tuple(x for row in mat_mul(p, m2, m1) for x in row)


def _commuting_forms(m):
    """The entries of f.m - m.f as linear forms in the flattened f."""
    n = len(m)
    forms = []
    for r in range(n):
        for c in range(n):
            form = [0] * (n * n)
            for k in range(n):
                form[r * n + k] += m[k][c]
                form[k * n + c] -= m[r][k]
            forms.append(form)
    return forms


def compute_grend0(analysis):
    """End_0(L^3) as a ring on the bottom degree: F*id when dim L_3 = 1, and
    otherwise the kernel of the 4 linear conditions "f commutes with m_mu"
    on the flattened bottom matrix, with m_mu read off ``basis(analysis, 3)``."""
    if analysis.d is None:
        raise DegenerateGenerators("endomorphism ring needs independent generators")
    F = analysis.field
    p = F.p
    d = analysis.dim(K0)
    constraints = []
    if d == 2:
        m_mu = [express(analysis, K0, F.mul(F.mu, w)) for w in bases(analysis)[K0 - 1]]
        constraints = _commuting_forms(m_mu)
    basis = span(p, constraints, d * d).kernel()
    identity_flat = [int(r == c) for r in range(d) for c in range(d)]
    table = [
        tuple(tuple(solve(p, basis, _compose_flat(p, d, ki, kj))) for kj in basis)
        for ki in basis
    ]
    return EndoRing(
        analysis=analysis,
        dim=len(basis),
        basis=tuple(basis),
        identity=tuple(solve(p, basis, identity_flat)),
        mult_table=tuple(table),
    )


def _scalar_of_action(ring, coords):
    """The extension scalar by which an element of a 2-dimensional ring acts:
    the image of the first basis row w of L_3, read off the first row of
    the bottom matrix, divided by w."""
    F = ring.field
    rows = basis(ring.analysis, K0)
    img = combine(F.p, ring.element_flat(coords)[: len(rows)], rows)
    return F.div(img, rows[0])


def _check_commutative(ring):
    for i in range(ring.dim):
        for j in range(i + 1, ring.dim):
            if ring.mult_table[i][j] != ring.mult_table[j][i]:
                raise NotCommutative(f"basis elements {i} and {j} do not commute")


def identify_field_of_ring(ring):
    """The field of an ``EndoRing``, read off its multiplication table.

    The table must commute.  In dimension 2 the generator is the first
    basis element outside F*identity, and its minimal polynomial is read
    off g^2 = m1*1 + m2*g.  The generator acts on V_{k0} by a scalar
    sigma, so mu_hat = a*1 + b*gen with a + b*sigma = mu, and its Galois
    conjugate is u*1 - mu_hat; one composition checks that mu_hat squares
    like mu.  The embedding is "mu" when mu_hat comes first in
    lexicographic coordinate order, else "mu_conj".
    """
    F = ring.field
    p = F.p
    _check_commutative(ring)
    if ring.dim == 1:
        return RingFieldId(**_FIELD_F)
    # e0 lies in F*identity exactly when the identity's e1-coordinate is 0
    gen = (1, 0) if ring.identity[1] else (0, 1)
    g2 = ring.compose(gen, gen)
    m1, m2 = solve(p, [ring.identity, gen], g2)
    sigma = _scalar_of_action(ring, gen)
    a, b = solve(p, [F.one, sigma], F.mu)
    mu_hat = tuple((a * i + b * g) % p for i, g in zip(ring.identity, gen))
    conj = tuple((F.u * i - m) % p for m, i in zip(mu_hat, ring.identity))
    if ring.compose(mu_hat, mu_hat) != tuple(
        (F.u * m + F.v * i) % p for m, i in zip(mu_hat, ring.identity)
    ):
        raise DimensionAnomaly("mu_hat is not a root of the ambient quadratic")
    return RingFieldId(
        dim=2,
        min_poly=((-m1) % p, (-m2) % p, 1),
        is_field=True,
        embedding="mu" if mu_hat < conj else "mu_conj",
        generator=gen,
        mu_hat=mu_hat,
        sigma=sigma,
    )


# -- the propagated degree-0 ring ------------------------------------------------
#
# The bottom-degree solve reads no degree above 3 (the lemma in the ``endo``
# docstring).  The per-degree solve it replaced is kept here as its oracle:
# the ring with a propagated matrix at every degree, the composition
# crosscheck one degree up, and the field identification that checks
# Schur's lemma on every degree.


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
    dim = analysis.dim(K0)
    n_unk = dim * dim
    symbolic = {
        K0: [[_lf_unit(n_unk, r * dim + c) for c in range(dim)] for r in range(dim)]
    }
    gens = (analysis.pair.X, analysis.pair.Y)
    constraints = []
    minus_one = (p - 1,)
    for i in range(K0, analysis.window):
        f_i = symbolic[i]
        ad = [
            [express(analysis, i + 1, ad_gen(analysis.pres, i, v, g)) for g in gens]
            for v in basis(analysis, i)
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
    """``EndoRing`` with its propagated matrix at every degree."""

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
        if not K0 <= degree <= window:
            raise OutOfWindow(f"degree {degree} outside [{K0}, {window}]")
        return _eval_forms(self.field.p, self._symbolic[degree], self.element_flat(coords))

    def compose(self, e1, e2):
        """Coordinates of e1 o e2 (apply e2 first)."""
        p = self.field.p
        d = self.analysis.dim(K0)
        prod = _compose_flat(p, d, self.element_flat(e1), self.element_flat(e2))
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
    d = analysis.dim(K0)
    p = analysis.field.p
    identity_flat = [int(r == c) for r in range(d) for c in range(d)]
    table = [
        tuple(
            _ring_coords(p, kernel_rows, _compose_flat(p, d, ki, kj))
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
    deg = K0 + 1
    for i in range(ring.dim):
        for j in range(ring.dim):
            mi = ring.matrix_at(_lf_unit(ring.dim, i), deg)
            mj = ring.matrix_at(_lf_unit(ring.dim, j), deg)
            direct = mat_mul(p, mj, mi)
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
    mat = ring.matrix_at(coords, K0)
    rows = basis(ring.analysis, K0)
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
    """``identify_field_of_ring`` with Schur's lemma checked on every degree.

    Commutativity comes from the multiplication table.  On every component
    in the window the identity must act as I, and the generator's matrix G
    must satisfy the generator's minimal polynomial, G^2 = m2*G + m1*I.
    That polynomial is irreducible over GF(p), so G has no eigenvalue in
    GF(p) and a*I + b*G is invertible for every nonzero (a, b): no nonzero
    element is singular on any component.  The root of the ambient
    quadratic that acts as mu and the embedding are read off as in
    ``identify_field_of_ring``.
    """
    F = ring.field
    p = F.p
    _check_commutative(ring)
    if ring.dim not in (1, 2):
        raise NotAField(f"unexpected ring dimension {ring.dim}")
    degrees = range(K0, ring.analysis.window + 1)
    for degree in degrees:
        one = ring.matrix_at(ring.identity, degree)
        if one != [[int(r == c) for c in range(len(one))] for r in range(len(one))]:
            raise NotAField(f"the identity does not act as I on degree {degree}")
    if ring.dim == 1:
        return RingFieldId(**_FIELD_F)
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
        if mat_mul(p, G, G) != want:
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
    return RingFieldId(
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


def _gen_images(analysis, degree):
    """[(row index, generator index, coords of [row, gen] in L_{degree+1})]."""
    return [
        (r, g, express(analysis, degree + 1, ad_gen(analysis.pres, degree, row, gen)))
        for r, row in enumerate(basis(analysis, degree))
        for g, gen in enumerate((analysis.pair.X, analysis.pair.Y))
    ]


def solve_shifted_maps(analysis, shift):
    """Kernel rows of the graded degree-`shift` L-endomorphisms of L^3.

    Each unknown bottom matrix V_3 -> V_{3+shift} is propagated one degree
    at a time, one operation per entry: the images of [v, g] are read off
    both degrees' ad rows, f_{i+1} off a spanning subset of the [v, g],
    and every row whose image disagrees with f_{i+1} gives a constraint.
    ``solve_graded_maps`` is its one-step form at shift 0.
    """
    p = analysis.field.p
    dim_src, dim_tgt = analysis.dim(K0), analysis.dim(K0 + shift)
    n_unk = dim_src * dim_tgt
    zero = (0,) * n_unk

    def axpy(acc, c, form):
        return tuple((a + c * x) % p for a, x in zip(acc, form))

    f_i = [[_lf_unit(n_unk, r * dim_tgt + c) for c in range(dim_tgt)] for r in range(dim_src)]
    constraints = []
    for i in range(K0, analysis.window - shift):
        tgt = {(r, g): vec for r, g, vec in _gen_images(analysis, i + shift)}
        d_next, d_next_tgt = analysis.dim(i + 1), analysis.dim(i + 1 + shift)
        pairs = []
        for r, g, in_vec in _gen_images(analysis, i):
            out = [zero] * d_next_tgt
            for s in range(analysis.dim(i + shift)):
                for j, c in enumerate(tgt[(s, g)]):
                    if c:
                        out[j] = axpy(out[j], c, f_i[r][s])
            pairs.append((tuple(in_vec), out))
        chooser = RowSpace(p, d_next)
        selected = [k for k, (in_vec, _) in enumerate(pairs) if chooser.insert(in_vec)]
        if len(selected) != d_next:
            raise CoveringFails(
                f"[L_{i}, L_1] does not span L_{i + 1}; propagation is not forced"
            )
        sel_rows = [pairs[k][0] for k in selected]
        f_next = []
        for j in range(d_next):
            inv = solve(p, sel_rows, _lf_unit(d_next, j))
            acc = [zero] * d_next_tgt
            for c, k in zip(inv, selected):
                if c:
                    acc = [axpy(a, c, form) for a, form in zip(acc, pairs[k][1])]
            f_next.append(acc)
        for in_vec, out in pairs:
            for col in range(d_next_tgt):
                acc = zero
                for j, c in enumerate(in_vec):
                    if c:
                        acc = axpy(acc, c, f_next[j][col])
                diff = tuple((a - b) % p for a, b in zip(acc, out[col]))
                if any(diff):
                    constraints.append(diff)
        f_i = f_next
    return span(p, constraints, n_unk).kernel()


def grend_d_dimension(analysis, shift):
    """Dimension of the degree-`shift` graded endomorphism space of L^3.

    Solved by ``solve_shifted_maps``, which takes any shift.  Also reports
    the a-priori bound min(dim V_m) over target degrees in the window; the
    computed dimension must not exceed it.
    """
    if analysis.d is None:
        raise DegenerateGenerators("endomorphism solve needs independent generators")
    window = analysis.window
    if shift < 0 or K0 + shift > window:
        raise OutOfWindow(f"shift {shift} pushes the bottom past the window")
    bound = min(analysis.dim(m) for m in range(K0 + shift, window + 1))
    return GrendDim(shift=shift, dim=len(solve_shifted_maps(analysis, shift)), bound=bound)


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
        st.extend(d, pair)
        cols = st.linear_forms()
        st.retract(d)
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
            st.extend(d, pair)
            dfs(d + 1, stack + (pair,), child_cols)
            st.retract(d)

    dfs(2, (), None)
    return out


# -- the stored representations ----------------------------------------------------
#
# ``reconstruct.verify_roundtrip`` reads the round trip off the structure
# table: both representations are the adjoint action on an invariant
# subspace (the slot lemma in its docstring), so only faithfulness is
# scanned.  The construction it replaced -- rho and rho' as stored shift
# maps, the slot comparisons of ``_check_rep`` and the phi map of
# ``_phi_failure`` -- is kept here as its oracle, ``oracle_roundtrip``.
# There a degree whose images vanish on every slot raises NotFaithful,
# where the package raises WindowTooSmall.


class NotEStable(ThinLieError):
    pass


class NotFaithful(ThinLieError):
    pass


class NotMetabelian(ThinLieError):
    pass


def _commutator(field, slots, m1, d1, m2, d2):
    """The matrix commutator [m1, m2] of two shift maps, on ``slots``.

    Shift maps record the right adjoint action w -> [w, t], which is a
    Lie homomorphism in the row-vector convention: the product m1*m2
    applies m1 first.  m1 and m2 read an entry by source slot, and the
    entry at slot s is m1(s)*m2(s+d1) - m2(s)*m1(s+d2); ``slots`` ends by
    window - d1 - d2, so every entry read lies inside the maps.
    """
    mul = field.mul
    return {s: field.sub(mul(m1(s), m2(s + d1)), mul(m2(s), m1(s + d2))) for s in slots}


@record
class RhoRep:
    """A representation on the slots [slots_min, window], stored below ``lo``.

    Maps are named by basis ids: 0 and 1 are the rows r1, r2 of T_1, and
    d >= 2 is v_d.  Each entry of both constructions is E-linear in t for
    t in M_d, d >= 2, so the image of a row e*v_d of T_d is e*rho(v_d);
    rho(v_d) is that E-linear extension, also when v_d is not in T_d.

    A slot s >= lo (lo = k - 1 on rho, lo = 3 on rho') is the line M_s
    with basis row eps_s*v_s, and there rho(t)(s) = eps_s*c*eps_{s+d}^{-1}
    where [v_s, t] = c*v_{s+d} (``_reader``).  ``images`` holds the
    entries on the slots below lo -- slots 1 and 2 on rho', none on rho:
    images[i][s] for s < lo.
    """

    branch: str  # "rho" | "rho_prime"
    k: int
    window: int
    slots_min: int  # slots are the contiguous degrees [slots_min, window]
    lo: int  # the slots >= lo are read off the structure table
    analysis: object  # the SubalgebraAnalysis
    images: dict  # basis id -> {slot: entry} on the slots below lo
    eps: dict = cache()  # basis(s)[0] = eps_s*v_s for lo <= s <= window
    inv: dict = cache()  # eps_s^{-1}, one inversion per degree

    def __post_init__(self):
        F = self.analysis.field
        self.eps = {s: _row_scalar(self.analysis, s) for s in range(self.lo, self.window + 1)}
        self.inv = {s: F.inv(e) for s, e in self.eps.items()}


def _row_scalar(an, degree):
    """e with basis(degree)[0] = e*v_degree, for degree >= 2."""
    row = basis(an, degree)[0]
    return (row[0], row[1])


def _rows(an):
    """The rows r1, r2 of T_1 as extension pairs (alpha, beta): alpha*x + beta*y."""
    return [f4_to_deg1(row) for row in basis(an, 1)]


def _reader(rep, gens, low):
    """entry(i, s): the entry at slot s of the map of basis id i.

    Below rep.lo it is low[i][s].  From lo on it is read off the structure
    table: the map of id 0 or 1 acts as the degree-1 element gens[i], so
    its entry is eps_s*phi_s(gens[i])*eps_{s+1}^{-1}, and the map of id
    i >= 2 acts as v_i, with entry eps_s*[v_s, v_i]*eps_{s+i}^{-1}.
    """
    F = rep.analysis.field
    st = mc.tables(rep.analysis.pres)
    lo, eps, inv, mul = rep.lo, rep.eps, rep.inv, F.mul

    def entry(i, s):
        if s < lo:
            return low[i][s]
        if i < 2:
            return mul(mul(eps[s], phi_at(st, s, gens[i])), inv[s + 1])
        return mul(mul(eps[s], st.get_vv(s, i)), inv[s + i])

    return entry


def _low_mismatch(rep, gens, entry):
    """mismatch(g, t): the first slot below rep.lo where the map of the
    bracket [g, w_t] differs from the commutator of the maps, or None.

    The maps are read by ``entry`` (``_reader`` over gens).  g is 0 or 1
    and w_t is gens[1] for t = 1, else v_t (ids as in ``RhoRep``).  The
    bracket is read off the table: [gens[0], gens[1]] = (b1*a2 - a1*b2)*v_2,
    because [x, y] = -v_2, and [g, v_t] = -phi_t(g)*v_{t+1}.  Slots s with
    s + 1 + t > window are outside the commutator.
    """
    F = rep.analysis.field
    st = mc.tables(rep.analysis.pres)
    (a1, b1), (a2, b2) = gens
    det = F.sub(F.mul(b1, a2), F.mul(a1, b2))

    def mismatch(g, t):
        slots = range(rep.slots_min, min(rep.lo, rep.window - t))
        if not slots:
            return None
        coeff = det if t == 1 else F.neg(phi_at(st, t, gens[g]))
        got = _commutator(F, slots, lambda s: entry(g, s), 1, lambda s: entry(t, s), t)
        return next((s for s in slots if got[s] != F.mul(coeff, entry(t + 1, s))), None)

    return mismatch


def _check_e_structure(analysis, lo):
    """Every degree from lo up is an extension line: dim_F L_m = 2 = dim_F M_m."""
    for m in range(lo, analysis.window + 1):
        if analysis.dim(m) != 2:
            raise NotEStable(f"component of degree {m} is not an extension line")


def _check_rep(rep):
    """Per-degree faithfulness, and the homomorphism property on generators.

    Both checks stop at window - k.  In degree d >= 2 the rows of T_d are
    e*v_d for F-independent e, so their images are F-independent iff
    rho(v_d) has one nonzero entry.  The homomorphism is checked on the
    pairs (g, t) with g in T_1 only (the generator lemma: T is generated
    by T_1), t over r2 in degree 1 and over v_d above, and only on the
    slots below lo.
    """
    an = rep.analysis
    F = an.field
    window, cap = rep.window, rep.window - rep.k
    rows = _rows(an)
    entry = _reader(rep, rows, rep.images)
    for d in range(2, cap + 1):
        if all(F.is_zero(entry(d, s)) for s in range(rep.slots_min, window - d + 1)):
            raise NotFaithful(f"representation has a kernel in degree {d}")
    mismatch = _low_mismatch(rep, rows, entry)
    for d in range(1, cap):
        for g in (0,) if d == 1 else (0, 1):
            s = mismatch(g, d)
            if s is not None:
                raise DimensionAnomaly(
                    f"rho([t,t']) != [rho(t), rho(t')] at degrees (1,{d}), slot {s}"
                )


def build_rho(analysis, flags):
    """Adjoint representation on the extension span of z plus the ideal T^k.

    The slot of z = basis(k - 1)[0] comes first, then T^k, and every slot
    is a table slot (lo = k - 1), so nothing is stored.
    """
    if flags.metabelian:
        raise PreconditionFailed("metabelian input belongs to the modified branch")
    an = analysis
    window = an.window
    k = flags.k
    _check_e_structure(an, k)
    rep = RhoRep(
        branch="rho",
        k=k,
        window=window,
        slots_min=k - 1,
        lo=k - 1,
        analysis=an,
        images={i: {} for i in range(window - k + 2)},
    )
    _check_rep(rep)
    return rep


def build_rho_prime(analysis, flags):
    """The modified representation for metabelian T, on E + E + T^3.

    The two extension slots stand for the lines of Y and of [Y, X]; a
    degree-1 element alpha*X + beta*Y sends the Y-slot to alpha times the
    [Y,X]-slot, and everything else is the adjoint action.  Only slots 1
    and 2 are stored; with [Y, X] = c*v_2 and [v_2, v_d] = c_d*v_{d+2}
    their entries are read off the table: [[Y, X], g] = c*phi_2(g)*v_3 for
    g in T_1, and for v_d [Y, v_d] = -phi_d(Y)*v_{d+1} and
    [[Y, X], v_d] = c*c_d*v_{d+2}, each against the row eps_s*v_s of its
    target slot.  The alpha of each degree-1 row is one ``solve``.
    """
    an = analysis
    F = an.field
    pres = an.pres
    window = an.window
    st = mc.tables(pres)
    if not flags.metabelian:
        raise NotMetabelian("T has a nonzero bracket in T^2 within the window")
    _check_e_structure(an, 3)
    X4 = sf.deg1_to_f4(an.pair.X)
    Y4 = sf.deg1_to_f4(an.pair.Y)
    yx = bracket_vec(pres, 1, Y4, 1, X4)  # spans T_2
    c = (yx[0], yx[1])
    rep = RhoRep(
        branch="rho_prime", k=2, window=window, slots_min=1, lo=3, analysis=an, images={}
    )
    inv = rep.inv
    for r, t in enumerate(basis(an, 1)):
        alpha, _ = solve(F.p, [X4, Y4], t)
        g = f4_to_deg1(t)
        rep.images[r] = {1: (alpha % F.p, 0), 2: F.mul(F.mul(c, phi_at(st, 2, g)), inv[3])}
    for d in range(2, window):
        m = {1: F.neg(F.mul(phi_at(st, d, an.pair.Y), inv[d + 1]))}
        if 2 + d <= window:
            m[2] = F.mul(F.mul(c, st.get_vv(2, d)), inv[d + 2])
        rep.images[d] = m
    _check_rep(rep)
    return rep


def _inverse_rows(F, rows):
    """The rows of the inverse of the 2x2 matrix over E with rows r1, r2.

    With r1 = (a1, b1), r2 = (a2, b2) and det = a1*b2 - b1*a2, they are
    (b2, -b1)/det and (-a2, a1)/det: the coefficients (e1, e2) with
    e1*r1 + e2*r2 = (1, 0) and (0, 1).  DivisionByZero when det = 0.
    """
    (a1, b1), (a2, b2) = rows
    inv = F.inv(F.sub(F.mul(a1, b2), F.mul(b1, a2)))
    return [(F.mul(b2, inv), F.neg(F.mul(b1, inv))), (F.neg(F.mul(a2, inv)), F.mul(a1, inv))]


def _phi_failure(st, rep, usable, phi):
    """The first pair (g, t), g = x or y, with phi([g, t]) != [phi(g), phi(t)].

    phi maps basis ids (0 = x, 1 = y, k = v_k) to their entries on the
    slots below rep.lo; from lo on, they are read off the table.
    """
    F = st.field
    units = ((F.one, F.zero), (F.zero, F.one))
    mismatch = _low_mismatch(rep, units, _reader(rep, units, phi))
    for s in (0, 1):
        for t in range(s + 1, usable):
            sl = mismatch(s, t)
            if sl is not None:
                return f"phi([{mc.label(s)},{mc.label(t)}]) mismatch at slot {sl}"
    return None


def oracle_roundtrip(pres, g, window=None):
    """``reconstruct.verify_roundtrip`` on the stored representations: rho
    or rho' with ``_check_rep``, then phi on the slots below lo."""
    window = pres.class_n if window is None else window
    analysis = sf.generate_subalgebra(pres, g, window)
    if analysis.verdict.kind != "thin":
        raise PreconditionFailed(
            f"round trip needs a thin pair, got {analysis.verdict.kind}"
        )
    flags = rec.detect_structure(analysis)
    if flags.metabelian:
        rep = build_rho_prime(analysis, flags)
    else:
        rep = build_rho(analysis, flags)
    usable = rec.usable_window(rep.window, rep.k)
    F = pres.field

    # phi on degree 1: x and y as extension combinations of the rows r1, r2
    low0, low1 = rep.images[0], rep.images[1]
    phi = {i: rep.images[i] for i in range(2, usable + 1)}
    for i, (e1, e2) in enumerate(_inverse_rows(F, _rows(analysis))):
        phi[i] = {s: F.add(F.mul(e1, c), F.mul(e2, low1[s])) for s, c in low0.items()}
    first_failure = _phi_failure(mc.tables(pres), rep, usable, phi)
    return rec.RoundtripReport(
        branch=rep.branch,
        k=rep.k,
        usable_window=usable,
        iso=first_failure is None,
        first_failure=first_failure,
    )


def top_bracket_scan(st, window):
    """``reconstruct._top_bracket`` as a scan of every cell of a
    ``dict_structure.DictStructure``: the largest i with [v_i, v_j] != 0,
    i < j, i + j <= window; 1 if none."""
    F = st.field
    return max(
        (i for (i, j), c in st.vv.items() if i + j <= window and not F.is_zero(c)), default=1
    )
