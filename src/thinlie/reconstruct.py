"""Rebuilding a maximal-class algebra over GF(p^2) from a thin GF(p)-subalgebra.

Starting from a thin subalgebra T whose degree-0 endomorphism ring of T^3
is a quadratic extension, the adjoint action of T on a distinguished
graded ideal is written out as matrices over the extension and the span
N = E * rho(T) is assembled.  Within a usable window (the truncation eats
the top few degrees), N has the maximal-class dimension pattern over E
and an adjoint presentation can be extracted and compared against the
ambient algebra.

The representation objects here are "shift maps": a homogeneous element
of degree d acts on slots indexed by degree, sending the slot of degree s
to the slot of degree s + d with a single extension coefficient.  That is
the whole content of the block matrices, because every slot is a
one-dimensional extension line.
"""

from __future__ import annotations

from itertools import islice, product

from ._record import record
from .errors import (
    DimensionAnomaly,
    NotEStable,
    NotFaithful,
    NotMetabelian,
    PreconditionFailed,
    WindowTooSmall,
)
from .gf import ExtField, Matrix, RowSpace, rref, solve, span
from .maxclass import (
    MaxClassPresentation,
    label,
    quotient,
    standard_generators,
    tables,
    two_step_centralizers,
    validate,
)
from .subfield import (
    GeneratorPair,
    SubalgebraAnalysis,
    bracket_vec,
    deg1_to_f4,
    f4_to_deg1,
    generate_subalgebra,
)
from .endo import EndoRing, FieldId, compute_grend0, identify_field

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, List, Optional, Sequence, Tuple

    from .gf import EElem

    ShiftMap = Dict[int, EElem]  # source degree -> coefficient; target = source + d


# ---------------------------------------------------------------------------
# Structure detection
# ---------------------------------------------------------------------------


@record
class StructureFlags:
    metabelian: bool
    k: int  # T^k is the ideal the representation acts on
    z_degree: int  # = k - 1
    detection: str  # "metabelian" | "abelian-window" | "insoluble-or-undetected"


def detect_structure(
    analysis: SubalgebraAnalysis, window: Optional[int] = None
) -> StructureFlags:
    """Decide the representation branch from bracket vanishing in the window.

    `metabelian` is an exhaustive [T_i, T_j] = 0 check for i, j >= 2.  For
    the non-metabelian case, k is the least bound whose tail T^k brackets
    all vanish with at least one nontrivial pair visible (2k + 1 <= window);
    without such a k, a witnessed nonzero bracket in T^3 selects the
    insoluble surrogate k = 3, and with no witness either way the window
    is declared too small.

    All of it is read off m, the largest i with a nonzero cell
    [v_i, v_j], i < j, i + j <= window (``_top_bracket``).  The tail T^k
    is abelian in the window iff every such cell with i >= k vanishes,
    that is iff k > m.  So T is metabelian iff m < 2; otherwise the least
    k >= 3 with an abelian tail is m + 1, and a bracket in T^3 is
    witnessed iff m >= 3.
    """
    if analysis.verdict.kind != "thin":
        raise PreconditionFailed("structure detection expects a thin subalgebra")
    window = analysis.window if window is None else window
    m = _top_bracket(tables(analysis.pres), window)
    if m < 2:
        return StructureFlags(metabelian=True, k=2, z_degree=1, detection="metabelian")
    k = m + 1
    if 2 * k + 1 <= window:
        return StructureFlags(
            metabelian=False, k=k, z_degree=k - 1, detection="abelian-window"
        )
    if m >= 3:  # a nonzero bracket witnessed in T^3
        return StructureFlags(
            metabelian=False, k=3, z_degree=2, detection="insoluble-or-undetected"
        )
    raise WindowTooSmall(
        "no abelian tail confirmed and no nonzero bracket witnessed in T^3"
    )


def _top_bracket(st, window: int) -> int:
    """The largest i with [v_i, v_j] != 0, i < j, i + j <= window; 1 if none."""
    F = st.field
    return max(
        (i for (i, j), c in st.vv.items() if i + j <= window and not F.is_zero(c)), default=1
    )


# ---------------------------------------------------------------------------
# Shift-map helpers
# ---------------------------------------------------------------------------


def _map_scale(field: ExtField, e: EElem, m: ShiftMap) -> ShiftMap:
    return {s: field.mul(e, c) for s, c in m.items()}

def _map_add(field: ExtField, m1: ShiftMap, m2: ShiftMap) -> ShiftMap:
    out = dict(m1)
    for s, c in m2.items():
        out[s] = field.add(out.get(s, field.zero), c)
    return out


def _map_is_zero(field: ExtField, m: ShiftMap) -> bool:
    return all(field.is_zero(c) for c in m.values())


def _commutator(
    field: ExtField,
    slots_min: int,
    window: int,
    m1: ShiftMap,
    d1: int,
    m2: ShiftMap,
    d2: int,
) -> ShiftMap:
    """The matrix commutator [m1, m2] of two shift maps.

    Shift maps record the right adjoint action w -> [w, t], which is a
    Lie homomorphism in the row-vector convention: the product m1*m2
    applies m1 first.  Entry at slot s is therefore
    m1[s]*m2[s+d1] - m2[s]*m1[s+d2].
    """
    out: ShiftMap = {}
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


def _proportionality(
    field: ExtField, m1: ShiftMap, m2: ShiftMap
) -> Optional[EElem]:
    """e with m2 = e*m1 on the common domain, or None if m1 is zero."""
    ref = None
    for s in sorted(m1):
        if not field.is_zero(m1[s]):
            ref = s
            break
    if ref is None:
        return None
    e = field.div(m2.get(ref, field.zero), m1[ref])
    for s in sorted(set(m1) | set(m2)):
        lhs = m2.get(s, field.zero)
        rhs = field.mul(e, m1.get(s, field.zero))
        if lhs != rhs:
            raise DimensionAnomaly("maps are not proportional over the extension")
    return e


# ---------------------------------------------------------------------------
# The representations
# ---------------------------------------------------------------------------


@record
class RhoRep:
    branch: str  # "rho" | "rho_prime"
    k: int
    window: int
    slots_min: int  # slots are the contiguous degrees [slots_min, window]
    analysis: SubalgebraAnalysis
    images: Dict[Tuple[int, int], ShiftMap]  # (degree, basis row index) -> map
    max_degree: int  # largest t-degree with stored images

    def image(self, degree: int, row: int) -> ShiftMap:
        return self.images[(degree, row)]


def _e_of(analysis: SubalgebraAnalysis, degree: int, vec: Sequence[int]) -> EElem:
    """Extension coefficient of an ambient vector against the chosen w-basis.

    Components of degree >= 3 of a thin subalgebra fill the whole ambient
    line, which is one-dimensional over the extension, so any vector is an
    extension multiple of the first basis row.
    """
    F = analysis.field
    w = analysis.basis(degree)[0]
    return F.div((vec[0], vec[1]), (w[0], w[1]))


def _table_images(
    an: SubalgebraAnalysis,
    lo: int,
    d: int,
    t: Sequence[int],
    eps: Dict[int, EElem],
    inv: Dict[int, EElem],
) -> ShiftMap:
    """rho(t) on the slots s >= lo >= 2, read off the structure table.

    The chosen basis row of degree s >= 2 is eps_s*v_s (``eps``; ``inv``
    holds each eps^{-1}, one inversion per degree).  For t in T_1 with
    E-coordinates g, [eps_s*v_s, t] = eps_s*phi_s(g)*v_{s+1}; for
    t = eps_t*v_d, it is eps_s*eps_t*[v_s, v_d]; and the coefficient of a
    vector c*v_{s+d} against the row eps_{s+d}*v_{s+d} is c*eps_{s+d}^{-1}
    (``_e_of``).  So the entry is that product, with no bracket_vec call
    and no inversion per entry.
    """
    F = an.field
    st = tables(an.pres)
    slots = range(lo, an.window - d + 1)
    if d == 1:
        g = f4_to_deg1(t)
        return {s: F.mul(F.mul(eps[s], st.phi(s, g)), inv[s + 1]) for s in slots}
    e_t = (t[0], t[1])
    return {s: F.mul(F.mul(F.mul(eps[s], e_t), st.get_vv(s, d)), inv[s + d]) for s in slots}


def _row_scalars(an: SubalgebraAnalysis, lo: int) -> Tuple[Dict[int, EElem], Dict[int, EElem]]:
    """eps_s with basis(s)[0] = eps_s*v_s, and eps_s^{-1}, for lo <= s <= window."""
    F = an.field
    eps = {s: (an.basis(s)[0][0], an.basis(s)[0][1]) for s in range(lo, an.window + 1)}
    return eps, {s: F.inv(e) for s, e in eps.items()}


def _check_e_structure(analysis: SubalgebraAnalysis, lo: int, window: int) -> None:
    F = analysis.field
    for m in range(lo, window + 1):
        if analysis.dim(m) != 2:
            raise NotEStable(f"component of degree {m} is not an extension line")
        sp = analysis.space(m)
        for row in analysis.basis(m):
            scaled = F.mul(F.mu, (row[0], row[1]))
            if not sp.contains(list(scaled)):
                raise NotEStable(f"degree {m} is not stable under the scalar action")


def _check_rep(rep: RhoRep) -> None:
    """Per-degree faithfulness, and the homomorphism property on generators.

    Both checks stop at window - k: beyond that the maps act through so
    few visible slots that truncation alone can fake a kernel.  The
    homomorphism is checked on the pairs (g, t) with g in T_1 only.  That
    is enough by the generator lemma: T is a Lie algebra generated by T_1,
    so if rho([t, g]) = [rho(t), rho(g)] for every t and every g in T_1,
    induction on degree with Jacobi in T and in the matrices gives
    rho([t, t']) = [rho(t), rho(t')] for all t, t'.  The commutator of
    shift maps of degrees d1, d2 reads only slots <= window - min(d1, d2),
    so the induction stays inside total degree <= window - k.

    The comparison runs on every slot that ``_commutator`` fills, which
    are the slots rho(T_{d+1}) is supported on; so it also proves
    [N_d, N_1] = N_{d+1} for d < window - k, and ``assemble_N`` does not
    check that again.
    """
    an = rep.analysis
    F = an.field
    pres = an.pres
    cap = rep.window - rep.k
    # faithfulness: the flattened maps of each degree must be independent
    for d in range(1, cap + 1):
        rows = []
        for r in range(an.dim(d)):
            m = rep.image(d, r)
            flat: List[int] = []
            for s in range(rep.slots_min, rep.window + 1):
                c = m.get(s, F.zero)
                flat.extend(c)
            rows.append(flat)
        if span(F.base, rows, len(rows[0])).dim != an.dim(d):
            raise NotFaithful(f"representation has a kernel in degree {d}")
    # homomorphism: rho([g, t]) equals the commutator of the images
    for d in range(1, cap):
        for r1, g in enumerate(an.basis(1)):
            for r2, t in enumerate(an.basis(d)):
                if d == 1 and r2 <= r1:
                    continue
                want: ShiftMap = {}
                for idx, c in enumerate(an.express(d + 1, bracket_vec(pres, 1, g, d, t))):
                    if c:
                        want = _map_add(F, want, _map_scale(F, F.embed(c), rep.image(d + 1, idx)))
                got = _commutator(
                    F, rep.slots_min, rep.window, rep.image(1, r1), 1, rep.image(d, r2), d
                )
                for s in range(rep.slots_min, rep.window - d):
                    if want.get(s, F.zero) != got.get(s, F.zero):
                        raise DimensionAnomaly(
                            f"rho([t,t']) != [rho(t), rho(t')] at degrees (1,{d}), slot {s}"
                        )


def build_rho(
    analysis: SubalgebraAnalysis,
    ring: EndoRing,
    field_id: FieldId,
    flags: StructureFlags,
) -> RhoRep:
    """Adjoint representation on the extension span of z plus the ideal T^k."""
    if flags.metabelian:
        raise PreconditionFailed("metabelian input belongs to the modified branch")
    if field_id.dim != 2:
        raise PreconditionFailed("construction needs a quadratic endomorphism field")
    an = analysis
    window = an.window
    k = flags.k
    _check_e_structure(an, k, window)
    slots_min = k - 1  # the slot of z = basis(k - 1)[0], then T^k
    max_degree = window - slots_min
    eps, inv = _row_scalars(an, slots_min)
    images: Dict[Tuple[int, int], ShiftMap] = {
        (d, r): _table_images(an, slots_min, d, t, eps, inv)
        for d in range(1, max_degree + 1)
        for r, t in enumerate(an.basis(d))
    }
    rep = RhoRep(
        branch="rho",
        k=k,
        window=window,
        slots_min=slots_min,
        analysis=an,
        images=images,
        max_degree=max_degree,
    )
    _check_rep(rep)
    return rep


def build_rho_prime(analysis: SubalgebraAnalysis, ring: EndoRing, field_id: FieldId) -> RhoRep:
    """The modified representation for metabelian T, on E + E + T^3.

    The two extension slots stand for the lines of Y and of [Y, X]; a
    degree-1 element alpha*X + beta*Y sends the Y-slot to alpha times the
    [Y,X]-slot, and everything else is the adjoint action.
    """
    an = analysis
    F = an.field
    pres = an.pres
    window = an.window
    if _top_bracket(tables(pres), window) >= 2:
        raise NotMetabelian("T has a nonzero bracket in T^2 within the window")
    if field_id.dim != 2:
        raise PreconditionFailed("construction needs a quadratic endomorphism field")
    _check_e_structure(an, 3, window)
    X4 = deg1_to_f4(an.pair.X)
    Y4 = deg1_to_f4(an.pair.Y)
    yx = bracket_vec(pres, 1, Y4, 1, X4)  # spans T_2
    slots_min = 1
    max_degree = window - 1
    eps, inv = _row_scalars(an, 3)
    images: Dict[Tuple[int, int], ShiftMap] = {}
    for d in range(1, max_degree + 1):
        for r, t in enumerate(an.basis(d)):
            m: ShiftMap = {}
            if d == 1:
                try:
                    alpha, _ = solve(F.base, [X4, Y4], t)
                except ValueError:
                    raise DimensionAnomaly(
                        "degree-1 vector outside the span of the generators"
                    ) from None
                m[1] = F.embed(alpha)
            else:
                if 1 + d <= window:
                    img = bracket_vec(pres, 1, Y4, d, t)
                    m[1] = _e_of(an, 1 + d, img)
            if 2 + d <= window:
                img = bracket_vec(pres, 2, yx, d, t)
                m[2] = _e_of(an, 2 + d, img)
            m.update(_table_images(an, 3, d, t, eps, inv))
            images[(d, r)] = m
    rep = RhoRep(
        branch="rho_prime",
        k=2,
        window=window,
        slots_min=slots_min,
        analysis=an,
        images=images,
        max_degree=max_degree,
    )
    _check_rep(rep)
    return rep


# ---------------------------------------------------------------------------
# Assembly and the round trip
# ---------------------------------------------------------------------------


@record
class ReconstructedAlgebra:
    rep: RhoRep
    usable_window: int
    dims: Dict[int, int]  # dim_E N_d within the usable window
    presentation: MaxClassPresentation  # extracted, class = usable_window


def _flatten_map(field: ExtField, rep: RhoRep, m: ShiftMap) -> List[EElem]:
    return [m.get(s, field.zero) for s in range(rep.slots_min, rep.window + 1)]


def assemble_N(rep: RhoRep) -> ReconstructedAlgebra:
    """Assemble N = E*rho(T), check its dimension pattern, extract a presentation.

    Truncation eats the top degrees, so every assertion is restricted to
    the usable window (class bound minus k + 1 degrees).

    [N_d, N_1] = N_{d+1} for every d < usable needs no check of its own.
    ``build_rho`` and ``build_rho_prime`` end with ``_check_rep``, which
    proved rho([g, t]) = [rho(g), rho(t)] for g in T_1 and t in T_d,
    d < window - k = usable + 1, on every slot the commutator of the
    images fills; rho(t) for t in T_{d+1} is supported on those same
    slots.  T_{d+1} = [T_d, T_1] because T is generated in degree 1, so
    the commutators of rho(T_d) with rho(T_1) span rho(T_{d+1}) over F,
    and over E they span N_{d+1}, which faithfulness makes nonzero.  The
    loop that compared the two spans is the test oracle
    ``oracle_generation_check``.
    """
    an = rep.analysis
    F = an.field
    usable = rep.window - rep.k - 1
    if usable < 4:
        raise WindowTooSmall(f"usable window {usable} is below the minimum class 4")
    dims: Dict[int, int] = {}
    for d in range(1, usable + 1):
        sp = RowSpace(F, rep.window - rep.slots_min + 1)
        for r in range(an.dim(d)):
            sp.insert(_flatten_map(F, rep, rep.image(d, r)))
        dims[d] = sp.dim
        want = 2 if d == 1 else 1
        if sp.dim != want:
            raise DimensionAnomaly(
                f"dim_E N_{d} = {sp.dim}, expected {want} inside the usable window"
            )
    # extract an adjoint presentation from the matrix algebra
    x_map = rep.image(1, 0)
    y_map = rep.image(1, 1)
    v = _commutator(F, rep.slots_min, rep.window, y_map, 1, x_map, 1)  # v_2 = [y, x]
    pairs = []
    deg = 2
    while deg <= usable - 1:
        bx = _commutator(F, rep.slots_min, rep.window, v, deg, x_map, 1)
        by = _commutator(F, rep.slots_min, rep.window, v, deg, y_map, 1)
        if not _map_is_zero(F, bx):
            b_coeff = _proportionality(F, bx, by)
            pairs.append((F.one, b_coeff if b_coeff is not None else F.zero))
            v = bx
        else:
            pairs.append((F.zero, F.one))
            v = by
        deg += 1
    extracted = MaxClassPresentation(F, usable, tuple(pairs))
    report = validate(extracted)
    if not report.ok:
        raise DimensionAnomaly(
            f"extracted presentation fails Jacobi at {report.first_failure}"
        )
    return ReconstructedAlgebra(
        rep=rep,
        usable_window=usable,
        dims=dims,
        presentation=extracted,
    )


@record
class RoundtripReport:
    branch: str
    k: int
    usable_window: int
    iso: bool
    first_failure: Optional[str]
    centralizers_match: bool

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "k": self.k,
            "usable_window": self.usable_window,
            "iso": self.iso,
            "first_failure": self.first_failure,
        }


def verify_roundtrip(
    pres: MaxClassPresentation, g: GeneratorPair, window: Optional[int] = None
) -> RoundtripReport:
    """Full pipeline: thin subalgebra, endomorphism field, rho, N, and phi.

    phi extends rho linearly over the extension on per-degree bases of the
    ambient algebra and is checked to be a per-degree bijective graded
    homomorphism onto N within the usable window.  The homomorphism check
    reads the pairs whose first element is x or y (``_phi_failure``); by
    the generator lemma that covers every pair.

    The degree-1 solve cannot fail: a thin pair is E-independent, and the
    F-basis rows r1, r2 of L_1 span the same F-plane as X and Y, so they
    are E-independent too and x, y are E-combinations of them.
    """
    window = pres.class_n if window is None else window
    analysis = generate_subalgebra(pres, g, window)
    if analysis.verdict.kind != "thin":
        raise PreconditionFailed(
            f"round trip needs a thin pair, got {analysis.verdict.kind}"
        )
    ring = compute_grend0(analysis, 3, window)
    field_id = identify_field(ring)
    if field_id.dim != 2:
        raise PreconditionFailed("endomorphism field has degree 1, cannot rebuild")
    flags = detect_structure(analysis, window)
    if flags.metabelian:
        rep = build_rho_prime(analysis, ring, field_id)
    else:
        rep = build_rho(analysis, ring, field_id, flags)
    recon = assemble_N(rep)
    F = pres.field
    usable = recon.usable_window

    # phi on degree 1: x and y as extension combinations of the rows r1, r2
    rows = [f4_to_deg1(r) for r in analysis.basis(1)]
    rho1 = rep.image(1, 0)
    rho2 = rep.image(1, 1)
    phi: Dict[int, ShiftMap] = {}
    for s, unit in enumerate(((F.one, F.zero), (F.zero, F.one))):
        e1, e2 = solve(F, rows, unit)
        phi[s] = _map_add(F, _map_scale(F, e1, rho1), _map_scale(F, e2, rho2))
    for i in range(2, usable + 1):
        l_i = analysis.basis(i)[0]
        eps = (l_i[0], l_i[1])
        phi[i] = _map_scale(F, F.inv(eps), rep.image(i, 0))
        if _map_is_zero(F, phi[i]):
            return RoundtripReport(
                branch=rep.branch,
                k=rep.k,
                usable_window=usable,
                iso=False,
                first_failure=f"phi(v{i}) = 0",
                centralizers_match=False,
            )
    first_failure = _phi_failure(tables(pres), rep, usable, phi)

    seq_n = two_step_centralizers(
        standard_generators(recon.presentation).presentation
    )
    seq_m = two_step_centralizers(
        standard_generators(quotient(pres, usable)).presentation
    )
    centralizers_match = seq_n.points == seq_m.points
    return RoundtripReport(
        branch=rep.branch,
        k=rep.k,
        usable_window=usable,
        iso=first_failure is None,
        first_failure=first_failure,
        centralizers_match=centralizers_match,
    )


def _phi_failure(st, rep: RhoRep, usable: int, phi: Dict[int, ShiftMap]) -> Optional[str]:
    """The first pair (g, t), g = x or y, with phi([g, t]) != [phi(g), phi(t)].

    phi maps basis ids (0 = x, 1 = y, k = v_k) to shift maps.  Pairs
    without a generator need no check, by the generator lemma (see
    ``_check_rep``): the class-`usable` truncation is generated by x and y.
    """
    F = st.field
    for s, gen in ((0, (F.one, F.zero)), (1, (F.zero, F.one))):
        for t in range(s + 1, usable):  # t has degree max(t, 1) = t
            # [x, y] = -v_2 and [g, v_t] = -phi_t(g)*v_{t+1}
            coeff = F.neg(F.one if t == 1 else st.phi(t, gen))
            want = _map_scale(F, coeff, phi[t + 1])
            got = _commutator(F, rep.slots_min, rep.window, phi[s], 1, phi[t], t)
            for sl in range(rep.slots_min, rep.window - t):
                if want.get(sl, F.zero) != got.get(sl, F.zero):
                    return f"phi([{label(s)},{label(t)}]) mismatch at slot {sl}"
    return None


# ---------------------------------------------------------------------------
# Graded isomorphism search by one linear solve
# ---------------------------------------------------------------------------


@record
class IsoResult:
    found: bool
    transform: Optional[Matrix]  # degree-1 base change, rows over the extension


def iso_search(
    pres_a: MaxClassPresentation,
    pres_b: MaxClassPresentation,
    window: Optional[int] = None,
) -> IsoResult:
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
    pairs by the generator lemma (see ``_check_rep``): both truncations are
    Lie algebras generated by x and y.

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
    tables(A)
    tables(B)
    rows = []
    for i in range(2, window):
        (a, b), (p, q) = A.pair(i), B.pair(i)
        rows.append([F.mul(p, b), F.mul(q, b), F.neg(F.mul(p, a)), F.neg(F.mul(q, a))])
    basis = span(F, rref(Matrix(F, rows)).kernel.rows, 4).basis()
    small = list(islice(F.elements(), 3))
    for m in reversed(range(len(basis))):
        for ts in product(small, repeat=len(basis) - 1 - m):
            quad = basis[m]
            for t, row in zip(ts, basis[m + 1:]):
                quad = [F.add(c, F.mul(t, r)) for c, r in zip(quad, row)]
            a1, b1, a2, b2 = quad
            if not F.is_zero(F.sub(F.mul(a1, b2), F.mul(b1, a2))):
                return IsoResult(found=True, transform=Matrix(F, [[a1, b1], [a2, b2]]))
    return IsoResult(found=False, transform=None)
