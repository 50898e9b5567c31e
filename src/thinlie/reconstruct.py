"""Rebuilding a maximal-class algebra over GF(p^2) from a thin GF(p)-subalgebra.

Starting from a thin subalgebra T whose degree-0 endomorphism ring of T^3
is a quadratic extension, the adjoint action of T on a distinguished
graded ideal is written out as matrices over the extension, spanning
N = E * rho(T).  Within a usable window (the truncation eats the top few
degrees), N has the maximal-class dimension pattern over E, and the round
trip checks that the ambient algebra maps onto it by a graded isomorphism.

The representation objects here are "shift maps": a homogeneous element
of degree d acts on slots indexed by degree, sending the slot of degree s
to the slot of degree s + d with a single extension coefficient.  That is
the whole content of the block matrices, because every slot is a
one-dimensional extension line.  From a fixed slot on, a representation
is the adjoint action of the ambient algebra, read off its validated
structure table (the slot lemma, ``RhoRep``); only the slots below are
stored and compared, so a round trip compares O(1) entries per degree.
"""

from __future__ import annotations

from ._record import cache, record
from .errors import (
    DimensionAnomaly,
    NotEStable,
    NotFaithful,
    NotMetabelian,
    PreconditionFailed,
    WindowTooSmall,
)
from .gf import ExtField, solve
from .maxclass import MaxClassPresentation, label, tables
from .subfield import (
    GeneratorPair,
    SubalgebraAnalysis,
    bracket_vec,
    deg1_to_f4,
    f4_to_deg1,
    generate_subalgebra,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Dict, List, Optional, Sequence

    from .gf import EElem
    from .maxclass import Pair

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


def detect_structure(analysis: SubalgebraAnalysis) -> StructureFlags:
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
    window = analysis.window
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
# The representations
# ---------------------------------------------------------------------------


def _commutator(
    field: ExtField, slots: range, m1: Callable[[int], EElem], d1: int,
    m2: Callable[[int], EElem], d2: int,
) -> ShiftMap:
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

    Slot lemma.  Let lo = k - 1 on rho and lo = 3 on rho'.  A slot s >= lo
    is the line M_s with basis row eps_s*v_s, and there both constructions
    give rho(t) as the right adjoint action of M: rho(t)(s) =
    eps_s*c*eps_{s+d}^{-1} where [v_s, t] = c*v_{s+d} (``entry``).  Maps
    only raise slots, so the slots >= lo span an invariant subspace, and on
    it rho is diag(eps)*ad*diag(eps)^{-1}, F-linear in t.  For g in T_1 and
    t in T_d the entry of [rho(g), rho(t)] - rho([g, t]) at a slot s >= lo
    is therefore an eps-multiple of the coefficient of
    [[v_s, g], t] - [[v_s, t], g] - [v_s, [g, t]], a Jacobi triple of M of
    total degree s + 1 + d <= window, which is zero because the loader
    validated the table (``tables``).  Only the slots below lo -- slots 1
    and 2 on rho', none on rho -- hold entries that the table does not
    prove, and ``images`` holds exactly those: images[i][s] for s < lo.
    """

    branch: str  # "rho" | "rho_prime"
    k: int
    window: int
    slots_min: int  # slots are the contiguous degrees [slots_min, window]
    lo: int  # the slots >= lo are read off the structure table
    analysis: SubalgebraAnalysis
    images: Dict[int, ShiftMap]  # basis id -> entries on the slots below lo
    eps: Dict[int, EElem] = cache()  # basis(s)[0] = eps_s*v_s for lo <= s <= window
    inv: Dict[int, EElem] = cache()  # eps_s^{-1}, one inversion per degree

    def __post_init__(self):
        F = self.analysis.field
        self.eps = {s: _row_scalar(self.analysis, s) for s in range(self.lo, self.window + 1)}
        self.inv = {s: F.inv(e) for s, e in self.eps.items()}

def _row_scalar(an: SubalgebraAnalysis, degree: int) -> EElem:
    """e with basis(degree)[0] = e*v_degree, for degree >= 2."""
    row = an.basis(degree)[0]
    return (row[0], row[1])


def _rows(an: SubalgebraAnalysis) -> List[Pair]:
    """The rows r1, r2 of T_1 as extension pairs (alpha, beta): alpha*x + beta*y."""
    return [f4_to_deg1(row) for row in an.basis(1)]


def _reader(rep: RhoRep, gens: Sequence[Pair], low: Dict[int, ShiftMap]) -> Callable[[int, int], EElem]:
    """entry(i, s): the entry at slot s of the map of basis id i.

    Below rep.lo it is low[i][s].  From lo on it is read off the structure
    table (slot lemma, ``RhoRep``): the map of id 0 or 1 acts as the
    degree-1 element gens[i], so its entry is eps_s*phi_s(gens[i])*
    eps_{s+1}^{-1}, and the map of id i >= 2 acts as v_i, with entry
    eps_s*[v_s, v_i]*eps_{s+i}^{-1}; no bracket_vec and no inversion per
    entry.
    """
    F = rep.analysis.field
    st = tables(rep.analysis.pres)
    lo, eps, inv, mul = rep.lo, rep.eps, rep.inv, F.mul

    def entry(i: int, s: int) -> EElem:
        if s < lo:
            return low[i][s]
        if i < 2:
            return mul(mul(eps[s], st.phi(s, gens[i])), inv[s + 1])
        return mul(mul(eps[s], st.get_vv(s, i)), inv[s + i])

    return entry


def _low_mismatch(rep: RhoRep, gens: Sequence[Pair], entry: Callable[[int, int], EElem]):
    """mismatch(g, t): the first slot below rep.lo where the map of the
    bracket [g, w_t] differs from the commutator of the maps, or None.

    The maps are read by ``entry`` (``_reader`` over gens).  g is 0 or 1
    and w_t is gens[1] for t = 1, else v_t (ids as in ``RhoRep``).  The
    bracket is read off the table: [gens[0], gens[1]] = (b1*a2 - a1*b2)*v_2,
    because [x, y] = -v_2, and [g, v_t] = -phi_t(g)*v_{t+1}.  Slots s with
    s + 1 + t > window are outside the commutator.  By the slot lemma the
    slots >= lo cannot differ.
    """
    F = rep.analysis.field
    st = tables(rep.analysis.pres)
    (a1, b1), (a2, b2) = gens
    det = F.sub(F.mul(b1, a2), F.mul(a1, b2))

    def mismatch(g: int, t: int) -> Optional[int]:
        slots = range(rep.slots_min, min(rep.lo, rep.window - t))
        if not slots:
            return None
        coeff = det if t == 1 else F.neg(st.phi(t, gens[g]))
        got = _commutator(F, slots, lambda s: entry(g, s), 1, lambda s: entry(t, s), t)
        return next((s for s in slots if got[s] != F.mul(coeff, entry(t + 1, s))), None)

    return mismatch


def _check_e_structure(analysis: SubalgebraAnalysis, lo: int) -> None:
    """Every degree from lo up is an extension line: dim_F L_m = 2 = dim_F M_m.

    Such an L_m is all of M_m = E*v_m, so it is stable under E.
    """
    for m in range(lo, analysis.window + 1):
        if analysis.dim(m) != 2:
            raise NotEStable(f"component of degree {m} is not an extension line")


def _check_rep(rep: RhoRep) -> None:
    """Per-degree faithfulness, and the homomorphism property on generators.

    Both checks stop at window - k: beyond that the maps act through so
    few visible slots that truncation alone can fake a kernel.

    Faithfulness.  In degree d >= 2 the rows of T_d are e*v_d for
    F-independent e, so their images e*rho(v_d) are F-independent iff
    rho(v_d) has one nonzero entry.  Degree 1 needs no check: the images
    of r1 and r2 are F-independent already on one slot s >= lo with
    s < window, and lo < window always (lo = k - 1 with 2k + 1 <= window
    or k = 3 on rho, lo = 3 on rho', and window >= 4).  By the slot lemma
    the entries there are eps_s*phi_s(r_j)*eps_{s+1}^{-1}, and T is thin,
    so d_s = 0: phi_s(r1) and phi_s(r2) are F-independent (the
    determinant lemma of ``subfield``, as r1, r2 span the same F-plane
    as X, Y), and multiplying both by one nonzero extension scalar keeps
    them so.

    The homomorphism is checked on the pairs (g, t) with g in T_1 only.
    That is enough by the generator lemma: T is a Lie algebra generated by
    T_1, so if rho([t, g]) = [rho(t), rho(g)] for every t and every g in
    T_1, induction on degree with Jacobi in T and in the matrices gives
    rho([t, t']) = [rho(t), rho(t')] for all t, t'.  The commutator of
    shift maps of degrees d1, d2 reads only slots <= window - min(d1, d2),
    so the induction stays inside total degree <= window - k.  By
    E-linearity t runs over r2 in degree 1 and over v_d above, and by the
    slot lemma (``RhoRep``) only the slots below lo are compared: O(1)
    per pair on rho', nothing on rho.  The first failure and its message
    are those of the comparison on every slot and every basis row.

    The comparison covers every slot that ``_commutator`` fills, which are
    the slots rho(T_{d+1}) is supported on; so it also proves
    [N_d, N_1] = N_{d+1} for d < window - k: T_{d+1} = [T_d, T_1] because
    T is generated in degree 1, so the commutators of rho(T_d) with
    rho(T_1) span rho(T_{d+1}) over F, and N_{d+1} over E.
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


def build_rho(analysis: SubalgebraAnalysis, flags: StructureFlags) -> RhoRep:
    """Adjoint representation on the extension span of z plus the ideal T^k.

    The slot of z = basis(k - 1)[0] comes first, then T^k, and every slot
    is a table slot (lo = k - 1), so nothing is stored.

    Both builders take the analysis alone as context.  Neither reads
    End_0(T^3): T is thin, so d_2 = 0, dim T_3 = 2, and End_0(T^3) is the
    quadratic field E (the lemma of ``endo``).
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


def build_rho_prime(analysis: SubalgebraAnalysis, flags: StructureFlags) -> RhoRep:
    """The modified representation for metabelian T, on E + E + T^3.

    The two extension slots stand for the lines of Y and of [Y, X]; a
    degree-1 element alpha*X + beta*Y sends the Y-slot to alpha times the
    [Y,X]-slot, and everything else is the adjoint action.  Only slots 1
    and 2 are stored; with [Y, X] = c*v_2 and [v_2, v_d] = c_d*v_{d+2}
    their entries are read off the table: [[Y, X], g] = c*phi_2(g)*v_3 for
    g in T_1, and for v_d [Y, v_d] = -phi_d(Y)*v_{d+1} and
    [[Y, X], v_d] = c*c_d*v_{d+2}, each against the row eps_s*v_s of its
    target slot.  ``flags`` are ``detect_structure``'s for the analysis'
    window; NotMetabelian unless they say metabelian.

    The alpha of each degree-1 row t = alpha*X + beta*Y is one ``solve``,
    which cannot fail: the rows of basis(1) are the reduced basis of
    span_F{X, Y} (``subfield``), so they lie in that span, and X, Y are
    F-independent because they are E-independent.
    """
    an = analysis
    F = an.field
    pres = an.pres
    window = an.window
    st = tables(pres)
    if not flags.metabelian:
        raise NotMetabelian("T has a nonzero bracket in T^2 within the window")
    _check_e_structure(an, 3)
    X4 = deg1_to_f4(an.pair.X)
    Y4 = deg1_to_f4(an.pair.Y)
    yx = bracket_vec(pres, 1, Y4, 1, X4)  # spans T_2
    c = (yx[0], yx[1])
    rep = RhoRep(
        branch="rho_prime", k=2, window=window, slots_min=1, lo=3, analysis=an, images={}
    )
    inv = rep.inv
    for r, t in enumerate(an.basis(1)):
        alpha, _ = solve(F.p, [X4, Y4], t)
        g = f4_to_deg1(t)
        rep.images[r] = {1: F.embed(alpha), 2: F.mul(F.mul(c, st.phi(2, g)), inv[3])}
    for d in range(2, window):
        m = {1: F.neg(F.mul(st.phi(d, an.pair.Y), inv[d + 1]))}
        if 2 + d <= window:
            m[2] = F.mul(F.mul(c, st.get_vv(2, d)), inv[d + 2])
        rep.images[d] = m
    _check_rep(rep)
    return rep


# ---------------------------------------------------------------------------
# Assembly and the round trip
# ---------------------------------------------------------------------------


def usable_window(rep: RhoRep) -> int:
    """The class bound minus k + 1: the degrees where N is read off rho.

    Raises WindowTooSmall below the minimum class 4.
    """
    usable = rep.window - rep.k - 1
    if usable < 4:
        raise WindowTooSmall(f"usable window {usable} is below the minimum class 4")
    return usable


@record
class RoundtripReport:
    branch: str
    k: int
    usable_window: int
    iso: bool
    first_failure: Optional[str]

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
    """Full pipeline: thin subalgebra, rho, N, and phi.

    The endomorphism field is not computed: a thin verdict means d_2 = 0,
    so dim L_3 = 2, and End_0(L^3) is the quadratic field E by the lemma
    of ``endo``, which is what the rebuild starts from.

    phi extends rho linearly over the extension on per-degree bases of the
    ambient algebra and is checked to be a per-degree bijective graded
    homomorphism onto N within the usable window.  phi(v_i) = rho(v_i) is
    nonzero by faithfulness (i <= usable < window - k).  The homomorphism
    check reads the pairs whose first element is x or y (``_phi_failure``);
    by the generator lemma that covers every pair.

    The degree-1 inverse (``_inverse_rows``) cannot fail: a thin pair is
    E-independent, and the F-basis rows r1, r2 of L_1 span the same
    F-plane as X and Y, so they are E-independent too and x, y are
    E-combinations of them.

    N's dimensions and presentation follow from ``_check_rep`` and the
    slot lemma (``RhoRep``), so they are not computed on the maps.  For
    d >= 2, N_d = E*rho(v_d) is nonzero by faithfulness, so dim_E N_d = 1;
    dim_E N_1 = 2, since rho(r2) = e*rho(r1) would give
    rho([r2, r1]) = 0, against faithfulness in degree 2.  With
    u_2 = [r2, r1] and u_{d+1} = [u_d, g]/c, rho(u_2) = [rho(r2), rho(r1)]
    and [rho(u_d), rho(r_j)] = rho([u_d, r_j]) = phi'_d(r_j)*rho(u_{d+1})
    by the homomorphism and E-linearity, and rho(u_{d+1}) != 0 for
    d + 1 <= usable by faithfulness.  So the chain of N in rho(r1),
    rho(r2) is the image of the chain of M in r1, r2: N's presentation is
    M's class-`usable` truncation in the basis (r1, r2), a base change
    (``apply_degree1_change``).  The centralizer sequence in standard form
    is an isomorphism invariant, so N's is not compared with M's.  The
    tests extract N's presentation from the maps by commutators
    (``oracle_extract``) and compare it with that base change.
    """
    window = pres.class_n if window is None else window
    analysis = generate_subalgebra(pres, g, window)
    if analysis.verdict.kind != "thin":
        raise PreconditionFailed(
            f"round trip needs a thin pair, got {analysis.verdict.kind}"
        )
    flags = detect_structure(analysis)
    if flags.metabelian:
        rep = build_rho_prime(analysis, flags)
    else:
        rep = build_rho(analysis, flags)
    usable = usable_window(rep)
    F = pres.field

    # phi on degree 1: x and y as extension combinations of the rows r1, r2
    low0, low1 = rep.images[0], rep.images[1]
    phi: Dict[int, ShiftMap] = {i: rep.images[i] for i in range(2, usable + 1)}
    for i, (e1, e2) in enumerate(_inverse_rows(F, _rows(analysis))):
        phi[i] = {s: F.add(F.mul(e1, c), F.mul(e2, low1[s])) for s, c in low0.items()}
    first_failure = _phi_failure(tables(pres), rep, usable, phi)
    return RoundtripReport(
        branch=rep.branch,
        k=rep.k,
        usable_window=usable,
        iso=first_failure is None,
        first_failure=first_failure,
    )


def _inverse_rows(F: ExtField, rows: Sequence[Pair]) -> List[Pair]:
    """The rows of the inverse of the 2x2 matrix over E with rows r1, r2.

    With r1 = (a1, b1), r2 = (a2, b2) and det = a1*b2 - b1*a2, they are
    (b2, -b1)/det and (-a2, a1)/det: the coefficients (e1, e2) with
    e1*r1 + e2*r2 = (1, 0) and (0, 1).  DivisionByZero when det = 0.
    """
    (a1, b1), (a2, b2) = rows
    inv = F.inv(F.sub(F.mul(a1, b2), F.mul(b1, a2)))
    return [(F.mul(b2, inv), F.neg(F.mul(b1, inv))), (F.neg(F.mul(a2, inv)), F.mul(a1, inv))]


def _phi_failure(st, rep: RhoRep, usable: int, phi: Dict[int, ShiftMap]) -> Optional[str]:
    """The first pair (g, t), g = x or y, with phi([g, t]) != [phi(g), phi(t)].

    phi maps basis ids (0 = x, 1 = y, k = v_k) to their entries on the
    slots below rep.lo.  From lo on, phi(x), phi(y) and phi(v_k) are the
    adjoint actions of x, y and v_k read off the table, so by the slot
    lemma (``RhoRep``) only the slots below lo are compared: O(1) per pair.
    Pairs without a generator need no check, by the generator lemma (see
    ``_check_rep``): the class-`usable` truncation is generated by x and y.
    """
    F = st.field
    units = ((F.one, F.zero), (F.zero, F.one))
    mismatch = _low_mismatch(rep, units, _reader(rep, units, phi))
    for s in (0, 1):
        for t in range(s + 1, usable):
            sl = mismatch(s, t)
            if sl is not None:
                return f"phi([{label(s)},{label(t)}]) mismatch at slot {sl}"
    return None
