"""Rebuilding a maximal-class algebra over GF(p^2) from a thin GF(p)-subalgebra.

Starting from a thin subalgebra T whose degree-0 endomorphism ring of T^3
is a quadratic extension, the adjoint action rho of T on a distinguished
graded subspace, written out over the extension, spans N = E * rho(T).
Within a usable window (the truncation eats the top few degrees), N has
the maximal-class dimension pattern over E, and the ambient algebra maps
onto it by a graded isomorphism.

rho is the right adjoint action of T on an ad(T)-invariant subspace of
the ambient algebra, so every entry of it is a cell of the structure
table, and every homomorphism comparison is a Jacobi triple that the
loader already checked (the slot lemma, ``verify_roundtrip``).  What is
left to decide is faithfulness: one scan of table cells per degree, on
the rows up to the window, which are derived for a non-metabelian T
only.  So the round trip builds no matrices.
"""

from __future__ import annotations

from ._record import record
from .errors import PreconditionFailed, WindowTooSmall
from .maxclass import MaxClassPresentation, _Structure
from .subfield import GeneratorPair, SubalgebraAnalysis, generate_subalgebra

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Tuple


# ---------------------------------------------------------------------------
# Structure detection
# ---------------------------------------------------------------------------


@record
class StructureFlags:
    metabelian: bool
    k: int  # T^k is the ideal the representation acts on
    detection: str  # "metabelian" | "abelian-window" | "insoluble-or-undetected"


def detect_structure(analysis: SubalgebraAnalysis) -> Tuple[StructureFlags, Optional[_Structure]]:
    """Decide the representation branch from bracket vanishing in the window.

    Returns the flags and the rows up to the window that it derived, for
    the faithfulness scan of ``verify_roundtrip`` (None when T is
    metabelian).

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

    Metabelian-window lemma: m < 2 iff the centralizers C_2 .. C_{window-1}
    are one point.  (=>) [v_2, v_j] = a_j*b_{j+1} - b_j*a_{j+1} (``extend``)
    vanishes iff the nonzero pairs of degrees j and j + 1 are proportional,
    that is iff C_j = C_{j+1}; this gives C_3 = .. = C_{window-1}, and
    C_2 = C_3 holds in every valid presentation (``endo``).  (<=) Let y'
    span the common C, so [M_i, y'] = 0 for i < window, and let x' span
    another line of M_1, so M_{i+1} = [M_i, x'] for 2 <= i < window.
    By induction on i, [M_i, M_j] = 0 for 2 <= i, j and i + j <= window:
    M_2 = E*[y', x'], and Jacobi gives [M_j, [y', x']] = 0 from
    [M_j, y'] = [M_{j+1}, y'] = 0; and [M_{i+1}, M_j] = [[M_i, x'], M_j]
    lies in [M_i, M_{j+1}] + [[M_i, M_j], x'] = 0.  So the metabelian case
    reads the points and no cell; otherwise the rows up to the window are
    derived (``_derived_rows``).
    """
    if analysis.verdict.kind != "thin":
        raise PreconditionFailed("structure detection expects a thin subalgebra")
    window = analysis.window
    if len(analysis.centralizers.distinct(window)) == 1:
        return StructureFlags(metabelian=True, k=2, detection="metabelian"), None
    st = _derived_rows(analysis.pres, window)
    m = _top_bracket(st, window)  # >= 2, by the metabelian-window lemma
    k = m + 1
    if 2 * k + 1 <= window:
        return StructureFlags(metabelian=False, k=k, detection="abelian-window"), st
    if m >= 3:  # a nonzero bracket witnessed in T^3
        return StructureFlags(metabelian=False, k=3, detection="insoluble-or-undetected"), st
    raise WindowTooSmall(
        "no abelian tail confirmed and no nonzero bracket witnessed in T^3"
    )


def _derived_rows(pres: MaxClassPresentation, window: int) -> _Structure:
    """The cells of total degree <= window, pushed by ``extend`` with no
    Jacobi check: the loader validated the presentation."""
    st = _Structure(pres.field, window)
    for d in range(2, window):
        st.extend(d, pres.pair(d))
    return st


def _top_bracket(st, window: int) -> int:
    """The largest i with [v_i, v_j] != 0, i < j, i + j <= window; 1 if none.

    Reads the rows of total degree <= window only, each from its last
    cell down to the largest i found so far.
    """
    zero, m = st.field.zero, 1
    for row in st.rows[5 : window + 1]:
        for i in range(len(row) - 1, m, -1):
            if row[i] != zero:
                m = i
                break
    return m


# ---------------------------------------------------------------------------
# The round trip
# ---------------------------------------------------------------------------


def usable_window(window: int, k: int) -> int:
    """The window minus k + 1: the degrees where N is read off rho.

    Raises WindowTooSmall below the minimum class 4.
    """
    usable = window - k - 1
    if usable < 4:
        raise WindowTooSmall(f"usable window {usable} is below the minimum class 4")
    return usable


@record
class RoundtripReport:
    """The report of a round trip that succeeds: its fields, in order, are
    the report's keys.

    ``iso`` is always true and ``first_failure`` always null, their
    defaults: a round trip that fails raises (``verify_roundtrip``).  The
    fields stay because the golden reports and the benchmark read the keys.
    """

    branch: str
    k: int
    usable_window: int
    iso: bool = True
    first_failure: Optional[str] = None


def verify_roundtrip(
    pres: MaxClassPresentation, g: GeneratorPair, window: Optional[int] = None
) -> RoundtripReport:
    """The round trip: thin subalgebra, branch, faithfulness, usable window.

    The endomorphism field is not computed: a thin verdict means d_2 = 0,
    so dim L_3 = 2, and End_0(L^3) is the quadratic field E by the lemma
    of ``endo``, which is what the rebuild starts from.  Nor is E-stability
    checked: by the dimension lemma (``subfield._classify``) a thin T has
    dim_F T_m = 2 = dim_F M_m for 3 <= m <= window, so T_m = M_m.

    Slot lemma.  Let c*v_2 = [Y, X] and let eps_s*v_s be the first
    canonical basis row of T_s (``paper_checks.bases``).  On the
    rho branch (k >= 3) rho is the right adjoint action of T on
    W = E*v_{k-1} + M^k in the basis (eps_s*v_s), and on the rho' branch
    (metabelian T, k = 2) on W = E*Y + M^2 in the basis
    (Y, c*v_2, eps_s*v_s).  W is ad(T)-invariant: M^j is an ideal,
    [v_{k-1}, T] lies in M^k, and [Y, alpha*X + beta*Y] = alpha*[Y, X] for
    alpha, beta in F, and [Y, v_d] = -phi_d(Y)*v_{d+1}.  So every entry of
    rho(t) is a coefficient of the table: the entry of slot s is the
    coefficient of [w_s, t] against the basis element w_{s+d}.  The map
    phi, which extends rho to M_1 = E*T_1 over E, is the adjoint action of
    x and y on W as well, because the bracket is E-bilinear.  For t, t' in
    T (or x, y and v_d under phi) the entry of
    [rho(t), rho(t')] - rho([t, t']) at slot s is then the coefficient of
    the Jacobi sum [[w_s, t], t'] - [[w_s, t'], t] - [w_s, [t, t']] of M,
    of total degree at most the window, which is zero because the loader
    validated the presentation (``maxclass.from_json``).  So rho and phi
    are homomorphisms wherever the truncation lets the maps compose: every
    report has iso = true and first_failure = null.

    Faithfulness.  In degree d >= 2 the rows of T_d are e*v_d for
    F-independent e, so their images are F-independent iff rho(v_d) != 0,
    that is iff some cell is nonzero: [v_s, v_d] for some s in
    [k - 1, window - d] on rho; phi_d(Y), or [v_s, v_d] for some s in
    [2, window - d], on rho'.  On rho' phi_d(Y) != 0 for every
    d <= window - 1: T is thin, so d_d = 0, and phi_d(X), phi_d(Y) are
    F-independent (the determinant lemma of ``subfield``).  Degree 1 needs
    no scan: on slot s = k - 1 on rho and s = 2 on rho', below the window,
    the entries of the rows r1, r2 of T_1 are e*phi_s(r1) and e*phi_s(r2)
    for one nonzero e, and these are F-independent because d_s = 0 and
    r1, r2 span the same F-plane as X, Y.  So only rho is scanned, in the
    degrees d <= window - k, on the rows up to the window that
    ``detect_structure`` derived for the branch.

    A degree whose cells all vanish is no kernel that the window proves:
    the cells [v_s, v_d] with s + d above the window are not seen, and an
    extension of the algebra to a larger class may have a nonzero one (the
    golden case ``roundtrip-e026-window16`` refutes at window 16 the
    degree-9 kernel that window 14 cannot).  So it raises WindowTooSmall,
    as a usable window below the minimum class does.

    N.  For d >= 2, N_d = E*rho(v_d) is nonzero by faithfulness, so
    dim_E N_d = 1; dim_E N_1 = 2, since rho(r2) = e*rho(r1) would give
    rho([r2, r1]) = 0, against faithfulness in degree 2.  With
    u_2 = [r2, r1] and u_{d+1} = [u_d, g]/c, the homomorphism gives
    rho(u_2) = [rho(r2), rho(r1)] and
    [rho(u_d), rho(r_j)] = phi'_d(r_j)*rho(u_{d+1}), and rho(u_{d+1}) != 0
    for d + 1 <= usable.  So the chain of N in rho(r1), rho(r2) is the
    image of the chain of M in r1, r2: N's presentation is M's
    class-`usable` truncation in the basis (r1, r2), a base change
    (``paper_checks.apply_degree1_change``), and it generates N, so
    [N_d, N_1] = N_{d+1}.  The tests build the maps, extract N's
    presentation from them by commutators and compare it with that base
    change.
    """
    window = pres.class_n if window is None else window
    analysis = generate_subalgebra(pres, g, window)
    if analysis.verdict.kind != "thin":
        raise PreconditionFailed(
            f"round trip needs a thin pair, got {analysis.verdict.kind}"
        )
    flags, st = detect_structure(analysis)
    k = flags.k
    if not flags.metabelian:
        # [v_s, v_d] = +-rows[s + d][min(s, d)], and 0 for s = d
        zero, rows = pres.field.zero, st.rows
        for d in range(2, window - k + 1):
            if all(s == d or rows[s + d][min(s, d)] == zero for s in range(k - 1, window - d + 1)):
                raise WindowTooSmall(f"kernel in degree {d} not refuted within window {window}")
    return RoundtripReport(
        branch="rho_prime" if flags.metabelian else "rho",
        k=k,
        usable_window=usable_window(window, k),
    )
