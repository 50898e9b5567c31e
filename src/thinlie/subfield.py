"""Restriction of scalars: GF(p)-subalgebras of a maximal-class algebra.

The ambient components are coordinatized over GF(p) once and for all:
M_1 = F^4 via the basis (x, mu*x, y, mu*y) and M_i = F^2 via (v_i, mu*v_i)
for i >= 2.  An extension scalar (c0, c1) therefore *is* the coordinate
vector of (c0 + c1*mu)*v_i, which keeps all conversions trivial.

Given two generators X, Y in M_1, the subalgebra L they generate has
L_{i+1} = [L_i, X] + [L_i, Y], because L is generated in degree 1.  The
classifying invariant is d_i = dim_F(C_i \\cap U) for U = L_1 = span_F{X, Y},
the intersection of U with the two-step centralizer line C_i.  L is read
off its dimensions, and those off the d-values by the dimension lemma.
Let phi_i(alpha, beta) = alpha*a_i + beta*b_i; it is E-linear with
kernel C_i, and [c*v_i, u] = c*phi_i(u)*v_{i+1}.  So, for E-independent
X and Y:

* L_2 = F*det(X, Y)*v_2;
* if L_i = M_i, then L_{i+1} = M_{i+1};
* if L_i = F*c*v_i, then L_{i+1} = c*phi_i(U)*v_{i+1}, of dimension 2 - d_i.

Hence dim L_1 = 2, dim L_2 = 1, and dim L_{i+1} = 2 exactly when
dim L_i = 2 or d_i = 0.  For E-dependent X and Y, [Y, X] = det(X, Y)*v_2
is 0, so L = L_1 = U, of dimension rank_F{X, Y}.  No basis is kept:
every subcommand reads only dimensions, d and the verdict.

Each d_i depends only on U and the point C_i, so it is computed once per
distinct point (a metabelian algebra has one), by one F-determinant: for
C = E*(p0, p1), phi(alpha, beta) = alpha*p1 - beta*p0 is E-linear with
kernel C, so dim_F(U \\cap C) = 2 - rank_F{phi(X), phi(Y)}, and for
E-independent X and Y that rank is 1 or 2 (U is not inside the E-line C).
So d is 1 where the 2x2 F-determinant of phi(X), phi(Y) vanishes and 0
elsewhere.  L depends only on U, so a raw scan keys the F-planes
of F^4 rather than the generator pairs; each plane has |GL_2(F)| ordered
bases.  A verdict depends only on d (``_classify``), so a scan classifies
once per key, the d-value at each distinct point.
"""

from __future__ import annotations

import itertools

from ._record import record
from .errors import BadBound, NotStandardForm, WindowTooLarge
from .gf import ExtField
from .maxclass import (
    CentralizerSequence,
    MaxClassPresentation,
    ey_point,
    is_standard,
    two_step_centralizers,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, List, Optional, Sequence, Tuple

    from .gf import EElem

    EPair = Tuple[EElem, EElem]  # coordinates (A, B) of A*x + B*y

# Pairs or planes x window a scan may key: normalized pairs, or F-planes in
# a raw scan.  Above every scan the tests and the benchmark run (the largest
# is a normalized GF(49) scan, 2401 pairs x window 20).
SCAN_BUDGET = 200_000


@record(frozen=True)
class GeneratorPair:
    """Two degree-1 elements X = alpha*x + beta*y and Y = gamma*x + delta*y."""

    X: EPair
    Y: EPair

    def det(self, field: ExtField) -> EElem:
        (al, be), (ga, de) = self.X, self.Y
        return field.sub(field.mul(al, de), field.mul(be, ga))

    def is_degenerate(self, field: ExtField) -> bool:
        return field.is_zero(self.det(field))


def pair_from_ints(field: ExtField, xs: Sequence[int], ys: Sequence[int]) -> GeneratorPair:
    """Build a pair from flat coordinates (a0, a1, b0, b1) per generator."""
    cx = (field.coerce((xs[0], xs[1])), field.coerce((xs[2], xs[3])))
    cy = (field.coerce((ys[0], ys[1])), field.coerce((ys[2], ys[3])))
    return GeneratorPair(cx, cy)


# -- coordinate plumbing -----------------------------------------------------


def deg1_to_f4(g: EPair) -> Tuple[int, int, int, int]:
    (a0, a1), (b0, b1) = g
    return (a0, a1, b0, b1)


def f4_to_deg1(vec: Sequence[int]) -> EPair:
    return ((vec[0], vec[1]), (vec[2], vec[3]))


# -- analysis ----------------------------------------------------------------


@record
class Verdict:
    kind: str  # "thin" | "maximal" | "rconstrained" | "degenerate"
    r_observed: Optional[int] = None
    t1: Optional[int] = None

    def __str__(self):
        if self.kind == "rconstrained":
            return f"rconstrained(r>={self.r_observed}, t1={self.t1})"
        return self.kind


@record
class SubalgebraAnalysis:
    pres: MaxClassPresentation
    pair: GeneratorPair
    window: int
    dims: Tuple[int, ...]  # dim_F L_i for i = 1..window
    d: Optional[Tuple[int, ...]]  # d_i for i = 2..window-1; None if degenerate
    verdict: Verdict
    centralizers: CentralizerSequence

    @property
    def field(self) -> ExtField:
        return self.pres.field

    def dim(self, degree: int) -> int:
        return self.dims[degree - 1]

    def d_at(self, degree: int) -> int:
        return self.d[degree - 2]


class _Ambient:
    """What the analysis of any pair reads from the presentation and window.

    Built once per scan: the centralizer sequence, its distinct points C_i
    for i = 2 .. window - 1, and the index of each C_i among them.
    """

    def __init__(self, pres: MaxClassPresentation, window: int):
        if not 4 <= window <= pres.class_n:
            raise BadBound(f"window {window} not in [4, {pres.class_n}]")
        self.pres = pres
        self.window = window
        self.centralizers = two_step_centralizers(pres)
        self.points = self.centralizers.distinct(window)
        self.slots = [self.points.index(self.centralizers.point(i)) for i in range(2, window)]


def _f_independent(field: ExtField, u: EElem, w: EElem) -> bool:
    return (u[0] * w[1] - u[1] * w[0]) % field.p != 0


def _d_key(amb: _Ambient, g: GeneratorPair) -> Tuple[int, ...]:
    """dim_F(C \\cap span_F{X, Y}) at each point C of ``amb.points``.

    For E-independent X and Y, by the determinant lemma of the module
    docstring: 1 iff phi(X) and phi(Y) are F-dependent.
    """
    F = amb.pres.field
    (al, be), (ga, de) = g.X, g.Y
    return tuple(
        0
        if _f_independent(
            F, F.sub(F.mul(al, p1), F.mul(be, p0)), F.sub(F.mul(ga, p1), F.mul(de, p0))
        )
        else 1
        for p0, p1 in amb.points
    )


def _d_values(amb: _Ambient, g: GeneratorPair) -> Tuple[int, ...]:
    """d_i = dim_F(C_i \\cap span_F{X, Y}) for i = 2 .. window - 1."""
    key = _d_key(amb, g)
    return tuple(key[k] for k in amb.slots)


def _classify(d: Sequence[int], window: int) -> Verdict:
    """The verdict of an E-independent pair from its d-values alone.

    The dimensions need no check: by the dimension lemma (module
    docstring), dim L_2 = 1, and dim L_{i+1} = 2 iff dim L_i = 2 or
    d_i = 0.  So dim L_i = 1 for 2 <= i <= t1 and 2 above, where t1 is the
    first i with d_i = 0: all of L_3 .. L_window is 2-dimensional when d
    is all 0 (thin), all of L_2 .. L_window is a line when d is all 1
    (maximal), and otherwise the dimension steps once, after t1.
    """
    if all(x == 0 for x in d):
        return Verdict(kind="thin")
    if all(x == 1 for x in d):
        return Verdict(kind="maximal")
    zeros = [i for i, x in zip(range(2, window), d) if x == 0]
    t1 = zeros[0]
    gaps = [b - a for a, b in zip(zeros, zeros[1:])]
    r_observed = max(gaps) if gaps else None
    return Verdict(kind="rconstrained", r_observed=r_observed, t1=t1)


def generate_subalgebra(
    pres: MaxClassPresentation, g: GeneratorPair, window: Optional[int] = None
) -> SubalgebraAnalysis:
    """Read L = <X, Y> off its d-values and classify it within the window."""
    window = pres.class_n if window is None else window
    return _analyse(_Ambient(pres, window), g)


def _f_rank(p: int, g: GeneratorPair) -> int:
    """rank_F{X, Y}: 0 when all eight coordinates are 0, 1 when every 2x2
    minor of the 2x4 F-matrix of X and Y vanishes mod p, and 2 otherwise."""
    x, y = deg1_to_f4(g.X), deg1_to_f4(g.Y)
    if not any(x + y):
        return 0
    pairs = itertools.combinations(range(4), 2)
    return 2 if any((x[j] * y[k] - x[k] * y[j]) % p for j, k in pairs) else 1


def _analyse(amb: _Ambient, g: GeneratorPair) -> SubalgebraAnalysis:
    """The dimension lemma of the module docstring, degree by degree."""
    pres, window = amb.pres, amb.window
    F = pres.field
    if g.is_degenerate(F):
        return SubalgebraAnalysis(
            pres=pres,
            pair=g,
            window=window,
            dims=(_f_rank(F.p, g),) + (0,) * (window - 1),
            d=None,
            verdict=Verdict(kind="degenerate"),
            centralizers=amb.centralizers,
        )

    d = _d_values(amb, g)
    dims = [2, 1]
    for d_i in d:
        dims.append(2 if dims[-1] == 2 or d_i == 0 else 1)
    return SubalgebraAnalysis(
        pres=pres,
        pair=g,
        window=window,
        dims=tuple(dims),
        d=d,
        verdict=_classify(d, window),
        centralizers=amb.centralizers,
    )


# -- the scan ------------------------------------------------------------------


def normalized_pairs(field: ExtField) -> List[GeneratorPair]:
    """Canonical representatives X = x + beta*y, Y = mu*x + delta*y."""
    out = []
    for be in field.elements():
        for de in field.elements():
            out.append(GeneratorPair((field.one, be), (field.mu, de)))
    return out


def f_planes(field: ExtField) -> List[GeneratorPair]:
    """Every F-plane of M_1 = F^4 once, as the pair of its two rref rows.

    A plane with pivot columns j < k has free entries in row X at the
    columns after j other than k, and in row Y at the columns after k.
    """
    out = []
    for j, k in itertools.combinations(range(4), 2):
        free = [(0, c) for c in range(j + 1, 4) if c != k]
        free += [(1, c) for c in range(k + 1, 4)]
        for values in itertools.product(range(field.p), repeat=len(free)):
            rows = [[0] * 4, [0] * 4]
            rows[0][j] = rows[1][k] = 1
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            out.append(GeneratorPair(f4_to_deg1(rows[0]), f4_to_deg1(rows[1])))
    return out


@record
class ScanTable:
    window: int
    mode: str  # "normalized" | "raw"
    total: int
    counts: Dict[str, int]
    rconstrained_gaps: Dict[str, int]
    thin_direct: int
    thin_by_lines: Optional[int]  # only computed in normalized mode
    agree: Optional[bool]


def _check_scan_budget(cost: int, unit: str, window: int) -> None:
    if cost * window > SCAN_BUDGET:
        raise WindowTooLarge(
            f"scan of {cost} {unit} x window {window} exceeds budget {SCAN_BUDGET}"
        )


def count_thin_by_line_avoidance(
    pres: MaxClassPresentation, window: Optional[int] = None
) -> int:
    """Count thin normalized pairs combinatorially, without generating L.

    A normalized pair (beta, delta) is thin iff it is E-independent
    (delta != mu*beta) and, for every lambda with E(x + lambda*y) an
    occurring centralizer, the extension elements beta - lambda and
    delta - lambda*mu are F-independent.  The Ey condition holds for every
    normalized pair since (1, mu) is an F-independent pair.  Walks all q^2
    pairs, so it is charged like the normalized ``scan``.
    """
    F = pres.field
    window = pres.class_n if window is None else window
    _check_scan_budget(F.order**2, "pairs", window)
    points = two_step_centralizers(pres).distinct(window)
    lams = [pt[1] for pt in points if pt != ey_point(F)]
    count = 0
    for be in F.elements():
        for de in F.elements():
            if de == F.mul(F.mu, be):
                continue
            if all(
                _f_independent(F, F.sub(be, lam), F.sub(de, F.mul(lam, F.mu)))
                for lam in lams
            ):
                count += 1
    return count


def scan(
    pres: MaxClassPresentation,
    window: Optional[int] = None,
    raw: bool = False,
) -> ScanTable:
    """Classify every canonical generator pair and tabulate the verdicts.

    The pairs are counted by d-key (``_d_key``), and each key is
    classified once, since a verdict depends on d alone.

    In normalized mode the direct thin count is cross-checked against the
    independent line-avoidance count; the two totals must agree exactly.
    In raw mode each F-plane is keyed once and counted |GL_2(F)|
    times, once per ordered basis (X, Y); the E-dependent pairs make up
    the rest of the q^4 - 1.  Raises WindowTooLarge, before any pair is
    built, when the number of pairs or planes it keys (q^2 pairs normalized,
    (p^2 + 1)(p^2 + p + 1) planes raw) times the window exceeds SCAN_BUDGET.
    """
    F = pres.field
    if not is_standard(pres):
        raise NotStandardForm("scan expects a standard-form presentation")
    window = pres.class_n if window is None else window
    p, q = F.p, F.order
    count = q**4 - 1 if raw else q * q
    cost, unit = ((p * p + 1) * (p * p + p + 1), "planes") if raw else (count, "pairs")
    _check_scan_budget(cost, unit, window)
    amb = _Ambient(pres, window)
    pairs = f_planes(F) if raw else normalized_pairs(F)
    # in raw mode |GL_2(F)|, the number of ordered bases of a plane
    weight = (q - 1) * (q - p) if raw else 1

    # pairs per d-key; each key is classified once below
    keys: Dict[Tuple[int, ...], int] = {}
    for g in pairs:
        if g.is_degenerate(F):
            continue
        key = _d_key(amb, g)
        keys[key] = keys.get(key, 0) + weight

    counts = {"thin": 0, "maximal": 0, "rconstrained": 0}
    gaps: Dict[str, int] = {}
    for key, n in keys.items():
        v = _classify([key[k] for k in amb.slots], window)
        counts[v.kind] += n
        if v.kind == "rconstrained":
            gap = str(v.r_observed) if v.r_observed is not None else "unobserved"
            gaps[gap] = gaps.get(gap, 0) + n
    counts["degenerate"] = count - sum(counts.values())
    thin_by_lines = None
    agree = None
    if not raw:
        thin_by_lines = count_thin_by_line_avoidance(pres, window)
        agree = thin_by_lines == counts["thin"]
    return ScanTable(
        window=window,
        mode="raw" if raw else "normalized",
        total=count,
        counts=counts,
        rconstrained_gaps=dict(sorted(gaps.items())),
        thin_direct=counts["thin"],
        thin_by_lines=thin_by_lines,
        agree=agree,
    )
