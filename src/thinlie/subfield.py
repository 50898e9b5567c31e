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
elsewhere.  A verdict depends only on d (``_classify``), so a scan
classifies once per key, the d-value at each distinct point.

A scan counts its keys without walking pairs, by the Baer-subline lemma.
For E-independent X and Y, the E-lines of M_1 that U meets are the p + 1
points [alpha*X + beta*Y], (alpha : beta) in P^1(F).  They are distinct,
since U lies in no E-line, and they form a Baer subline B(U) of P^1(E):
the image of P^1(F) under a Moebius map (Hirschfeld, *Projective
Geometries over Finite Fields*).  So d = 1 at C exactly when C lies on
B(U).  The planes c*U, c in E*, share the subline, and c*U = U iff c is
in F*; so each subline comes from p + 1 E-independent planes.  Hence:

* P^1(E) has (p^2 + 1)(p^2 + p)/(p + 1) = p(p^2 + 1) sublines, and
  through 1, 2 or 3 distinct points pass p(p + 1), p + 1 and 1 of them;
* a raw key S holds (p + 1)*|GL_2(F)|*N(S) pairs, where N(S) counts the
  sublines that meet the distinct points exactly in S and |GL_2(F)| is
  the number of ordered bases of a plane;
* a plane has a normalized basis (x + beta*y, mu*x + delta*y) iff it
  meets Ey in 0, and then exactly one; so a normalized key S holds
  (p + 1)*N(S) pairs when Ey is not in S, and none when it is;
* the E-dependent pairs make up the rest.

``_subline_counts`` finds every N(S) in O(k^3) for k distinct points.
"""

from __future__ import annotations

import itertools

from ._record import record
from .errors import BadBound, NotStandardForm
from .gf import ExtField
from .maxclass import (
    CentralizerSequence,
    MaxClassPresentation,
    ey_point,
    two_step_centralizers,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, List, Optional, Sequence, Tuple

    from .gf import EElem

    EPair = Tuple[EElem, EElem]  # coordinates (A, B) of A*x + B*y

@record
class GeneratorPair:
    """Two degree-1 elements X = alpha*x + beta*y and Y = gamma*x + delta*y."""

    X: EPair
    Y: EPair

    def det(self, field: ExtField) -> EElem:
        (al, be), (ga, de) = self.X, self.Y
        return field.sub(field.mul(al, de), field.mul(be, ga))

    def is_degenerate(self, field: ExtField) -> bool:
        return field.is_zero(self.det(field))


def pair_from_ints(xs: Sequence[int], ys: Sequence[int]) -> GeneratorPair:
    """Build a pair from flat coordinates (a0, a1, b0, b1) per generator,
    each a residue in [0, p) already (``cli._parse_gen`` checks them)."""
    return GeneratorPair(((xs[0], xs[1]), (xs[2], xs[3])), ((ys[0], ys[1]), (ys[2], ys[3])))


# -- coordinate plumbing -----------------------------------------------------


def deg1_to_f4(g: EPair) -> Tuple[int, int, int, int]:
    (a0, a1), (b0, b1) = g
    return (a0, a1, b0, b1)


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

    Built once per scan: the centralizer sequence (``centralizers``, or
    computed here), its distinct points C_i for i = 2 .. window - 1, and
    the index of each C_i among them.
    """

    def __init__(
        self,
        pres: MaxClassPresentation,
        window: int,
        centralizers: Optional[CentralizerSequence] = None,
    ):
        if not 4 <= window <= pres.class_n:
            raise BadBound(f"window {window} not in [4, {pres.class_n}]")
        self.pres = pres
        self.window = window
        self.centralizers = two_step_centralizers(pres) if centralizers is None else centralizers
        self.points = self.centralizers.distinct(window)
        self.slots = [self.points.index(self.centralizers.point(i)) for i in range(2, window)]


def _f_det(p: int, u: EElem, w: EElem) -> int:
    """The 2x2 F-determinant of u and w as vectors of F^2."""
    return (u[0] * w[1] - u[1] * w[0]) % p


def _f_independent(field: ExtField, u: EElem, w: EElem) -> bool:
    return _f_det(field.p, u, w) != 0


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


def _f_class(p: int, c: EElem) -> int:
    """The class of c != 0 in E*/F*: c0/c1 mod p, or p when c1 = 0."""
    c0, c1 = c
    return c0 * pow(c1, p - 2, p) % p if c1 else p


def _subline_counts(field: ExtField, points: Sequence[EPair]) -> Dict[Tuple[int, ...], int]:
    """N(S), keyed like ``_d_key``: the Baer sublines of P^1(E) that meet
    the distinct ``points`` exactly in S, for every S with N(S) > 0.

    For i < j, z(P) = det(P, P_j)/det(P, P_i) is a Moebius map sending P_i
    to infinity and P_j to 0, so the p + 1 sublines through both are
    {0, infinity} + c*F*, one per class of c in E*/F*.  The other points
    fall into groups by the class of z, which is that of
    det(P, P_j)*conj(det(P, P_i)), and each group is one subline's.  A
    subline through three or more points is recorded at its two smallest
    indices; the counts of the module docstring give the rest.  O(k^3).
    """
    F, p, k = field, field.p, len(points)
    det = [[F.sub(F.mul(P[0], Q[1]), F.mul(P[1], Q[0])) for Q in points] for P in points]
    conj = [[F.conj(d) for d in row] for row in det]
    met: Dict[Tuple[int, ...], int] = {}
    for i, j in itertools.combinations(range(k), 2):
        groups: Dict[int, List[int]] = {}
        for m in range(k):
            if m != i and m != j:
                groups.setdefault(_f_class(p, F.mul(det[m][j], conj[m][i])), []).append(m)
        met[(i, j)] = p + 1 - len(groups)
        for members in groups.values():
            if members[0] > j:
                met[(i, j, *members)] = 1
    through = [p * (p + 1)] * k
    for s, n in met.items():
        for i in s:
            through[i] -= n
    for i, n in enumerate(through):
        met[(i,)] = n
    met[()] = p * (p * p + 1) - sum(met.values())
    return {tuple(int(i in s) for i in range(k)): n for s, n in met.items() if n}


def _key_counts(amb: _Ambient, raw: bool) -> Dict[Tuple[int, ...], int]:
    """The E-independent pairs of a scan per d-key, read off the sublines.

    A key S holds (p + 1)*|GL_2(F)|*N(S) raw pairs, or (p + 1)*N(S)
    normalized ones when S misses Ey, which is ``amb.points[0]`` (C_2) in
    standard form, and none when S holds it.
    """
    F = amb.pres.field
    p = F.p
    weight = (p + 1) * (p * p - 1) * (p * p - p) if raw else p + 1
    return {
        key: weight * n
        for key, n in _subline_counts(F, amb.points).items()
        if raw or not key[0]
    }


@record
class ScanTable:
    window: int
    mode: str  # "normalized" | "raw"
    total: int
    counts: Dict[str, int]
    rconstrained_gaps: Dict[str, int]
    thin_by_lines: Optional[int]  # only computed in normalized mode
    agree: Optional[bool]


def _circle(field: ExtField, a: EElem, b: EElem, c: EElem) -> Optional[Tuple[EElem, int]]:
    """The circle N(x - z) = r through a, b and c, as (z, r), or None when
    the three are collinear in E = F^2.

    N(x - z) = N(x) - Tr(x*conj(z)) + N(z), so the centre z solves
    Tr((b - a)*conj(z)) = N(b) - N(a) and the same for c, a 2x2 F-system
    in (z0, z1), as Tr(d*conj(z)) = (2*d0 + u*d1)*z0 + (u*d0 - 2*v*d1)*z1.
    Its matrix is that of b - a and c - a times the Gram matrix of the
    nondegenerate form Tr(x*conj(y)), so it is singular exactly when the
    three are collinear.  r = N(a - z) != 0, as N vanishes only at 0.
    """
    F, p, u, v = field, field.p, field.u, field.v
    rows = []
    for w in (b, c):
        d0, d1 = F.sub(w, a)
        rows.append((2 * d0 + u * d1, u * d0 - 2 * v * d1, F.norm(w) - F.norm(a)))
    (s0, s1, n), (t0, t1, m) = rows
    det = (s0 * t1 - s1 * t0) % p
    if not det:
        return None
    inv = pow(det, p - 2, p)
    z = ((n * t1 - m * s1) * inv % p, (s0 * m - t0 * n) * inv % p)
    return z, F.norm(F.sub(a, z))


def count_thin_by_line_avoidance(
    pres: MaxClassPresentation, window: int, centralizers: CentralizerSequence
) -> int:
    """Count thin normalized pairs by the lines and circles of E = AG(2, p).

    Let Lambda hold the k distinct lambda with E(x + lambda*y) an
    occurring centralizer.  A normalized pair (beta, delta) is thin iff
    it is E-independent (delta != mu*beta) and, for every lambda in
    Lambda, beta - lambda and delta - lambda*mu are F-independent.  The Ey
    condition holds for every normalized pair since (1, mu) is an
    F-independent pair.  So no pair with beta in Lambda is thin.  For any
    other beta, the delta that fail at lambda form the affine F-line
    l_lambda = lambda*mu + F*(beta - lambda) of E = F^2.  mu*beta lies on
    none of these lines, and two lambdas give two distinct lines, since
    equal ones would put mu in F.  So beta has q - 1 - |U| thin partners,
    U the union of the k lines.  By inclusion-exclusion, grouping the
    sets of lines that meet by their common point z, through which m_z
    lines pass, and as sum_{r >= 3} (-1)^(r+1)*C(m, r) = C(m - 1, 2),
    |U| = p*k - P + sum_z C(m_z - 1, 2), P the number of meeting pairs.
    Let Im(c0 + c1*mu) = c1, which is F-linear with kernel F, and L_ij
    the affine F-line through lambda_i and lambda_j.

    * Two lines are parallel iff beta - lambda_i and beta - lambda_j are
      F-dependent, that is iff beta is on L_ij.
    * delta is on l_lambda iff (delta - lambda*mu)*conj(beta - lambda) is
      in F, that is, as Im(lambda*mu*conj(lambda)) = N(lambda), iff
      Im(delta*conj(beta - lambda)) = Im(lambda*mu*conj(beta)) - N(lambda).
      The left sides are F-linear forms in delta with the dependencies of
      the beta - lambda, so lines concur iff every dependency
      sum alpha_r*(beta - lambda_r) = 0 also holds for the right sides.
    * If lambda_1, lambda_2, lambda_3 are not collinear, the beta - lambda_r
      span F^2, and their one dependency gives beta = sum alpha_r*lambda_r
      with sum alpha_r = 1.  Im is F-linear, so
      sum alpha_r*Im(lambda_r*mu*conj(beta)) = N(beta), and the three
      lines concur iff N(beta) = sum alpha_r*N(lambda_r) = A(beta), A the
      affine map with A(lambda_r) = N(lambda_r).  As Tr(x*conj(y)) is
      nondegenerate, A(x) = Tr(x*conj(z)) + N(z) - r for one z and r, so
      N = A is the circle N(x - z) = r through the lambda_r (``_circle``):
      the lines concur iff beta is on it.
    * If lambda_r = a + t_r*w for distinct t_r, the lines never concur: if
      beta is on that line too, they are parallel; otherwise the
      dependency has sum alpha_r = sum alpha_r*t_r = 0, so
      sum alpha_r*lambda_r = 0, and the right sides would need
      sum alpha_r*N(lambda_r) = N(w)*sum alpha_r*t_r^2 = 0, as N on the
      line is a quadratic in t with leading coefficient N(w) != 0; but
      no nonzero alpha vanishes on 1, t and t^2 at three distinct t_r.
    * So m >= 3 lines meet at z iff their lambdas lie on one circle
      through beta: no three of them are collinear, and every lambda of
      Lambda on that circle has its line through z, since a line meets a
      circle in at most 2 points.  Each circle C holding m_C >= 3 points
      of Lambda passes through p + 1 - m_C values beta outside Lambda, as
      N maps E* onto F* with kernel of order p + 1.

    Summing over the q - k values beta outside Lambda:

      thin = (q - k)(q - 1 - p*k) + sum_{i<j} (q - k - p + |Lambda & L_ij|)
             - sum_C C(m_C - 1, 2)*(p + 1 - m_C).

    |Lambda & L_ij| is 2 plus the lambdas collinear with lambda_i and
    lambda_j, so one pass over the triples of Lambda finds the collinear
    ones, each in three of the L_ij, and, from the others, every circle
    with its points.  O(k^3); no element of E is enumerated.
    ``centralizers`` is pres's centralizer sequence, which ``scan`` has
    computed already, and Lambda is read off its points below ``window``.
    """
    F = pres.field
    p, q = F.p, F.order
    lams = [pt[1] for pt in centralizers.distinct(window) if pt != ey_point(F)]
    k = len(lams)
    count = (q - k) * (q - 1 - p * k) + k * (k - 1) // 2 * (q - k - p + 2)
    circles: Dict[Tuple[EElem, int], set] = {}
    for triple in itertools.combinations(lams, 3):
        circle = _circle(F, *triple)
        if circle is None:
            count += 3
        else:
            circles.setdefault(circle, set()).update(triple)
    for on in circles.values():
        m = len(on)
        count -= (m - 1) * (m - 2) // 2 * (p + 1 - m)
    return count


def scan(
    pres: MaxClassPresentation,
    window: Optional[int] = None,
    raw: bool = False,
) -> ScanTable:
    """Classify every canonical generator pair and tabulate the verdicts.

    The pairs are counted by d-key from the Baer sublines through the
    centralizer points (``_key_counts``, the module docstring), without
    walking them, and each key is classified once, since a verdict depends
    on d alone.

    In normalized mode the direct thin count is cross-checked against the
    independent line-avoidance count; the two totals must agree exactly.
    In raw mode each E-independent F-plane counts |GL_2(F)| times, once
    per ordered basis (X, Y); the E-dependent pairs make up the rest of
    the q^4 - 1.  The key counts and the line-avoidance count each cost
    O(k^3) for k distinct centralizer points, whatever p is, and neither
    enumerates E.  The centralizer sequence is computed once, for all
    three.
    """
    seq = two_step_centralizers(pres)
    if not seq.is_standard():
        raise NotStandardForm("scan expects a standard-form presentation")
    window = pres.class_n if window is None else window
    q = pres.field.order
    count = q**4 - 1 if raw else q * q
    amb = _Ambient(pres, window, seq)

    counts = {"thin": 0, "maximal": 0, "rconstrained": 0}
    gaps: Dict[str, int] = {}
    for key, n in _key_counts(amb, raw).items():
        v = _classify([key[k] for k in amb.slots], window)
        counts[v.kind] += n
        if v.kind == "rconstrained":
            gap = str(v.r_observed) if v.r_observed is not None else "unobserved"
            gaps[gap] = gaps.get(gap, 0) + n
    counts["degenerate"] = count - sum(counts.values())
    thin_by_lines = None
    agree = None
    if not raw:
        thin_by_lines = count_thin_by_line_avoidance(pres, window, seq)
        agree = thin_by_lines == counts["thin"]
    return ScanTable(
        window=window,
        mode="raw" if raw else "normalized",
        total=count,
        counts=counts,
        rconstrained_gaps=dict(sorted(gaps.items())),
        thin_by_lines=thin_by_lines,
        agree=agree,
    )
