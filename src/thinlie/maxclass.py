"""Class-n truncations of graded Lie algebras of maximal class over GF(p^2).

A presentation fixes, per degree i in [2, n-1], the adjoint pair
(a_i, b_i) meaning [v_i, x] = a_i*v_{i+1} and [v_i, y] = b_i*v_{i+1},
together with the fixed relation [y, x] = v_2.  Brackets whose degree
exceeds the class bound n are zero.

Conventions used throughout the package:

* iterated brackets are right-normed, and the sign convention is
  [y, x] = +v_2 (so [x, y] = -v_2);
* the basis chain is canonical: v_{i+1} is [v_i, x] whenever a_i != 0,
  else [v_i, y].  Presentations produced by this module therefore have
  a_i = 1 or (a_i, b_i) = (0, 1);
* the whole multiplication table is scalar: [v_i, v_j] = c_{ij}*v_{i+j}
  for a single coefficient in GF(p^2).  The validator derives all c_{ij}
  from the adjoint pairs and then checks the Jacobi identity on every
  basis triple inside the window.  (The operator identity
  ad([w,g]) = [ad w, ad g] evaluated at a basis element u *is* the
  Jacobi identity for (u, w, g), so the exhaustive triple loop covers
  the homomorphism property of the adjoint model as well.)
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .errors import (
    BadBound,
    InvalidPresentation,
    NotPrime,
    NotStandardForm,
    ReduciblePolynomial,
    SchemaError,
    WindowTooLarge,
    ZeroPair,
)
from .gf import EElem, ExtField, Matrix, make_ext_field

Pair = Tuple[EElem, EElem]
Point = Tuple[EElem, EElem]  # normalized projective point (alpha : beta) of M_1

SEARCH_CLASS_LIMIT = 24


@dataclass
class MaxClassPresentation:
    """A class-n truncation given by its per-degree adjoint pairs."""

    field: ExtField
    class_n: int
    adjoint: Tuple[Pair, ...]
    _structure: Optional["_Structure"] = dc_field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.class_n < 4:
            raise BadBound(f"class bound {self.class_n} < 4")
        if len(self.adjoint) != self.class_n - 2:
            raise ValueError(
                f"need {self.class_n - 2} adjoint pairs, got {len(self.adjoint)}"
            )
        F = self.field
        self.adjoint = tuple(
            (F.coerce(a), F.coerce(b)) for a, b in self.adjoint
        )

    def pair(self, degree: int) -> Pair:
        return self.adjoint[degree - 2]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MaxClassPresentation)
            and other.field == self.field
            and other.class_n == self.class_n
            and other.adjoint == self.adjoint
        )

    def __hash__(self):
        return hash((self.field, self.class_n, self.adjoint))


@dataclass(frozen=True)
class HomElem:
    """A homogeneous element: coordinates in (x, y) if degree 1, in v_d else."""

    degree: int
    coords: Tuple[EElem, ...]

    def is_zero(self, field: ExtField) -> bool:
        return all(field.is_zero(c) for c in self.coords)


@dataclass
class JacobiReport:
    ok: bool
    first_failure: Optional[Tuple[str, str, str]]
    triples_checked: int


@dataclass
class CentralizerSequence:
    """Normalized two-step centralizers C_i for i = 2 .. class_n - 1."""

    field: ExtField
    points: Tuple[Point, ...]  # index 0 <-> degree 2

    def point(self, degree: int) -> Point:
        return self.points[degree - 2]

    def degrees(self):
        return range(2, 2 + len(self.points))

    def deviations(self) -> List[int]:
        """Degrees whose centralizer differs from C_2."""
        c2 = self.points[0]
        return [d for d in self.degrees() if self.point(d) != c2]


def ey_point(field: ExtField) -> Point:
    return (field.zero, field.one)


def ex_point(field: ExtField) -> Point:
    return (field.one, field.zero)


# ---------------------------------------------------------------------------
# Structure-constant tables and the Jacobi validator
# ---------------------------------------------------------------------------


class _Structure:
    """Scalar multiplication table of a (partially built) presentation.

    Basis degrees run from 1 (x and y) through ``top``.  Pairs are pushed
    one degree at a time; each push derives the bracket coefficients
    [v_i, v_j] of total degree top and exposes the Jacobi checks that
    become visible at that total degree.  Pushes can be retracted, which
    is what the depth-first search uses for backtracking.
    """

    def __init__(self, field: ExtField, class_n: int):
        self.field = field
        self.class_n = class_n
        self.top = 2
        self.a: Dict[int, EElem] = {}
        self.b: Dict[int, EElem] = {}
        self.vv: Dict[Tuple[int, int], EElem] = {}

    # -- coefficient lookups ------------------------------------------------

    def coeff_a(self, k: int) -> EElem:
        return self.a.get(k, self.field.zero)

    def coeff_b(self, k: int) -> EElem:
        return self.b.get(k, self.field.zero)

    def get_vv(self, i: int, j: int) -> EElem:
        """Coefficient of [v_i, v_j] in v_{i+j} (0 on overflow)."""
        if i == j:
            return self.field.zero
        if i < j:
            return self.vv.get((i, j), self.field.zero)
        return self.field.neg(self.vv.get((j, i), self.field.zero))

    # -- incremental construction -------------------------------------------

    def extend(self, d: int, pair: Pair) -> List[Tuple[int, int]]:
        """Push the adjoint pair of degree d; derive cells of total d+1."""
        F = self.field
        a, b = F.coerce(pair[0]), F.coerce(pair[1])
        if F.is_zero(a) and F.is_zero(b):
            raise ZeroPair(f"adjoint pair at degree {d} is (0, 0)")
        assert d == self.top, "pairs must be pushed in degree order"
        self.a[d] = a
        self.b[d] = b
        self.top = d + 1
        total = self.top
        added: List[Tuple[int, int]] = []
        for i in range(2, (total + 1) // 2):
            j = total - i
            if i == 2:
                # [v_2, v_j] from v_2 = [y, x]:
                # [[y,x],v_j] = -[[x,v_j],y] - [[v_j,y],x]
                val = F.sub(
                    F.mul(self.coeff_a(j), self.coeff_b(j + 1)),
                    F.mul(self.coeff_b(j), self.coeff_a(j + 1)),
                )
            else:
                # expand v_i = c^{-1} [v_{i-1}, g]:
                # [v_i, v_j] = c^{-1}( [v_{i-1},v_j]*g_{i+j-1} - g_j*[v_{i-1},v_{j+1}] )
                am = self.coeff_a(i - 1)
                if not F.is_zero(am):
                    c, gk = am, self.coeff_a
                else:
                    c, gk = self.coeff_b(i - 1), self.coeff_b
                val = F.mul(
                    F.inv(c),
                    F.sub(
                        F.mul(self.get_vv(i - 1, j), gk(total - 1)),
                        F.mul(gk(j), self.get_vv(i - 1, j + 1)),
                    ),
                )
            self.vv[(i, j)] = val
            added.append((i, j))
        return added

    def retract(self, d: int, added: List[Tuple[int, int]]) -> None:
        for key in added:
            del self.vv[key]
        del self.a[d]
        del self.b[d]
        self.top = d

    # -- brackets of basis elements ------------------------------------------

    def bk(self, s: int, t: int):
        """Bracket of basis elements (ids: 0 = x, 1 = y, k = v_k).

        Returns (coefficient, target degree) or None when structurally zero
        (equal arguments or overflow past the current top degree).
        """
        F = self.field
        if s == t:
            return None
        if s <= 1 and t <= 1:
            if 2 > self.top:
                return None
            return (F.one, 2) if s == 1 else (F.neg(F.one), 2)
        if s <= 1:
            if t + 1 > self.top:
                return None
            c = self.coeff_a(t) if s == 0 else self.coeff_b(t)
            return (F.neg(c), t + 1)
        if t <= 1:
            if s + 1 > self.top:
                return None
            c = self.coeff_a(s) if t == 0 else self.coeff_b(s)
            return (c, s + 1)
        if s + t > self.top:
            return None
        return (self.get_vv(s, t), s + t)

    def jacobi(self, u: int, w: int, g: int) -> EElem:
        """Coefficient of J(u,w,g) = [[u,w],g] + [[w,g],u] + [[g,u],w]."""
        F = self.field
        acc = F.zero
        for p, q, r in ((u, w, g), (w, g, u), (g, u, w)):
            first = self.bk(p, q)
            if first is None or F.is_zero(first[0]):
                continue
            second = self.bk(first[1], r)
            if second is None:
                continue
            acc = F.add(acc, F.mul(first[0], second[0]))
        return acc

    # -- checks ---------------------------------------------------------------

    def check_new(self):
        """Jacobi on all basis triples of total degree == top.

        Returns (first_failing_triple_labels_or_None, number_checked).
        Triples of lower total degree were checked by earlier pushes, and
        triples with a repeated element vanish identically by the built-in
        antisymmetry of the tables.
        """
        F = self.field
        T = self.top
        checked = 0

        def label(i: int) -> str:
            return "x" if i == 0 else "y" if i == 1 else f"v{i}"

        m = T - 2
        if m >= 2:
            checked += 1
            if not F.is_zero(self.jacobi(m, 0, 1)):
                return (label(m), "x", "y"), checked
        for i in range(2, (T + 1) // 2):
            j = T - 1 - i
            if j <= i:
                break
            for g in (0, 1):
                checked += 1
                if not F.is_zero(self.jacobi(i, j, g)):
                    return (label(j), label(i), label(g)), checked
        for i in range(2, T):
            for j in range(i + 1, T):
                k = T - i - j
                if k <= j:
                    break
                checked += 1
                if not F.is_zero(self.jacobi(i, j, k)):
                    return (label(k), label(j), label(i)), checked
        return None, checked


def validate(pres: MaxClassPresentation) -> JacobiReport:
    """Derive the full multiplication table and check Jacobi exhaustively.

    Raises ZeroPair when some adjoint pair is (0, 0).  On success the
    derived table is cached on the presentation for later bracket calls.
    """
    st = _Structure(pres.field, pres.class_n)
    checked = 0
    for d in range(2, pres.class_n):
        st.extend(d, pres.pair(d))
        fail, cnt = st.check_new()
        checked += cnt
        if fail is not None:
            return JacobiReport(ok=False, first_failure=fail, triples_checked=checked)
    pres._structure = st
    return JacobiReport(ok=True, first_failure=None, triples_checked=checked)


def tables(pres: MaxClassPresentation) -> _Structure:
    """The validated structure tables of a presentation (cached)."""
    if pres._structure is None:
        report = validate(pres)
        if not report.ok:
            raise InvalidPresentation(
                f"Jacobi identity fails at triple {report.first_failure}"
            )
    return pres._structure


# ---------------------------------------------------------------------------
# Constructors and elementwise operations
# ---------------------------------------------------------------------------


def make_metabelian(field: ExtField, class_n: int) -> MaxClassPresentation:
    """The unique metabelian presentation: every pair is (1, 0)."""
    if class_n < 4:
        raise BadBound(f"class bound {class_n} < 4")
    pair = (field.one, field.zero)
    return MaxClassPresentation(field, class_n, tuple(pair for _ in range(class_n - 2)))


def quotient(pres: MaxClassPresentation, class_n: int) -> MaxClassPresentation:
    """Truncate to a smaller class bound."""
    if not 4 <= class_n <= pres.class_n:
        raise BadBound(f"quotient bound {class_n} not in [4, {pres.class_n}]")
    return MaxClassPresentation(pres.field, class_n, pres.adjoint[: class_n - 2])


def bracket(pres: MaxClassPresentation, u: HomElem, w: HomElem) -> HomElem:
    """Lie bracket of two homogeneous elements (zero past the class bound)."""
    F = pres.field
    st = tables(pres)
    d = u.degree + w.degree
    if d > pres.class_n:
        return HomElem(d, (F.zero,))
    if u.degree == 1 and w.degree == 1:
        A, B = u.coords
        al, be = w.coords
        coeff = F.sub(F.mul(B, al), F.mul(A, be))
        return HomElem(2, (coeff,))
    if u.degree == 1:
        A, B = u.coords
        (c,) = w.coords
        k = w.degree
        coeff = F.neg(F.add(F.mul(A, st.coeff_a(k)), F.mul(B, st.coeff_b(k))))
        return HomElem(d, (F.mul(c, coeff),))
    if w.degree == 1:
        (c,) = u.coords
        al, be = w.coords
        i = u.degree
        coeff = F.add(F.mul(al, st.coeff_a(i)), F.mul(be, st.coeff_b(i)))
        return HomElem(d, (F.mul(c, coeff),))
    (cu,) = u.coords
    (cw,) = w.coords
    coeff = st.get_vv(u.degree, w.degree)
    return HomElem(d, (F.mul(F.mul(cu, cw), coeff),))


def two_step_centralizers(pres: MaxClassPresentation) -> CentralizerSequence:
    """The projective kernel of (alpha, beta) -> alpha*a_i + beta*b_i per degree.

    Points are normalized to (1 : lambda) whenever the kernel contains a
    vector with nonzero x-part, else to (0 : 1) (the line Ey).
    """
    F = pres.field
    tables(pres)
    points = []
    for d in range(2, pres.class_n):
        a, b = pres.pair(d)
        if F.is_zero(b):
            points.append(ey_point(F))
        else:
            lam = F.neg(F.div(a, b))
            points.append((F.one, lam))
    return CentralizerSequence(F, tuple(points))


def is_standard(pres: MaxClassPresentation) -> bool:
    """C_2 = Ey and, if any centralizer deviates, the first deviation is Ex."""
    seq = two_step_centralizers(pres)
    if seq.points[0] != ey_point(pres.field):
        return False
    devs = seq.deviations()
    return not devs or seq.point(devs[0]) == ex_point(pres.field)


def apply_degree1_change(
    pres: MaxClassPresentation, xp: Tuple[EElem, EElem], yp: Tuple[EElem, EElem]
) -> MaxClassPresentation:
    """Recompute the presentation after the degree-1 base change.

    xp and yp are the new generators in the old (x, y) coordinates; the
    new chain is re-normalized canonically (v'_{i+1} = [v'_i, x'] when
    that bracket is nonzero, else [v'_i, y']).
    """
    F = pres.field
    st = tables(pres)
    a1, b1 = xp
    a2, b2 = yp
    det = F.sub(F.mul(b2, a1), F.mul(a2, b1))  # [y', x'] = det * v_2
    if F.is_zero(det):
        raise ValueError("degree-1 base change is singular")
    s = det
    new_pairs = []
    for d in range(2, pres.class_n):
        ad, bd = st.coeff_a(d), st.coeff_b(d)
        p = F.mul(s, F.add(F.mul(a1, ad), F.mul(b1, bd)))
        q = F.mul(s, F.add(F.mul(a2, ad), F.mul(b2, bd)))
        if not F.is_zero(p):
            new_pairs.append((F.one, F.div(q, p)))
            s = p
        else:
            new_pairs.append((F.zero, F.one))
            s = q
    return MaxClassPresentation(F, pres.class_n, tuple(new_pairs))


@dataclass
class StandardForm:
    presentation: MaxClassPresentation
    transform: Matrix  # rows: new x and new y in the old (x, y) coordinates
    changed: bool


def standard_generators(pres: MaxClassPresentation) -> StandardForm:
    """Base-change to standard generators and a canonical adjoint chain.

    Afterwards C_2 = Ey, and if some centralizer inside the window differs
    from C_2 the least such degree has centralizer Ex.  The operation is
    idempotent.
    """
    F = pres.field
    seq = two_step_centralizers(pres)
    c2 = seq.points[0]
    yp = c2  # a spanning vector of C_2
    devs = seq.deviations()
    if devs:
        xp = seq.point(devs[0])
    else:
        xp = (F.one, F.zero) if c2 == ey_point(F) else (F.zero, F.one)
    out = apply_degree1_change(pres, xp, yp)
    transform = Matrix(F, [list(xp), list(yp)])
    identity = xp == (F.one, F.zero) and yp == (F.zero, F.one)
    return StandardForm(
        presentation=out,
        transform=transform,
        changed=not (identity and out.adjoint == pres.adjoint),
    )


# ---------------------------------------------------------------------------
# Diagnostics over the truncation window
# ---------------------------------------------------------------------------


@dataclass
class CentralizerStats:
    point: Point
    first_occurrence: int
    first_is_two_p_power: bool
    occurrences: Tuple[int, ...]
    max_gap: Optional[int]
    gap_within_first: Optional[bool]


@dataclass
class DiagnosticsReport:
    class_n: int
    entries: Tuple[CentralizerStats, ...]


def _is_two_p_power(m: int, p: int) -> bool:
    if m % 2 != 0:
        return False
    t = m // 2
    while t % p == 0:
        t //= p
    return t == 1


def centralizer_stats(pres: MaxClassPresentation) -> DiagnosticsReport:
    """First occurrences and successive gaps per distinct centralizer.

    Purely diagnostic: a truncated presentation found by search need not
    extend to an infinite algebra, so pattern violations are reported,
    never rejected.  Requires a validated presentation in standard form.
    """
    if not is_standard(pres):
        raise NotStandardForm("centralizer_stats needs a standard-form presentation")
    seq = two_step_centralizers(pres)
    p = pres.field.p
    by_point: Dict[Point, List[int]] = {}
    order: List[Point] = []
    for d in seq.degrees():
        pt = seq.point(d)
        if pt not in by_point:
            by_point[pt] = []
            order.append(pt)
        by_point[pt].append(d)
    entries = []
    for pt in order:
        occ = by_point[pt]
        gaps = [b - a for a, b in zip(occ, occ[1:])]
        max_gap = max(gaps) if gaps else None
        entries.append(
            CentralizerStats(
                point=pt,
                first_occurrence=occ[0],
                first_is_two_p_power=_is_two_p_power(occ[0], p),
                occurrences=tuple(occ),
                max_gap=max_gap,
                gap_within_first=(max_gap <= occ[0]) if max_gap is not None else None,
            )
        )
    return DiagnosticsReport(class_n=pres.class_n, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Search oracle
# ---------------------------------------------------------------------------


def projective_pairs(field: ExtField) -> List[Pair]:
    """Canonical representatives of P^1(E): (1 : b) for all b, then (0 : 1)."""
    reps = [(field.one, e) for e in field.elements()]
    reps.append((field.zero, field.one))
    return reps


def search_sequences(
    field: ExtField, class_n: int, limit: int
) -> List[MaxClassPresentation]:
    """Depth-first enumeration of Jacobi-consistent adjoint sequences.

    Explores canonical projective representatives per degree, pruning any
    prefix whose visible Jacobi checks fail; a failed prefix can never be
    completed, because extending a presentation only adds checks.  Output
    is in lexicographic order, so the metabelian presentation comes first.
    """
    if class_n < 4:
        raise BadBound(f"class bound {class_n} < 4")
    if class_n > SEARCH_CLASS_LIMIT:
        raise WindowTooLarge(
            f"search window {class_n} exceeds soft limit {SEARCH_CLASS_LIMIT}"
        )
    reps = projective_pairs(field)
    st = _Structure(field, class_n)
    stack: List[Pair] = []
    out: List[MaxClassPresentation] = []

    def dfs(d: int) -> None:
        if len(out) >= limit:
            return
        if d == class_n:
            out.append(MaxClassPresentation(field, class_n, tuple(stack)))
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


# ---------------------------------------------------------------------------
# Algebra file format
# ---------------------------------------------------------------------------


def to_json(pres: MaxClassPresentation) -> dict:
    return {
        "p": pres.field.p,
        "ext_min_poly": [pres.field.v, pres.field.u],
        "class": pres.class_n,
        "adjoint": [[list(a), list(b)] for a, b in pres.adjoint],
    }


def _json_int(x) -> int:
    """A JSON integer; floats, strings and booleans are refused."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def from_json(obj: dict, check: bool = True) -> MaxClassPresentation:
    """Parse an algebra file; validates by default (loader contract)."""
    try:
        v, u = obj["ext_min_poly"]
        field = make_ext_field(_json_int(obj["p"]), _json_int(u), _json_int(v))
        class_n = _json_int(obj["class"])
        adjoint_raw = obj["adjoint"]
    except (KeyError, TypeError, ValueError, NotPrime, ReduciblePolynomial) as exc:
        raise SchemaError(f"malformed algebra file: {exc}") from exc
    if not isinstance(adjoint_raw, list) or len(adjoint_raw) != class_n - 2:
        raise SchemaError(
            f"adjoint length {len(adjoint_raw) if isinstance(adjoint_raw, list) else '?'}"
            f" != class - 2 = {class_n - 2}"
        )
    pairs = []
    for entry in adjoint_raw:
        try:
            (a0, a1), (b0, b1) = entry
            pairs.append(
                ((_json_int(a0), _json_int(a1)), (_json_int(b0), _json_int(b1)))
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed adjoint pair {entry!r}") from exc
    try:
        pres = MaxClassPresentation(field, class_n, tuple(pairs))
    except (BadBound, ValueError) as exc:
        raise SchemaError(str(exc)) from exc
    if check:
        report = validate(pres)
        if not report.ok:
            raise InvalidPresentation(
                f"algebra file fails Jacobi at triple {report.first_failure}"
            )
    return pres
