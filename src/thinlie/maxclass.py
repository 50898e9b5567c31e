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
  from the adjoint pairs and then checks the Jacobi identity on the
  basis triples that contain a generator x or y.  That is enough, by
  the generator lemma: in an anticommutative algebra the set
  D = {a : J(a, ., .) = 0} is a subalgebra (for a in D, ad a is a
  derivation and ad[a, b] = [ad a, ad b]; so for a, b in D, ad[a, b] is
  a derivation too), and the truncation is generated by x and y, so
  D containing them is everything.
"""

from __future__ import annotations

from itertools import takewhile

from ._record import record
from .errors import (
    BadBound,
    InvalidPresentation,
    NotPrime,
    ReduciblePolynomial,
    SchemaError,
    WindowTooLarge,
    ZeroPair,
)
from .gf import ExtField, make_ext_field, residue

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, Iterable, Iterator, List, Optional, Tuple

    from .gf import EElem

    Pair = Tuple[EElem, EElem]
    Point = Tuple[EElem, EElem]  # normalized projective point (alpha : beta) of M_1
    Columns = Tuple[List[EElem], List[EElem]]  # a degree's forms at (1, 0) and at (0, 1)
    Child = Tuple[Pair, Optional[Columns]]  # a search node's child, with its columns if known

SEARCH_CLASS_LIMIT = 24


@record
class MaxClassPresentation:
    """A class-n truncation given by its per-degree adjoint pairs.

    ``adjoint`` is a tuple of class_n - 2 pairs of field elements; the
    loader (``from_json``) checks the count and every coordinate, and
    ``make_metabelian`` and the search build them so.  Only the class
    bound is checked here."""

    field: ExtField
    class_n: int
    adjoint: Tuple[Pair, ...]

    def __post_init__(self):
        if self.class_n < 4:
            raise BadBound(f"class bound {self.class_n} < 4")

    def pair(self, degree: int) -> Pair:
        return self.adjoint[degree - 2]

    def __hash__(self):
        return hash((self.field, self.class_n, self.adjoint))


@record
class JacobiReport:
    ok: bool
    first_failure: Optional[Tuple[str, str, str]]
    triples_checked: int


@record
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

    def distinct(self, window: int) -> List[Point]:
        """The distinct C_i for i = 2 .. window - 1, in order of first occurrence."""
        return list(dict.fromkeys(self.points[: window - 2]))

    def is_standard(self) -> bool:
        """C_2 = Ey and, if any centralizer deviates, the first deviation is Ex."""
        if self.points[0] != ey_point(self.field):
            return False
        devs = self.deviations()
        return not devs or self.point(devs[0]) == ex_point(self.field)


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
    [v_i, v_j] of total degree top.  Pushes can be retracted, which is
    what the depth-first search uses for backtracking.

    The cells are stored by total degree: ``rows[t][i]`` is the
    coefficient of [v_i, v_{t-i}] in v_t for 2 <= i < t/2, entries 0 and
    1 of a row are zero, and ``rows[t]`` is None above top (and, in
    ``validate``, below top - 1).  A push writes one row and a retraction
    clears it.  Every cell that a push or a Jacobi form of top degree t
    reads is in row t or t - 1, at an index the degrees give.
    """

    def __init__(self, field: ExtField, class_n: int):
        self.field = field
        self.class_n = class_n
        self.top = 2
        self.a: Dict[int, EElem] = {}
        self.b: Dict[int, EElem] = {}
        self.rows: List[Optional[List[EElem]]] = [None] * (class_n + 1)
        # degree d -> (c^{-1}, g's coefficients) with v_{d+1} = c^{-1}*[v_d, g]
        self.step: Dict[int, Tuple[EElem, Dict[int, EElem]]] = {}

    # -- incremental construction -------------------------------------------

    def extend(self, d: int, pair: Pair) -> None:
        """Push the adjoint pair of degree d; derive the row of total d+1.

        The chain is canonical: v_{d+1} = c^{-1}*[v_d, g] with g = x and
        c = a_d when a_d != 0, else g = y and c = b_d.  That choice is made
        here once and read by the cells of later degrees.  Every pair the
        search pushes is (1 : t) or (0 : 1), so c = 1 needs no inversion.
        The pair must be field elements (every caller pushes them).

        The table kernel (``extend``, ``linear_forms`` and ``validate``)
        expands each product of GF(p^2) in place, with mu^2 = u*mu + v:
        (x0 + x1*mu)(y0 + y1*mu) = x0*y0 + v*x1*y1 + (x0*y1 + x1*y0 + u*x1*y1)*mu.
        The sums and differences of such products are taken over the
        integers and each coordinate of a result is reduced mod p once;
        Python ints are exact, so the residues are those of the field
        operations one at a time.
        """
        F = self.field
        zero, one = F.zero, F.one
        a, b, step = self.a, self.b, self.step
        a_d, b_d = pair
        if a_d == zero and b_d == zero:
            raise ZeroPair(f"adjoint pair at degree {d} is (0, 0)")
        assert d == self.top, "pairs must be pushed in degree order"
        a[d], b[d] = pair
        c, g = (a_d, a) if a_d != zero else (b_d, b)
        step[d] = (c if c == one else F.inv(c), g)
        self.top = total = d + 1
        p, U, V = F.p, F.u, F.v
        below = self.rows[d]  # below[i - 1] = [v_{i-1}, v_j], j = total - i
        row = [zero, zero]
        for i in range(2, (total + 1) // 2):
            j = total - i
            if i == 2:
                # [v_2, v_j] = a_j*b_{j+1} - b_j*a_{j+1}, from v_2 = [y, x]:
                # [[y,x],v_j] = -[[x,v_j],y] - [[v_j,y],x]
                x0, x1 = a[j]
                y0, y1 = b[j + 1]
                z0, z1 = b[j]
                w0, w1 = a[j + 1]
                cross = x1 * y1 - z1 * w1
                r0 = x0 * y0 - z0 * w0 + V * cross
                r1 = x0 * y1 + x1 * y0 - z0 * w1 - z1 * w0 + U * cross
            else:
                # expand v_i = c^{-1} [v_{i-1}, g]:
                # [v_i, v_j] = c^{-1}( [v_{i-1},v_j]*g_{i+j-1} - g_j*[v_{i-1},v_{j+1}] ),
                # where [v_{i-1}, v_{j+1}] is the cell derived just before (r0, r1)
                c_inv, g = step[i - 1]
                s0, s1 = below[i - 1]
                t0, t1 = g[total - 1]
                x0, x1 = g[j]
                cross = s1 * t1 - x1 * r1
                r0, r1 = (
                    s0 * t0 - x0 * r0 + V * cross,
                    s0 * t1 + s1 * t0 - x0 * r1 - x1 * r0 + U * cross,
                )
                if c_inv != one:
                    c0, c1 = c_inv
                    cross = c1 * r1
                    r0, r1 = c0 * r0 + V * cross, c0 * r1 + c1 * r0 + U * cross
            r0 %= p
            r1 %= p
            row.append((r0, r1))
        self.rows[total] = row

    def retract(self, d: int) -> None:
        """Undo the push of degree d, the last one: clear its row and pair."""
        self.rows[d + 1] = None
        del self.a[d]
        del self.b[d]
        del self.step[d]
        self.top = d

    # -- checks ---------------------------------------------------------------

    def open_triples(self, top: Optional[int] = None) -> List[Tuple[int, int, int, int]]:
        """The Jacobi triples of top degree ``top`` the table does not prove, in order.

        The triples to check at top degree t are the basis triples (ids:
        0 = x, 1 = y, k = v_k) of total degree t with a generator, in this
        order: (v_{t-2}, x, y) for t >= 4, then (v_i, v_j, g) for
        2 <= i < j = t - 1 - i and g = x, y; that is
        (t >= 4) + 2*max(0, t//2 - 2) triples.  Triples of lower total
        degree were checked at lower tops, triples with a repeated element
        vanish by the built-in antisymmetry of the tables, and triples
        (v_i, v_j, v_k) need no check: once every triple with x or y
        passes, Jacobi holds on all of them by the generator lemma (module
        docstring).

        Chain lemma: about half of these are zero by construction of the
        cells of total degree t (``extend``), whatever the pairs.  With
        g_k = a_k for g = x and b_k for g = y:

        * J(v_m, x, y) = a_m*b_{m+1} - b_m*a_{m+1} - [v_2, v_m]
          (``validate``), and for m = t - 2 >= 3 the cell [v_2, v_m] is
          defined as exactly a_m*b_{m+1} - b_m*a_{m+1}.  So J = 0.
        * Let g be the chain generator of degree u, v_{u+1} = c^{-1}*[v_u, g]
          with c = g_u, and w = t - 1 - u > u + 1.  The cell [v_{u+1}, v_w]
          is defined as c^{-1}*([v_u, v_w]*g_{u+w} - g_w*[v_u, v_{w+1}]),
          so J(v_u, v_w, g) = [v_u, v_w]*g_{u+w} - g_w*[v_u, v_{w+1}]
          - c*[v_{u+1}, v_w] = 0 exactly.

        The bound matters: with w = u + 1 the cell [v_{u+1}, v_{u+1}] is 0
        and not defined that way, and both generators can fail there.

        So the open triples are (v_2, x, y) at t = 4 only, then per
        2 <= i < j = t - 1 - i both generators if j = i + 1, else the
        generator that is not the chain generator of degree i.  Each entry
        is (n, u, w, g) with n the 1-based position of (u, w, g) in the
        list above.  They read the chain steps of degrees below t / 2 only,
        so ``top`` may be one above the table's (``linear_forms``); it
        defaults to the table's.
        """
        top = self.top if top is None else top
        out = [(1, 2, 0, 1)] if top == 4 else []
        b, step = self.b, self.step
        for i in range(2, top // 2):
            j, n = top - 1 - i, 2 * i - 2
            if j == i + 1:
                out += ((n, i, j, 0), (n + 1, i, j, 1))
            else:
                g = 0 if step[i][1] is b else 1
                out.append((n + g, i, j, g))
        return out

    def linear_forms(self) -> Columns:
        """The forms of a push at degree d = top at (1, 0) and (0, 1), in one pass.

        With the pairs of degrees < d fixed, every cell of total degree d+1
        that ``extend(d, (a_d, b_d))`` would derive, and every Jacobi
        coefficient of an open triple at top d+1, is alpha*a_d + beta*b_d
        (linearity lemma, ``search_sequences``).  This derives each such
        cell as its pair (alpha, beta) by ``extend``'s recurrence, where
        g_d is the pair (1, 0) or (0, 1), then evaluates the closed forms
        of ``validate`` on those pairs, over ``open_triples(d + 1)``.
        Returns the column of alphas and the column of betas, which are the
        forms after pushing (1, 0) and after pushing (0, 1).  Nothing is
        written into the table.  Products are expanded and each coordinate
        of a cell or form is reduced mod p once (``extend``).
        """
        F = self.field
        p, U, V, one = F.p, F.u, F.v, F.one
        a, b, step = self.a, self.b, self.step
        d = self.top
        total = d + 1
        below = self.rows[d]  # the cells of total degree d
        # cell[i] = (alpha, beta) of [v_i, v_{total-i}]
        cell: Dict[int, Tuple[EElem, EElem]] = {}
        for i in range(2, (total + 1) // 2):
            j = total - i
            if i == 2:
                # a_{d-1}*b_d - b_{d-1}*a_d
                b0, b1 = b[j]
                cell[2] = ((-b0 % p, -b1 % p), a[j])
                continue
            c_inv, g = step[i - 1]
            # c^{-1}([v_{i-1}, v_j]*g_d - g_j*[v_{i-1}, v_{j+1}])
            x0, x1 = g[j]
            (m0, m1), (n0, n1) = cell[i - 1]
            cross_a, cross_b = x1 * m1, x1 * n1
            al0, al1 = -(x0 * m0 + V * cross_a), -(x0 * m1 + x1 * m0 + U * cross_a)
            be0, be1 = -(x0 * n0 + V * cross_b), -(x0 * n1 + x1 * n0 + U * cross_b)
            s0, s1 = below[i - 1]
            if g is a:
                al0 += s0
                al1 += s1
            else:
                be0 += s0
                be1 += s1
            if c_inv != one:
                c0, c1 = c_inv
                cross_a, cross_b = c1 * al1, c1 * be1
                al0, al1 = c0 * al0 + V * cross_a, c0 * al1 + c1 * al0 + U * cross_a
                be0, be1 = c0 * be0 + V * cross_b, c0 * be1 + c1 * be0 + U * cross_b
            cell[i] = ((al0 % p, al1 % p), (be0 % p, be1 % p))
        at_x: List[EElem] = []
        at_y: List[EElem] = []
        for _, u, w, g in self.open_triples(total):
            if w == 0:
                # J(v_2, x, y) = a_2*b_3 - b_2*a_3 at top 4
                b0, b1 = b[2]
                at_x.append((-b0 % p, -b1 % p))
                at_y.append(a[2])
                continue
            # [v_u, v_w]*g_d - g_w*[v_u, v_{w+1}] - g_u*[v_{u+1}, v_w]
            gk = a if g == 0 else b
            x0, x1 = gk[w]
            (m0, m1), (n0, n1) = cell[u]
            cross_a, cross_b = x1 * m1, x1 * n1
            al0, al1 = x0 * m0, x0 * m1 + x1 * m0
            be0, be1 = x0 * n0, x0 * n1 + x1 * n0
            if u + 1 < w:
                z0, z1 = gk[u]
                (m0, m1), (n0, n1) = cell[u + 1]
                cross_a += z1 * m1
                cross_b += z1 * n1
                al0, al1 = al0 + z0 * m0, al1 + z0 * m1 + z1 * m0
                be0, be1 = be0 + z0 * n0, be1 + z0 * n1 + z1 * n0
            al0, al1 = -(al0 + V * cross_a), -(al1 + U * cross_a)
            be0, be1 = -(be0 + V * cross_b), -(be1 + U * cross_b)
            s0, s1 = below[u]
            if g == 0:
                al0 += s0
                al1 += s1
            else:
                be0 += s0
                be1 += s1
            at_x.append((al0 % p, al1 % p))
            at_y.append((be0 % p, be1 % p))
        return at_x, at_y


def label(idx: int) -> str:
    """The name of a basis id: 0 = x, 1 = y, k = v_k."""
    return "x" if idx == 0 else "y" if idx == 1 else f"v{idx}"


def validate(pres: MaxClassPresentation) -> JacobiReport:
    """Derive the multiplication table degree by degree and check Jacobi on it.

    Jacobi is checked on the triples with a generator, which implies it
    on every triple (``_Structure.open_triples``).  After the push of
    each degree, the open triples of the new top degree t are evaluated
    in one loop, by one of two closed forms.  With
    [v_k, x] = a_k*v_{k+1} and [v_k, y] = b_k*v_{k+1}, so
    [x, v_k] = -a_k*v_{k+1}, and [x, y] = -v_2:

    * J(v_m, x, y) = [a_m*v_{m+1}, y] + [-v_2, v_m] + [-b_m*v_{m+1}, x]
      = a_m*b_{m+1} - [v_2, v_m] - b_m*a_{m+1}.  It is open at m = 2
      only, where [v_2, v_2] = 0;
    * J(v_i, v_j, g), i < j and g_k = a_k for g = x or b_k for g = y:
      [v_i, v_j]*g_{i+j} + [g_j*v_{j+1}, v_i] + [-g_i*v_{i+1}, v_j]
      = [v_i, v_j]*g_{i+j} - g_j*[v_i, v_{j+1}] - g_i*[v_{i+1}, v_j].
      Its cells are ``rows[t - 1][i]``, ``rows[t][i]`` and
      ``rows[t][i + 1]``, the last 0 when j = i + 1.

    Each form is one sum of expanded products, reduced mod p once per
    coordinate (``_Structure.extend``).  The first nonzero form is the
    first failure, labelled with the degrees in descending order:
    (v2, x, y) or (v_j, v_i, g).  ``triples_checked`` counts the triples
    the chain lemma proves as checked too: every triple of the lower tops
    and those of top t up to the failure, which on a pass is all
    (t >= 4) + 2*max(0, t//2 - 2) of them.

    Two rows are kept: row t + 1 is derived from row t alone, and the
    forms of top t read rows t - 1 and t, so row t - 1 is cleared once top
    t has passed.  The check holds O(n) cells, and nothing is stored on
    the presentation.  Raises ZeroPair when some adjoint pair is (0, 0).
    """
    F = pres.field
    p, U, V = F.p, F.u, F.v
    st = _Structure(F, pres.class_n)
    a, b, rows = st.a, st.b, st.rows
    checked = 0
    for d in range(2, pres.class_n):
        st.extend(d, pres.pair(d))
        top = d + 1
        low, high = rows[d], rows[top]  # the cells of total degree top - 1 and top
        for n, u, w, g in st.open_triples():
            if w == 0:
                # J(v_2, x, y) = a_2*b_3 - b_2*a_3
                x0, x1 = a[2]
                y0, y1 = b[3]
                z0, z1 = b[2]
                t0, t1 = a[3]
                cross = x1 * y1 - z1 * t1
                r0 = x0 * y0 - z0 * t0 + V * cross
                r1 = x0 * y1 + x1 * y0 - z0 * t1 - z1 * t0 + U * cross
            else:
                # [v_u, v_w]*g_d - g_w*[v_u, v_{w+1}] - g_u*[v_{u+1}, v_w], u + w = d
                gk = a if g == 0 else b
                s0, s1 = low[u]
                t0, t1 = gk[d]
                x0, x1 = gk[w]
                y0, y1 = high[u]
                z0, z1 = gk[u]
                q0, q1 = high[u + 1] if u + 1 < w else (0, 0)
                cross = s1 * t1 - x1 * y1 - z1 * q1
                r0 = s0 * t0 - x0 * y0 - z0 * q0 + V * cross
                r1 = s0 * t1 + s1 * t0 - x0 * y1 - x1 * y0 - z0 * q1 - z1 * q0 + U * cross
            if r0 % p or r1 % p:
                fail = (label(max(u, w)), label(min(u, w)), label(g))
                return JacobiReport(ok=False, first_failure=fail, triples_checked=checked + n)
        checked += (top >= 4) + 2 * max(0, top // 2 - 2)
        rows[d] = None
    return JacobiReport(ok=True, first_failure=None, triples_checked=checked)


# ---------------------------------------------------------------------------
# Constructors and elementwise operations
# ---------------------------------------------------------------------------


def make_metabelian(field: ExtField, class_n: int) -> MaxClassPresentation:
    """The unique metabelian presentation: every pair is (1, 0).

    A class bound below 4 is refused by ``MaxClassPresentation``."""
    pair = (field.one, field.zero)
    return MaxClassPresentation(field, class_n, tuple(pair for _ in range(class_n - 2)))


def two_step_centralizers(pres: MaxClassPresentation) -> CentralizerSequence:
    """The projective kernel of (alpha, beta) -> alpha*a_i + beta*b_i per degree.

    Points are normalized to (1 : lambda) whenever the kernel contains a
    vector with nonzero x-part, else to (0 : 1) (the line Ey).  The points
    are read off the pairs: the presentation is taken as validated, which
    the loader (``from_json``) does.
    """
    F = pres.field
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
    return two_step_centralizers(pres).is_standard()


def standardize(seq: CentralizerSequence) -> CentralizerSequence:
    """The centralizers in standard generators (x', y'), read off the points.

    y' spans C_2, and x' spans the first centralizer that differs from it,
    or, if none does, x' = (1, 0) when C_2 = Ey and (0, 1) otherwise.  Then
    C_2 = Ey' and the first deviation is Ex'.  A centralizer C_i is a line
    of M_1 that does not depend on the basis, so the base change writes
    each point (alpha : beta) in the new coordinates:
    alpha*x + beta*y = alpha'*x' + beta'*y' with (alpha', beta')
    proportional to adj[x' | y'](alpha, beta) =
    (alpha*y'_1 - beta*y'_0, beta*x'_0 - alpha*x'_1).  x' and y' span
    different lines, so the matrix is invertible and no image is zero.
    Each image is normalized as ``two_step_centralizers`` does, so a
    standard sequence maps to itself.

    Only the lines Ex' and Ey' are fixed, not the vectors: any s*x', t*y'
    (s, t in E*) is standard too, and it maps a point (1 : lambda) to
    (1 : lambda*s/t).  So C_2 and the first deviation read the same in
    every basis of the same algebra, and which degrees share a point does
    too, but a point after the first deviation that is neither Ex' nor Ey'
    reads (1 : lambda) only up to that factor: it depends on the input
    basis.  The golden case ``stats-gf4c16-xy`` shows it: a GF(4) class-16
    algebra whose third point reads (1 : 1) as searched and (1 : mu) under
    x' = x + y, y' = mu*x.
    """
    F = seq.field
    yp = seq.points[0]
    devs = seq.deviations()
    if devs:
        xp = seq.point(devs[0])
    else:
        xp = ex_point(F) if yp == ey_point(F) else ey_point(F)
    (x0, x1), (y0, y1) = xp, yp
    points = []
    for al, be in seq.points:
        a = F.sub(F.mul(al, y1), F.mul(be, y0))
        if F.is_zero(a):
            points.append(ey_point(F))
        else:
            b = F.sub(F.mul(be, x0), F.mul(al, x1))
            points.append((F.one, F.div(b, a)))
    return CentralizerSequence(F, tuple(points))


# ---------------------------------------------------------------------------
# Diagnostics over the truncation window
# ---------------------------------------------------------------------------


@record
class CentralizerStats:
    point: Point
    first_occurrence: int
    first_is_two_p_power: bool
    occurrences: Tuple[int, ...]
    max_gap: Optional[int]
    gap_within_first: Optional[bool]


@record
class DiagnosticsReport:
    class_n: int
    standardized: bool
    entries: Tuple[CentralizerStats, ...]


def _is_two_p_power(m: int, p: int) -> bool:
    if m % 2 != 0:
        return False
    t = m // 2
    while t % p == 0:
        t //= p
    return t == 1


def centralizer_stats(seq: CentralizerSequence) -> DiagnosticsReport:
    """First occurrences and successive gaps per distinct centralizer.

    Purely diagnostic: a truncated presentation found by search need not
    extend to an infinite algebra, so pattern violations are reported,
    never rejected.  Takes the centralizers of a validated presentation
    (``two_step_centralizers``) in any basis and reads them in standard
    form: ``standardize`` maps a standard sequence to itself, so it is
    applied to every input, and ``standardized`` says whether the input
    was not standard.  The occurrences, gaps and flags of every entry do
    not depend on the basis, but the point of an entry after the first
    deviation does, up to a factor in E* (see ``standardize``).
    """
    standardized = not seq.is_standard()
    seq = standardize(seq)
    class_n = len(seq.points) + 2
    p = seq.field.p
    entries = []
    for pt in seq.distinct(class_n):
        occ = [d for d in seq.degrees() if seq.point(d) == pt]
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
    return DiagnosticsReport(class_n=class_n, standardized=standardized, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def projective_kernel(
    field: ExtField, at_x: List[EElem], at_y: List[EElem]
) -> Optional[List[Pair]]:
    """The points (a : b) of P^1(E) with a*at_x + b*at_y = 0; None for all of them.

    ``at_x`` and ``at_y`` are the columns of a k x 2 matrix over E, of
    field elements, so the kernel is all of P^1(E) (rank 0), one point
    (rank 1) or empty (rank 2).  The rank is 1 iff every row (u, w) lies
    in E*(s, t), the first nonzero row, that is iff s*w = t*u; the point
    is then the one annihilating (s, t): (1 : -s/t), or (0 : 1) when
    t = 0.  The test expands s*w - t*u and reduces each coordinate once
    (``_Structure.extend``), and -s/t is expanded as -s*conj(t)*N(t)^{-1}
    with one inversion in GF(p), as ``ExtField.inv`` does.
    """
    F = field
    p, U, V, zero = F.p, F.u, F.v, F.zero
    rows = zip(at_x, at_y)
    first = next((r for r in rows if r != (zero, zero)), None)
    if first is None:
        return None
    (s0, s1), t = first
    t0, t1 = t
    for (x0, x1), (y0, y1) in rows:  # after the first nonzero row; those before are zero
        cross = s1 * y1 - t1 * x1
        if (s0 * y0 - t0 * x0 + V * cross) % p or (
            s0 * y1 + s1 * y0 - t0 * x1 - t1 * x0 + U * cross
        ) % p:
            return []
    if t == zero:
        return [(zero, F.one)]
    # -s/t = -s*conj(t)/N(t): conj(t) = t0 + u*t1 - t1*mu, N(t) = t*conj(t) in GF(p)
    c0, c1 = t0 + U * t1, -t1
    n = pow((t0 * c0 + V * t1 * c1) % p, p - 2, p)
    cross = s1 * c1
    return [(F.one, (-(s0 * c0 + V * cross) * n % p, -(s0 * c1 + s1 * c0 + U * cross) * n % p))]


def free_children(field: ExtField, A: Columns, B: Columns) -> Iterator[Tuple[Pair, Columns]]:
    """The children of a free node that can have a next pair, with their columns.

    A and B are the next-degree columns of the children (1 : 0) and
    (0 : 1).  By the bilinearity lemma (``search_sequences``) child (1 : t)
    has columns A + t*B, and it has a next pair only if that k x 2 matrix
    has rank <= 1, that is if every 2 x 2 minor vanishes at t.  The first
    minor that is not identically zero is a polynomial of degree <= 2 in t
    and its roots are the only candidates; if every minor vanishes
    identically, every t is one.  Candidates (1 : t) come in ``F.key``
    order, then (0 : 1) with columns B.  The minors' coefficients and the
    columns A + t*B are expanded and reduced once per coordinate
    (``_Structure.extend``).
    """
    F = field
    p, U, V, zero = F.p, F.u, F.v, F.zero
    (ax, ay), (bx, by) = A, B
    rows = [r for r in zip(ax, ay, bx, by) if r != (zero, zero, zero, zero)]

    def minor(r, s):
        # det [[ax_r + t*bx_r, ay_r + t*by_r], [ax_s + t*bx_s, ay_s + t*by_s]]
        # = cross(2, 3)*t^2 + (cross(0, 3) + cross(2, 1))*t + cross(0, 1),
        # cross(f, g) = r_f*s_g - s_f*r_g
        out = []
        for crosses in (((2, 3),), ((0, 3), (2, 1)), ((0, 1),)):
            c0 = c1 = cross = 0
            for f, g in crosses:
                (x0, x1), (y0, y1), (z0, z1), (w0, w1) = r[f], s[g], s[f], r[g]
                cross += x1 * y1 - z1 * w1
                c0 += x0 * y0 - z0 * w0
                c1 += x0 * y1 + x1 * y0 - z0 * w1 - z1 * w0
            out.append(((c0 + V * cross) % p, (c1 + U * cross) % p))
        return tuple(out)

    def shifted(xs, ys, t0, t1):
        # xs + t*ys
        return [
            ((x0 + t0 * y0 + V * t1 * y1) % p, (x1 + t0 * y1 + t1 * y0 + U * t1 * y1) % p)
            for (x0, x1), (y0, y1) in zip(xs, ys)
        ]

    nonzero = (
        m for i, r in enumerate(rows) for s in rows[i + 1:] for m in (minor(r, s),)
        if m != (zero, zero, zero)
    )
    first = next(nonzero, None)
    for t in F.elements() if first is None else F.quadratic_roots(*first):
        yield (F.one, t), (shifted(ax, bx, *t), shifted(ay, by, *t))
    yield (F.zero, F.one), B


def search_sequences(
    field: ExtField, class_n: int, limit: int
) -> List[MaxClassPresentation]:
    """Depth-first enumeration of Jacobi-consistent adjoint sequences.

    Each node solves for its admissible pairs instead of trying all of
    P^1(E).  Its forms are the Jacobi coefficients of the open triples
    only; the others are zero by the chain lemma
    (``_Structure.open_triples``).  Which triples are open at top d+1 or
    d+2 depends on the chain steps of degrees below (d+2)/2 only, so it
    is fixed by the prefix and every pair of the node has its forms on
    the same triples.  Linearity lemma: with the pairs of degrees < d fixed,
    every Jacobi coefficient that ``validate`` evaluates after pushing
    (a_d, b_d) is a homogeneous E-linear form in (a_d, b_d).  Each new
    cell [v_i, v_j] of total degree d+1 is linear in the pair of degree d
    or in a cell of the same total degree derived before it, and its
    scalar c^{-1} and every cell of lower total degree are fixed by the
    prefix; each term of a Jacobi coefficient multiplies one such fixed
    scalar by one such linear entry.  The lemma drives the pass itself:
    ``_Structure.linear_forms`` derives each new cell as its pair of
    coefficients (alpha, beta) in (a_d, b_d) and evaluates the forms on
    those pairs, so one pass that pushes nothing gives the forms at (1, 0)
    and at (0, 1) (the node's columns).  The admissible pairs are the
    projective kernel of that k x 2 matrix: empty, one point, or all of
    P^1(E) (a free node).

    Bilinearity lemma: with the pairs of degrees < d fixed, the forms at
    top degree d+2 (after pushing P_d = (a_d, b_d) and P_{d+1}) are
    bilinear in (P_d, P_{d+1}).  Proof, over the cells of total degree
    d+2 in the order ``_Structure.extend`` derives them: the i = 2 cell is
    a_d*b_{d+1} - b_d*a_{d+1}.  Every other cell is
    c^{-1}([v_{i-1}, v_j]*g_{d+1} - g_j*[v_{i-1}, v_{j+1}]) with
    j = d+2-i <= d-1; its scalar c and its branch (g = x or y) come from
    degree i-1 < d, and g_j from degree j < d, so they are fixed by the
    prefix.  [v_{i-1}, v_j] has total degree d+1, so it is linear in P_d
    (linearity lemma) and g_{d+1} is linear in P_{d+1}; [v_{i-1}, v_{j+1}]
    is a cell of total degree d+2 derived before, bilinear by induction.
    Each term of a Jacobi coefficient at top d+2 is a product of two
    bracket coefficients.  Either the inner bracket has total degree <= d,
    and then it is a fixed scalar and the outer one a cell of total degree
    d+2; or it has total degree d+1 (a pair entry of degree d or a cell of
    total degree d+1, linear in P_d) and the outer one is a pair entry of
    degree d+1, linear in P_{d+1}.  Both products are bilinear.
    So at a free node the search pushes only (1 : 0) and (0 : 1) and reads
    their next-degree columns A and B (``linear_forms`` again); child
    (1 : t) has columns A + t*B, and only the children that can have a
    next pair are visited (``free_children``), each with its columns,
    which it does not recompute.  Such a child is pushed only when it has
    children with a next degree: below it, a node whose children are
    leaves reads nothing but its columns.  A free node whose children are
    leaves visits all of them.
    E is enumerated only lazily, when every child of a free node is a
    candidate or a leaf, so ``limit`` bounds the work at any q.  Nothing
    is pushed at the last degree class_n - 1: a leaf is built from the
    stack, which is all it reads.

    Children are visited in the order (1 : t) by ``F.key`` of t, then
    (0 : 1), so the output is in lexicographic order and the metabelian
    presentation comes first.  A pair outside the kernel fails a check,
    and a failed prefix can never be completed, because extending a
    presentation only adds checks.  At most ``limit`` (>= 1)
    presentations are returned.

    Rescaling lemma: for gamma in E*, the map sigma_gamma that sends every
    pair (1 : s) to (1 : gamma*s) and fixes (0 : 1) maps the valid
    presentations of class n onto themselves.  Proof: x' = x, y' = gamma*y
    is a degree-1 base change, so [y', x'] = gamma*v_2 = v'_2, and along
    the canonical chain v'_{i+1} = [v'_i, x'] or [v'_i, y'].  If
    v'_i = s_i*v_i and (a_i, b_i) = (1, s), then [v'_i, x'] = s_i*v_{i+1}
    is nonzero, so v'_{i+1} = s_i*v_{i+1} and [v'_i, y'] = gamma*s*v'_{i+1}:
    the new pair is (1 : gamma*s).  If (a_i, b_i) = (0, 1), then
    [v'_i, x'] = 0, v'_{i+1} = [v'_i, y'] = gamma*s_i*v_{i+1} and the new
    pair is (0 : 1).  The new pairs present the same algebra, so they
    satisfy Jacobi, and sigma_{1/gamma} inverts sigma_gamma.
    So below a fixed prefix, made only of (1 : 0) and (0 : 1) pairs, which
    sigma_gamma fixes, the completions of (1 : t) are those of (1 : t*)
    mapped by sigma_{t/t*}.  A fixed node below the last degree searches
    only its first child (1 : t*) with t* != 0, once that subtree has
    finished under the limit; every later child (1 : t) is that block
    rescaled and sorted into the search's order, and none has a completion
    if (1 : t*) has none.  Scaling multiplies one pair at a time, so no
    table over E is built.
    """
    if class_n < 4:
        raise BadBound(f"class bound {class_n} < 4")
    if class_n > SEARCH_CLASS_LIMIT:
        raise WindowTooLarge(
            f"search window {class_n} exceeds soft limit {SEARCH_CLASS_LIMIT}"
        )
    if limit < 1:
        raise BadBound(f"search limit {limit} < 1")
    F = field
    zero, one, q = F.zero, F.one, F.order
    ex, ey = ex_point(F), ey_point(F)
    st = _Structure(field, class_n)
    out: List[MaxClassPresentation] = []

    def next_columns(d: int, pair: Pair) -> Columns:
        st.extend(d, pair)
        cols = st.linear_forms()
        st.retract(d)
        return cols

    def children(d: int, cols: Columns) -> Tuple[Iterable[Child], List[Child]]:
        """The children (1 : t) of a node in ``F.key`` order, and its child (0 : 1) if any."""
        kernel = projective_kernel(F, *cols)
        if kernel is not None:
            return (
                [(pair, None) for pair in kernel if pair != ey],
                [(pair, None) for pair in kernel if pair == ey],
            )
        if d + 1 == class_n:
            return (((one, t), None) for t in F.elements()), [(ey, None)]
        B = next_columns(d, ey)
        kids = free_children(F, next_columns(d, ex), B)  # (0 : 1) last, with columns B
        return takewhile(lambda child: child[0] != ey, kids), [(ey, B)]

    def order(pres: MaxClassPresentation) -> List[int]:
        # the search's order: (1 : t) by F.key of t, (0 : 1) after all of them
        return [F.key(b) if a == one else q for a, b in pres.adjoint]

    def rescaled(block: List[MaxClassPresentation], gamma: EElem) -> List[MaxClassPresentation]:
        # sigma_gamma of each presentation, in the search's order
        mul = F.mul
        found = (
            tuple((a, mul(gamma, b)) if a == one else (a, b) for a, b in pres.adjoint)
            for pres in block
        )
        return sorted((MaxClassPresentation(field, class_n, adj) for adj in found), key=order)

    def visit(d: int, stack: Tuple[Pair, ...], pair: Pair, cols: Optional[Columns]) -> None:
        stack += (pair,)
        if d + 1 == class_n:
            out.append(MaxClassPresentation(field, class_n, stack))
        elif d + 2 == class_n and cols is not None:
            # its children are leaves: it reads its columns, not the table
            dfs(d + 1, stack, cols)
        else:
            st.extend(d, pair)
            dfs(d + 1, stack, cols)
            st.retract(d)

    def dfs(d: int, stack: Tuple[Pair, ...], cols: Optional[Columns]) -> None:
        ones, last = children(d, st.linear_forms() if cols is None else cols)
        fixed = d + 1 < class_n and all(pair in (ex, ey) for pair in stack)
        block: Optional[List[MaxClassPresentation]] = None  # the completions of (1 : t*)
        for pair, child_cols in ones:
            if len(out) >= limit:
                return
            if block is not None:
                out.extend(rescaled(block, F.div(pair[1], t_star))[: limit - len(out)])
                continue
            start = len(out)
            visit(d, stack, pair, child_cols)
            if fixed and pair[1] != zero:
                t_star, block = pair[1], out[start:]
                if not block:  # no (1 : t), t != 0, has a completion
                    break
        for pair, child_cols in last:
            if len(out) < limit:
                visit(d, stack, pair, child_cols)

    dfs(2, (), None)
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
    """Parse an algebra file; validates by default (loader contract).

    Field values must be residues in [0, p): nothing is reduced mod p.
    """
    try:
        v, u = obj["ext_min_poly"]
        p = _json_int(obj["p"])
        field = make_ext_field(p, residue(p, _json_int(u)), residue(p, _json_int(v)))
        class_n = _json_int(obj["class"])
        adjoint_raw = obj["adjoint"]
    except (
        KeyError, TypeError, ValueError, BadBound, NotPrime, ReduciblePolynomial
    ) as exc:
        raise SchemaError(f"malformed algebra file: {exc}") from exc
    if not isinstance(adjoint_raw, list) or len(adjoint_raw) != class_n - 2:
        raise SchemaError(
            f"adjoint length {len(adjoint_raw) if isinstance(adjoint_raw, list) else '?'}"
            f" != class - 2 = {class_n - 2}"
        )
    pairs = []
    for entry in adjoint_raw:
        try:
            (a0, a1), (b0, b1) = [[residue(p, _json_int(c)) for c in e] for e in entry]
            pairs.append(((a0, a1), (b0, b1)))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed adjoint pair {entry!r}: {exc}") from exc
    try:
        pres = MaxClassPresentation(field, class_n, tuple(pairs))
    except BadBound as exc:
        raise SchemaError(str(exc)) from exc
    if check:
        report = validate(pres)
        if not report.ok:
            raise InvalidPresentation(
                f"algebra file fails Jacobi at triple {report.first_failure}"
            )
    return pres
