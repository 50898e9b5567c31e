"""Graded degree-0 endomorphism rings of the module L^3.

An endomorphism preserving homogeneous components is parameterized by its
matrix on the bottom component V_3: because each V_{i+1} is spanned by
[V_i, X] and [V_i, Y], the rule f([v, g]) = [f(v), g] forces the values on
every higher degree.  The solver carries that forced propagation
symbolically (entries are homogeneous linear forms in the bottom-matrix
unknowns), one step per degree: with T_g the matrix of ad g from L_i to
L_{i+1}, f_{i+1} solves [v, g]*f_{i+1} = f_i(v)*T_g on a spanning subset of
the ad rows [v, g] (v a basis row of L_i, g = X, Y), and every other row
gives a well-definedness constraint.  The constraints form one linear
system over GF(p); its kernel is the endomorphism space.  Every sum of
forms goes through ``gf.combine``.

Parameterizing from the bottom eliminates spurious solutions supported
near the truncation top, which would otherwise satisfy every visible
constraint vacuously.
"""

from __future__ import annotations

from ._record import record
from .errors import (
    CoveringFails,
    DegenerateGenerators,
    DimensionAnomaly,
    NotAField,
    NotCommutative,
    OutOfWindow,
)
from .gf import RowSpace, combine, quadratic_is_irreducible, solve, span
from .subfield import SubalgebraAnalysis, ad_gen

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, List, Optional, Sequence, Tuple

    from .gf import EElem

    Coords = Tuple[int, ...]

K0 = 3  # the module is L^{K0}; its bottom degree carries the unknowns

# -- the propagation solver ---------------------------------------------------


def _lf_unit(n: int, k: int) -> Coords:
    return tuple(1 if i == k else 0 for i in range(n))


def _solve_graded_maps(analysis: SubalgebraAnalysis):
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
    symbolic: Dict[int, List[List[Coords]]] = {
        K0: [[_lf_unit(n_unk, r * dim + c) for c in range(dim)] for r in range(dim)]
    }
    gens = (analysis.pair.X, analysis.pair.Y)
    constraints: List[Coords] = []
    minus_one = (p - 1,)
    for i in range(K0, analysis.window):
        f_i = symbolic[i]
        ad = [
            [analysis.express(i + 1, ad_gen(analysis.pres, i, v, g)) for g in gens]
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


# -- the degree-0 ring --------------------------------------------------------


@record
class EndoRing:
    analysis: SubalgebraAnalysis
    dim: int
    basis: Tuple[Coords, ...]  # flattened bottom matrices
    identity: Coords  # coordinates of id in the basis
    mult_table: Tuple[Tuple[Coords, ...], ...]  # coords of basis[i] o basis[j]
    _symbolic: Dict[int, List[List[Coords]]]

    @property
    def field(self):
        return self.analysis.field

    def element_flat(self, coords: Coords) -> Coords:
        return combine(self.field.p, coords, self.basis)

    def matrix_at(self, coords: Coords, degree: int) -> List[List[int]]:
        """The element's concrete matrix on V_degree."""
        window = self.analysis.window
        if not K0 <= degree <= window:
            raise OutOfWindow(f"degree {degree} outside [{K0}, {window}]")
        return _eval_forms(self.field.p, self._symbolic[degree], self.element_flat(coords))

    def compose(self, e1: Coords, e2: Coords) -> Coords:
        """Coordinates of e1 o e2 (apply e2 first)."""
        p = self.field.p
        d = self.analysis.dim(K0)
        prod = _compose_flat(p, d, self.element_flat(e1), self.element_flat(e2))
        return _ring_coords(p, self.basis, prod)


def _eval_forms(p: int, sym: List[List[Coords]], flat: Coords) -> List[List[int]]:
    """A propagated matrix of linear forms evaluated at a flattened bottom matrix."""
    return [[sum(a * b for a, b in zip(form, flat)) % p for form in row] for row in sym]


def _mat_mul(p: int, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """The matrix product a . b over GF(p), one ``combine`` per row of a."""
    return [list(combine(p, row, b)) for row in a]


def _compose_flat(p: int, d: int, flat1: Sequence[int], flat2: Sequence[int]) -> Coords:
    """Flattened bottom matrix of e1 o e2; row vectors, so v . M2 . M1."""
    m1, m2 = ([f[r * d : (r + 1) * d] for r in range(d)] for f in (flat1, flat2))
    return tuple(x for row in _mat_mul(p, m2, m1) for x in row)


def _ring_coords(p: int, basis: Sequence[Coords], flat: Sequence[int]) -> Coords:
    """Coordinates of a flattened bottom matrix in the ring basis."""
    try:
        return tuple(solve(p, basis, flat))
    except ValueError:
        raise DimensionAnomaly("vector not in the span of the ring basis") from None


def compute_grend0(analysis: SubalgebraAnalysis) -> EndoRing:
    """The ring of graded degree-0 L-endomorphisms of L^3, solved exactly.

    The module spans degrees 3 .. analysis.window, and window >= 4
    (``subfield._Ambient``).  Every degree has a row: by the dimension
    lemma a non-degenerate L has dim L_i >= 1 throughout the window.
    """
    if analysis.d is None:
        raise DegenerateGenerators("endomorphism ring needs independent generators")
    kernel_rows, symbolic = _solve_graded_maps(analysis)
    dim = len(kernel_rows)
    d = analysis.dim(K0)
    p = analysis.field.p
    identity_flat = [int(r == c) for r in range(d) for c in range(d)]
    identity = _ring_coords(p, kernel_rows, identity_flat)
    table = [
        tuple(
            _ring_coords(p, kernel_rows, _compose_flat(p, d, ki, kj))
            for kj in kernel_rows
        )
        for ki in kernel_rows
    ]
    ring = EndoRing(
        analysis=analysis,
        dim=dim,
        basis=tuple(kernel_rows),
        identity=identity,
        mult_table=tuple(table),
        _symbolic=symbolic,
    )
    _crosscheck_composition(ring)
    return ring


def _crosscheck_composition(ring: EndoRing) -> None:
    """Recompute the table one degree up; guards against propagation bugs."""
    p = ring.field.p
    deg = K0 + 1
    for i in range(ring.dim):
        for j in range(ring.dim):
            mi = ring.matrix_at(_lf_unit(ring.dim, i), deg)
            mj = ring.matrix_at(_lf_unit(ring.dim, j), deg)
            direct = _mat_mul(p, mj, mi)
            via_table = ring.matrix_at(ring.mult_table[i][j], deg)
            if direct != via_table:
                raise DimensionAnomaly(
                    f"composition at degree {deg} disagrees with the bottom table"
                )


# -- field identification ------------------------------------------------------


@record
class FieldId:
    dim: int
    min_poly: Optional[Tuple[int, int, int]]  # (c0, c1, 1) for t^2 + c1 t + c0
    is_field: bool
    embedding: str  # "mu" | "mu_conj" | "n/a"
    generator: Optional[Coords]
    mu_hat: Optional[Coords]  # ring element acting as multiplication by mu
    sigma: Optional[EElem]  # scalar by which the generator acts on V_{k0}

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "min_poly": list(self.min_poly) if self.min_poly else None,
            "is_field": self.is_field,
            "embedding": self.embedding,
        }


def _scalar_of_action(ring: EndoRing, coords: Coords) -> EElem:
    """The extension scalar by which an element acts on V_{k0}.

    Well-defined whenever the element acts as an E-scalar there; verified
    against every basis row.
    """
    F = ring.field
    mat = ring.matrix_at(coords, K0)
    rows = ring.analysis.basis(K0)
    sigma = None
    for w, m_row in zip(rows, mat):
        img = combine(F.p, m_row, rows)
        cand = F.div((img[0], img[1]), (w[0], w[1]))
        if sigma is None:
            sigma = cand
        elif sigma != cand:
            raise DimensionAnomaly("element does not act as an extension scalar")
    return sigma


def identify_field(ring: EndoRing) -> FieldId:
    """Verify the ring is a (commutative) field and name its isomorphism type.

    Commutativity comes from the multiplication table.  Invertibility is
    Schur's lemma made testable without enumerating the ring: on every
    component in the window the identity must act as I, and the
    generator's matrix G must satisfy the generator's minimal polynomial,
    G^2 = m2*G + m1*I.  That polynomial is irreducible over GF(p), so G has
    no eigenvalue in GF(p) and a*I + b*G is invertible for every nonzero
    (a, b): no nonzero element is singular on any component.  A ring of
    dimension 2 with an irreducible quadratic minimal polynomial is the
    field GF(p^2).

    The generator acts on V_{k0} by an extension scalar sigma, which embeds
    the ring in the ambient extension.  So the root of the ambient quadratic
    t^2 - u t - v that acts as mu is mu_hat = a*1 + b*gen with
    a + b*sigma = mu (one solve over GF(p)), and its Galois conjugate is
    u*1 - mu_hat.  The Galois-conjugate ambiguity is resolved by which of
    the two roots comes first in lexicographic coordinate order, the root a
    scan of the ring would meet first: "mu" when mu_hat does, "mu_conj"
    when its conjugate does.
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
    degrees = range(K0, ring.analysis.window + 1)
    for degree in degrees:
        one = ring.matrix_at(ring.identity, degree)
        if one != [[int(r == c) for c in range(len(one))] for r in range(len(one))]:
            raise NotAField(f"the identity does not act as I on degree {degree}")
    if ring.dim == 1:
        return FieldId(
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
        if _mat_mul(p, G, G) != want:
            raise NotAField(
                f"generator misses t^2 + {c1}t + {c0} on degree {degree}"
            )
    # the root acting as mu, from the embedding gen -> sigma
    sigma = _scalar_of_action(ring, gen)
    a, b = solve(p, [F.one, sigma], F.mu)
    mu_hat = tuple((a * i + b * g) % p for i, g in zip(ring.identity, gen))
    conj = tuple((F.u * i - m) % p for m, i in zip(mu_hat, ring.identity))
    if ring.compose(mu_hat, mu_hat) != tuple(
        (F.u * m + F.v * i) % p for m, i in zip(mu_hat, ring.identity)
    ):
        raise DimensionAnomaly("mu_hat is not a root of the ambient quadratic")
    return FieldId(
        dim=2,
        min_poly=(c0, c1, 1),
        is_field=True,
        embedding="mu" if mu_hat < conj else "mu_conj",
        generator=gen,
        mu_hat=mu_hat,
        sigma=sigma,
    )
