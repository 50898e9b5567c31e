"""Graded degree-0 endomorphism rings of the module L^3, in closed form.

L = <X, Y> for E-independent X, Y in M_1, and L_i is an F-subspace of the
E-line M_i = E*v_i (``subfield``).  A graded degree-0 endomorphism of L^3
is a family of F-linear f_i on L_i, 3 <= i <= window, with
f_{i+1}([v, g]) = [f_i(v), g] for v in L_i and g = X, Y.  Write
[c*v_i, g] = c*phi_i(g)*v_{i+1}, with phi_i E-linear of kernel C_i, and
d_i = dim_F(C_i \\cap span_F{X, Y}).

Lemma.  End_0(L^3) is F*id (dim 1) when dim L_3 = 1, and E, the
multiplications on L_3 = M_3 (dim 2), when dim L_3 = 2.

Proof.  L_3 is not 0 (the dimension lemma of ``subfield``).  If dim L_3 = 1,
f_3 is a scalar c, and by induction f_{i+1}([v, g]) = c*[v, g] on a
spanning set of L_{i+1} = [L_i, X] + [L_i, Y], so f = c*id for every c.
If dim L_3 = 2, then L_3 = M_3.  For i >= 3, L_i = M_i gives
L_{i+1} = phi_i(X)*M_i + phi_i(Y)*M_i = M_{i+1}, because X and Y are not
both in C_i (span_F{X, Y} lies in no E-line).  So every L_i is M_i, read
as E through c <-> c*v_i.  Let a be whichever of phi_i(X), phi_i(Y) is
nonzero, say a = phi_i(X), and b = phi_i(Y).  The condition for X forces
f_{i+1}(w) = a*f_i(w/a), so f is fixed by f_3 and each f_i is f_3
conjugated by a multiplication.  The condition for Y then reads
f_i(rho_i*c) = rho_i*f_i(c) with rho_i = b/a, and, E being commutative, it
holds for f_i exactly when it holds for f_3.  If d_i = 1, then a and b are
F-dependent (the determinant lemma of ``subfield``), rho_i lies in F and
the condition is empty.  If d_i = 0, then rho_i lies outside F,
F[rho_i] = E, and the condition is "f_3 commutes with m_mu", the matrix of
mu on L_3.  Its char polynomial t^2 - u*t - v is irreducible, so its
commutant is F[m_mu], a copy of E, which commutes with every rho_i.  And
d_3 = 0 (with 3 < window, as window >= 4): L_3 is 2-dimensional only if
d_2 = 0, and C_3 = C_2, because the Jacobi identity on (v_2, x, y),
[[v_2, x], y] = [[v_2, y], x], gives a_2*b_3 = b_2*a_3, so the nonzero
adjoint pairs of degrees 2 and 3 are proportional and have one kernel;
d_i depends only on C_i and span_F{X, Y}, so d_3 = d_2.

So End_F(L_3), which would need d_i = 1 for every 3 <= i < window, never
occurs.  (The 720 valid GF(4) presentations of class 4 and 5, every
adjoint choice, all have C_2 = C_3.)  ``compute_grend0`` solves the 4
linear conditions "f commutes with m_mu" on the flattened bottom matrix
when dim L_3 = 2, and none when dim L_3 = 1, and takes the ring basis from
their kernel, the canonical basis of the solution space.  It reads nothing
above degree 3.  The lemma also proves the guards the per-degree solve
needed:

* [L_i, L_1] spans L_{i+1}, since L is generated in degree 1;
* the ring is a unital subalgebra of End_F(L_3) (the scalars or a
  commutant), so the identity and every composition have ring
  coordinates;
* the ring has dimension 1 or 2 and is commutative; ``identify_field``
  still checks the table, and a non-commuting one (as M_2(F)'s would be)
  raises ``NotCommutative``;
* a ring of dimension 2 is the field F[m_mu]: a basis element lies
  outside F*id, its minimal polynomial is irreducible, it acts on L_3 = E
  as multiplication by a scalar, and on every L_i it is a conjugate of
  that multiplication, so Schur's lemma holds on every degree.
"""

from __future__ import annotations

from ._record import record
from .errors import DegenerateGenerators, DimensionAnomaly, NotCommutative
from .gf import combine, solve, span
from .subfield import SubalgebraAnalysis

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import List, Optional, Sequence, Tuple

    from .gf import EElem

    Coords = Tuple[int, ...]

K0 = 3  # the module is L^{K0}; its bottom degree carries the unknowns


# -- the degree-0 ring --------------------------------------------------------


@record
class EndoRing:
    analysis: SubalgebraAnalysis
    dim: int
    basis: Tuple[Coords, ...]  # flattened bottom matrices
    identity: Coords  # coordinates of id in the basis
    mult_table: Tuple[Tuple[Coords, ...], ...]  # coords of basis[i] o basis[j]

    @property
    def field(self):
        return self.analysis.field

    def element_flat(self, coords: Coords) -> Coords:
        return combine(self.field.p, coords, self.basis)

    def compose(self, e1: Coords, e2: Coords) -> Coords:
        """Coordinates of e1 o e2 (apply e2 first)."""
        p = self.field.p
        d = self.analysis.dim(K0)
        prod = _compose_flat(p, d, self.element_flat(e1), self.element_flat(e2))
        return tuple(solve(p, self.basis, prod))


def _mat_mul(p: int, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """The matrix product a . b over GF(p), one ``combine`` per row of a."""
    return [list(combine(p, row, b)) for row in a]


def _compose_flat(p: int, d: int, flat1: Sequence[int], flat2: Sequence[int]) -> Coords:
    """Flattened bottom matrix of e1 o e2; row vectors, so v . M2 . M1."""
    m1, m2 = ([f[r * d : (r + 1) * d] for r in range(d)] for f in (flat1, flat2))
    return tuple(x for row in _mat_mul(p, m2, m1) for x in row)


def _commuting_forms(m: Sequence[Sequence[int]]) -> List[List[int]]:
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


def compute_grend0(analysis: SubalgebraAnalysis) -> EndoRing:
    """The ring of graded degree-0 L-endomorphisms of L^3, by the lemma above."""
    if analysis.d is None:
        raise DegenerateGenerators("endomorphism ring needs independent generators")
    F = analysis.field
    p = F.p
    d = analysis.dim(K0)
    constraints: List[List[int]] = []
    if d == 2:
        m_mu = [analysis.express(K0, F.mul(F.mu, w)) for w in analysis.basis(K0)]
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
    """The extension scalar by which an element of a 2-dimensional ring acts.

    The ring is F[m_mu] on L_3 = M_3 (the lemma above), so the element is
    multiplication by a scalar sigma there: sigma is the image of the first
    basis row w, read off the first row of the bottom matrix, divided by w.
    """
    F = ring.field
    rows = ring.analysis.basis(K0)
    img = combine(F.p, ring.element_flat(coords)[: len(rows)], rows)
    return F.div(img, rows[0])


def identify_field(ring: EndoRing) -> FieldId:
    """Verify the ring is a (commutative) field and name its isomorphism type.

    Commutativity comes from the multiplication table; by the lemma above
    that leaves dimension 1 (F) or 2 (the field F[m_mu], invertible on
    every degree).  In dimension 2 the canonical generator is the first
    basis element outside F*identity, and its minimal polynomial is read
    off g^2 = m1*1 + m2*g.

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
    return FieldId(
        dim=2,
        min_poly=((-m1) % p, (-m2) % p, 1),
        is_field=True,
        embedding="mu" if mu_hat < conj else "mu_conj",
        generator=gen,
        mu_hat=mu_hat,
        sigma=sigma,
    )
