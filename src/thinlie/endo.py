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
adjoint choice, all have C_2 = C_3.)

Closed form.  By the dimension lemma of ``subfield``, dim L_3 = 2 only
when L_3 = M_3, whose canonical basis is ((1, 0), (0, 1)), the rows v_3
and mu*v_3.  So m_mu, the matrix of mu on that basis in the row
convention, is [[0, 1], [v, u]] for every pair, and the report is a
function of p, u, v and dim L_3 alone; ``identify_field`` reads nothing
else and solves nothing.  v != 0, since
t^2 - u*t - v is irreducible.  The ring is the solution space of the 4
linear conditions "f commutes with m_mu" on the flattened 2x2 bottom
matrix f, and the canonical basis of that space (its reduced kernel: one
vector per free column, in column order) is

    e0 = (-u/v, 1/v, 1, 0) = (m_mu - u*I)/v,    e1 = (1, 0, 0, 1) = I,

so the identity has coordinates (0, 1), and the generator, the first
basis element outside F*id, is e0.  It acts on L_3 = E as multiplication
by sigma = (mu - u)/v, and mu^2 = u*mu + v gives
sigma^2 = (v - u*mu + u^2)/v^2 = 1/v - (u/v)*sigma: the minimal polynomial
is t^2 + (u/v)*t - 1/v, reported as (-1/v, u/v, 1).  The root of the
ambient quadratic acting as mu is mu_hat = u*id + v*e0 (u + v*sigma = mu),
with coordinates (v, u); its Galois conjugate u*id - mu_hat has
coordinates (-v, 0).  The embedding is "mu" when mu_hat comes first in
lexicographic coordinate order, the root a scan of the ring would meet
first: (v, u) < (p - v, 0) exactly when 2v < p, since 0 < v < p and u is
never below 0.  Otherwise it is "mu_conj".

The lemma also settles what a solve would have to check:

* the ring is the scalars or the commutant F[m_mu], so it is commutative
  and has dimension 1 or 2;
* mu_hat acts as mu on L_3, so it is a root of t^2 - u*t - v;
* a ring of dimension 2 is the field F[m_mu]: e0 lies outside F*id, its
  minimal polynomial is irreducible, it acts on L_3 = E as multiplication
  by a scalar, and on every L_i it is a conjugate of that multiplication,
  so Schur's lemma holds on every degree.
"""

from __future__ import annotations

from ._record import record
from .errors import DegenerateGenerators

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Tuple

    from .subfield import SubalgebraAnalysis


@record
class FieldId:
    """The End_0 report.

    ``is_field`` is always true: by the lemma the ring is F or the field
    F[m_mu].  The key is kept so that the report's schema and bytes stay
    as they were.
    """

    dim: int
    min_poly: Optional[Tuple[int, int, int]]  # (c0, c1, 1) for t^2 + c1 t + c0
    is_field: bool
    embedding: str  # "mu" | "mu_conj" | "n/a"

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "min_poly": list(self.min_poly) if self.min_poly else None,
            "is_field": self.is_field,
            "embedding": self.embedding,
        }


def identify_field(analysis: SubalgebraAnalysis) -> FieldId:
    """End_0(L^3) and its field, read off dim L_3 and (p, u, v) (the
    closed form in the module docstring)."""
    if analysis.d is None:
        raise DegenerateGenerators("endomorphism ring needs independent generators")
    if analysis.dim(3) == 1:
        return FieldId(dim=1, min_poly=None, is_field=True, embedding="n/a")
    F = analysis.field
    p, u, v = F.p, F.u, F.v
    inv_v = pow(v, p - 2, p)
    return FieldId(
        dim=2,
        min_poly=(-inv_v % p, u * inv_v % p, 1),
        is_field=True,
        embedding="mu" if 2 * v < p else "mu_conj",
    )
