"""Exact computation with graded Lie algebras of maximal class over GF(p^2)
and their GF(p)-subalgebras (thin, maximal class, or ideally r-constrained)."""

__version__ = "0.1.0"

from .gf import ExtField, make_ext_field  # noqa: F401
