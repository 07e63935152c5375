"""Exact monomial expansion of circulant determinants."""

from .coeff_engine import coefficient, coefficient_with_path, reduce_representative
from .expansion import evaluate, expand

__all__ = [
    "coefficient",
    "coefficient_with_path",
    "evaluate",
    "expand",
    "reduce_representative",
]
