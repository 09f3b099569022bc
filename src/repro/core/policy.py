"""The design order the microbenchmark figures sweep.

All eight paper designs, in the order its figures present them (the
canonical :mod:`repro.core.design` registry order).
"""

from __future__ import annotations

from .design import CANONICAL_DESIGNS

MICROBENCH_POLICIES = CANONICAL_DESIGNS
"""All eight designs, in the order the paper's figures present them."""
