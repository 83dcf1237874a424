"""Gridless full-space DOA estimation for STAR-RIS-assisted uplinks.

The experiment harness and CLI, ``starfri.experiments``, is not imported
here, so that ``python -m starfri.experiments`` runs it once, as __main__;
``from starfri import experiments`` imports it on demand.

Importing the package loads numpy alone: scipy loads at the first gridless
solve (``structured_linalg.load_scipy``), and then only top-level scipy and
its compiled LAPACK and MINPACK modules, not scipy.linalg or scipy.optimize.
"""

from . import baselines, bounds, fri_nonuniform, fri_uniform, star_ris_model, structured_linalg

__all__ = [
    "baselines", "bounds",
    "fri_nonuniform", "fri_uniform", "star_ris_model", "structured_linalg",
]
