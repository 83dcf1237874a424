"""Gridless full-space DOA estimation for STAR-RIS-assisted uplinks.

The experiment harness and CLI, ``starfri.experiments``, is not imported
here, so that ``python -m starfri.experiments`` runs it once, as __main__;
``from starfri import experiments`` imports it on demand.
"""

from . import baselines, bounds, fri_nonuniform, fri_uniform, star_ris_model, structured_linalg

__all__ = [
    "baselines", "bounds",
    "fri_nonuniform", "fri_uniform", "star_ris_model", "structured_linalg",
]
