"""Fixtures shared by the tests of the two PGD solvers."""

import numpy as np
import pytest

from starfri import fri_nonuniform, fri_uniform
from starfri import star_ris_model as sm


def _block_diagonal(rows):
    t_s, n = rows.shape
    full = np.zeros((t_s, t_s * n), complex)
    for t in range(t_s):
        full[t, n * t:n * (t + 1)] = rows[t]
    return full


def _stacked_step(batch, k, alpha=None):
    return fri_uniform._resolve(batch, fri_uniform.PgdConfig(k=k, alpha=alpha))[-1]


def _paired_step(batch, k, alpha=None):
    config = fri_nonuniform.PairedPgdConfig(k_r=k, k_t=0, alpha=alpha)
    return fri_nonuniform._resolve(batch, config)[-1]


@pytest.fixture
def liftings():
    """{lifting: (step, dense)} for M1's stacked and M2's paired lifting.

    step(batch, k, alpha=None) runs the solver's set-up at order k and returns
    the step it picks when mu is unset (raising on an infeasible order);
    dense(batch) is the matrix that maps the solver's unknowns to y: block
    diagonal over the slot rows for the stacked lifting, Psi^T for the paired.
    """
    return {"stacked": (_stacked_step, lambda batch: _block_diagonal(batch.operator_uniform)),
            "paired": (_paired_step, lambda batch: batch.operator_paired.T)}


@pytest.fixture
def operator_batch():
    """operator_batch(psi): a one-scenario batch around a given 2n x t_s Psi."""
    def make(psi):
        t_s = psi.shape[1]
        return sm.MeasurementBatch(y=np.ones(t_s, complex), sigma_n2=0.0, operator_paired=psi,
                                   g=np.ones(t_s, complex), scenario=sm.UNIFORM)
    return make
