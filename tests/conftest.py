"""Fixtures shared by the tests of the two PGD solvers and their callers."""

import numpy as np
import pytest

from starfri import fri_nonuniform, fri_uniform
from starfri import star_ris_model as sm
from starfri.refine import PgdConfig, pgd_step


def _step(solver):
    def step(batch, k):
        return pgd_step(solver.lifting(batch, PgdConfig(k_r=k, k_t=0))[0])
    return step


@pytest.fixture
def liftings():
    """{lifting: (step, dense)} for M1's stacked and M2's paired lifting.

    step(batch, k) runs the solver's set-up at order k and returns the step
    it picks (raising on an infeasible order); dense(batch) is the
    matrix that maps the solver's unknowns beta to y: Psi_u^T for the stacked
    lifting, Psi^T for the paired.
    """
    return {"stacked": (_step(fri_uniform),
                        lambda batch: fri_uniform.uniform_assumption_operator(batch).T),
            "paired": (_step(fri_nonuniform), lambda batch: batch.operator_paired.T)}


@pytest.fixture
def operator_batch():
    """operator_batch(psi): a one-scenario batch around a given 2n x t_s Psi,
    with g = 1 in every slot."""
    def make(psi):
        t_s = psi.shape[1]
        return sm.MeasurementBatch(y=np.ones(t_s, complex), sigma_n2=0.0, operator_paired=psi,
                                   g=np.ones(t_s, complex), scenario=sm.UNIFORM)
    return make


@pytest.fixture
def by_subspace():
    """by_subspace(result): the RS angles and the TS angles of a
    RecoveryResult, each sorted."""
    def split(result):
        return tuple(np.sort([a for a, lab in result.angles if lab == side])
                     for side in ('RS', 'TS'))
    return split
