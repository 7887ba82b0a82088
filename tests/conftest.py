"""Shared fixtures: the paper-scale deterministic instance is built once per session.

It holds P as the matrix-free KernelOperator only. Tests read the top of
its spectrum with numeric.eig_top and its row sums with matmat, so no
n x n array of the n = 10^4 instance is ever built.
"""
import pytest

from msmlab.model import KernelOperator, ModelParams, gen_fitness


@pytest.fixture(scope="session")
def det_instance_n1e4():
    """(params, fitness, KernelOperator of P) for the n = 10^4, alpha = 0.5 deterministic model."""
    params = ModelParams(n=10**4, alpha=0.5)
    fv = gen_fitness(params)
    return params, fv, KernelOperator(fv, params.epsilon_n)
