import pytest

import nlhomog as nl
from nlhomog import _accel
from nlhomog.cell import build_cell_matrix, solve_brute_force


@pytest.fixture(scope="session", autouse=True)
def warm_jit():
    # run every hot path once so runtime assertions measure the algorithms,
    # not first-call latency (imports, numpy and BLAS initialisation)
    k = nl.make_lambda_kernel(1.0, 2.0, 0.5)
    u = nl.oscillating_profile(-0.5, nl.optimal_profile(0.5), 0.25)
    pot = nl.TripleWellPotential()
    nl.evaluate(u, pot, k, 0.25)
    nl.evaluate_quadrature(u, pot, k, 0.25, n=16)
    solve_brute_force(build_cell_matrix(k, 8), 3)
    yield


@pytest.fixture(autouse=True)
def empty_search_memo():
    # no result or runtime budget depends on which test searched a grid first
    _accel._memo.clear()
