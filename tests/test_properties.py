"""Property tests of the Woodbury Cayley step and its adjoint over random sizes,
step lengths and scales of Phi and delta."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusm.dynamics import (
    GRAM_COND_FAIL,
    GRAM_COND_WARN,
    InteractionFactors,
    cayley_step_dense,
    cayley_step_woodbury,
)
from cusm.exceptions import IllConditionedStepError
from cusm.numerics import ginibre, make_rng
from cusm.train import adjoint_state_step

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def step_cases(draw, phi_exponents=(-2, 1)):
    """(factors, unit state columns (N, k), dt), drawn through a numpy seed;
    the scales of Phi and delta are drawn by decade."""
    n = draw(st.integers(2, 40))
    r = draw(st.integers(1, min(4, n)))
    k = draw(st.integers(1, 4))
    dt = draw(st.floats(0.01, 4.0))
    phi_scale = 10.0 ** draw(st.integers(*phi_exponents)) * draw(st.floats(1.0, 10.0))
    delta_scale = 10.0 ** draw(st.integers(-2, 3)) * draw(st.floats(1.0, 10.0))
    rng = make_rng(draw(st.integers(0, 2 ** 31)))
    factors = InteractionFactors(phi=phi_scale * ginibre(rng, n, r),
                                 delta=delta_scale * rng.standard_normal(n))
    psi = ginibre(rng, n, k)
    return factors, psi / np.linalg.norm(psi, axis=0), dt


def gram_svd_condition(factors, dt):
    """Condition of I + c Phi^dag diag(1 + c delta)^{-1} Phi, c = i dt/2, by SVD."""
    c = 0.5j * dt
    p = factors.phi / (1.0 + c * factors.delta)[:, None]
    return np.linalg.cond(np.eye(factors.rank) + c * (factors.phi.conj().T @ p))


@PROPERTY
@given(step_cases())
def test_woodbury_matches_dense(case):
    factors, psi, dt = case
    fast, report = cayley_step_woodbury(factors, psi, dt)
    dense = cayley_step_dense(factors.materialize(), psi, dt)
    assert np.abs(fast - dense).max() < 1e-10
    assert report.renorm_delta < 1e-12


@PROPERTY
@given(step_cases())
def test_residual_small(case):
    factors, psi, dt = case
    _, report = cayley_step_woodbury(factors, psi, dt)
    # ||A+|| <= 1 + dt (||Phi||_F^2 + max |delta|) / 2, and ||psi' + psi|| <= 2
    scale = 1.0 + 0.5 * dt * (np.linalg.norm(factors.phi) ** 2 + np.abs(factors.delta).max())
    assert report.residual < 1e-13 * scale


@PROPERTY
@given(step_cases(phi_exponents=(-2, 6)), st.integers(-14, 0))
def test_gram_condition_bounds_svd_and_decides_as_svd(case, tilt):
    factors, psi, dt = case
    # columns 1.. of Phi within 10^tilt of column 0 make the Gram matrix ill-conditioned
    factors.phi[:, 1:] = factors.phi[:, :1] + 10.0 ** tilt * factors.phi[:, 1:]
    exact = gram_svd_condition(factors, dt)
    bound = (1.0 + 0.5 * dt * np.linalg.norm(factors.phi) ** 2) ** 2
    try:
        _, report = cayley_step_woodbury(factors, psi, dt)
    except IllConditionedStepError as exc:
        assert exc.report.gram_condition > GRAM_COND_FAIL
        assert exc.report.gram_condition == pytest.approx(exact, rel=1e-3)
        return
    assert report.warning == (exact > GRAM_COND_WARN)
    if bound <= GRAM_COND_WARN:
        assert report.gram_condition == pytest.approx(bound, rel=1e-12)
        assert exact <= report.gram_condition * (1.0 + 1e-9)
    else:   # the SVD ran; the two SVDs differ by rounding times the condition
        assert report.gram_condition == pytest.approx(exact, rel=1e-3)


@PROPERTY
@given(step_cases())
def test_adjoint_step_is_the_conjugate_transpose(case):
    factors, psi, dt = case
    g = ginibre(make_rng(7), factors.dim, psi.shape[1]).T   # adjoint rows (k, N)
    pulled, _ = adjoint_state_step(factors, dt, g)
    assert np.abs(np.linalg.norm(pulled, axis=1) - np.linalg.norm(g, axis=1)).max() \
        < 1e-10 * np.linalg.norm(g, axis=1).max()
    stepped, _ = cayley_step_woodbury(factors, psi, dt)
    # <U^dag g, psi> = <g, U psi>, column by column
    lhs = np.einsum("kn,nk->k", pulled.conj(), psi)
    rhs = np.einsum("kn,nk->k", g.conj(), stepped)
    assert np.abs(lhs - rhs).max() < 1e-10 * np.linalg.norm(g, axis=1).max()
