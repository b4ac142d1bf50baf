"""Property tests: the Woodbury Cayley step and its adjoint over random sizes,
step lengths and scales of Phi and delta, and bit for bit against the same
arithmetic with every intermediate in a fresh array, for row-major and for
state-major columns; the factor-form
probability currents against the dense ones, and bit for bit against the two passes over
the factors that their one pass replaced; the stacked Hermitian check and dense currents
against one matrix at a time, and the stacked row norms against one row at a
time; the closed-form Hermitian lift against its explicit basis; the stacked
softmax-rank audits and numerical ranks against one model or matrix at a time;
bit-exact task and model file round trips, which reject a task that breaks
its physics and a model without a start state; the one fixed-transition
batch gradient bit for bit against the per-kind functions it replaced, whose Cayley
map and VJPs are written out as they were; and the
full model's forward pass, which checks its Gram matrices after the time loop,
bit for bit against a loop that checks each step before solving it, and the conjugate of its
phase table against the exp of the negated phases; the thin QR, the QR projection's VJP
and linalg_solve, which call np.linalg's gufuncs without its wrappers, bit for bit and error
for error against the np.linalg calls; and the rank bound's verdict against random and
briefly trained baselines. It also holds
the reference forms that no command runs and other test modules import: the
factor-form current, the per-channel currents and one generator-network call."""

import dataclasses
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from test_numerics import explicit_hermitian_basis, vec_by_basis

from cusm.currents import (
    CHUNK_STEPS,
    _half_current,
    continuous_current,
    factor_currents,
    midpoint_current,
    total_current,
)
from cusm.dynamics import (
    CHECK_CHUNK_STEPS,
    GRAM_COND_FAIL,
    GRAM_COND_WARN,
    CayleyStepReport,
    InteractionFactors,
    _cayley_step,
    _gram_conditions,
    _lowrank_solve,
    _solve,
    _step_residuals,
    _woodbury_system,
    cayley_step_dense,
    cayley_step_woodbury,
    cayley_map,
    evolve_fixed_batch,
    evolve_full_batch,
    linalg_solve,
)
from cusm.exceptions import (ConfigurationError, DegenerateInitializationError,
                             IllConditionedStepError, NonHermitianError)
from cusm.hamgen import (init_full_model, load_model, mlp_buffers, mlp_forward_cached, save_model,
                         split_factor_output)
from cusm.numerics import (check_hermitian, ginibre, initial_state, make_rng, numerical_rank,
                           row_norms, thin_qr_unique, vec_hermitian)
from cusm.readout import floored_log, project_measurement
from cusm.septask import (
    RosmParams,
    TaskInstance,
    load_task,
    make_task,
    random_rosm,
    rank_bound_verdict,
    save_task,
    softmax_rank_audits,
    target_table,
)
from cusm.train import (
    OptimizerConfig,
    TrainableCusm,
    _born_batch_vjp,
    _born_readout_vjp,
    _fixed_batch_grad,
    _normalize_vjp,
    _qr_projection_vjp,
    _softmax_batch_vjp,
    adam_cosine,
    adjoint_state_step,
    flatten_model,
    init_trainable_cusm,
    init_trainable_rosm,
    unflatten_model,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# reference forms that no command runs

def factor_current(phi, c):
    """The current J (..., N, N) of H = Phi Phi^dag + diag(delta) at amplitudes
    c (..., N), for any delta; exactly antisymmetric."""
    return 2.0 * _half_current(c.conj()[..., None] * phi)


def channel_currents(factors, psi):
    """Per-channel currents, one antisymmetric N x N matrix per column of Phi:
    factor_current of each column alone; their sum is the current of the
    materialized interaction Hamiltonian."""
    return factor_current(np.moveaxis(factors.phi, -1, 0)[..., None], psi)


def generate_interaction(mlp, embed_vec, state, r):
    """Run the generator network on (embedding, Re/Im of state) and assemble (Phi, delta)."""
    x = np.concatenate([embed_vec, state.real, state.imag])
    rows = mlp_buffers(mlp, (), x.size)[1:]
    mlp_forward_cached(mlp, x, rows)
    return InteractionFactors(*split_factor_output(rows[-1], state.shape[0], r))


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
    return np.linalg.cond(np.eye(factors.phi.shape[-1]) + c * (factors.phi.conj().T @ p))


@PROPERTY
@given(step_cases())
def test_woodbury_matches_dense(case):
    factors, psi, dt = case
    fast, report = cayley_step_woodbury(factors, psi, dt)
    dense = cayley_step_dense(factors.materialize(), psi, dt)
    assert np.abs(fast - dense).max() < 1e-10
    assert report.norm_change < 1e-12


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
    assert (report.gram_condition > GRAM_COND_WARN) == (exact > GRAM_COND_WARN)
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
    pulled, _ = adjoint_state_step(factors, dt, g,
                                   _woodbury_system(factors.phi, factors.delta, 0.5j * dt)[2:])
    assert np.abs(np.linalg.norm(pulled, axis=1) - np.linalg.norm(g, axis=1)).max() \
        < 1e-10 * np.linalg.norm(g, axis=1).max()
    stepped, _ = cayley_step_woodbury(factors, psi, dt)
    # <U^dag g, psi> = <g, U psi>, column by column
    lhs = np.einsum("kn,nk->k", pulled.conj(), psi)
    rhs = np.einsum("kn,nk->k", g.conj(), stepped)
    assert np.abs(lhs - rhs).max() < 1e-10 * np.linalg.norm(g, axis=1).max()


@PROPERTY
@given(hnp.arrays(np.float64, st.integers(1, 16),
                  elements=st.floats(-1e300, 1e300, allow_subnormal=True)),
       st.floats(1e-300, 4.0))
def test_conjugate_of_stored_inverse_diagonal_is_the_adjoints(delta, dt):
    # the adjoint solve uses conj of the forward step's 1/(1 + c delta); for real
    # delta (|c delta| finite) it equals the adjoint's own 1/(1 + conj(c) delta), bit
    # for bit but for the sign of an imaginary part that is zero (c delta = 0 or underflows)
    phi = np.zeros((delta.size, 1), dtype=complex)
    stored, fresh = (_woodbury_system(phi, delta, c)[2] for c in (0.5j * dt, -0.5j * dt))
    assert np.array_equal(np.conj(stored), fresh)
    nonzero = fresh.imag != 0
    assert np.conj(stored)[nonzero].tobytes() == fresh[nonzero].tobytes()


def fresh_temporary_step(phi, delta, psi, dt, pieces=None, state_major=False):
    """The Woodbury Cayley step of columns psi (..., N, k) and its report's column
    residuals and norm changes, each intermediate in a fresh array, through
    np.linalg.solve; with `pieces`, the adjoint solve A- s = psi of a step that filled
    them, and 2s - psi in place of the step. With `state_major`, the two (N, k) rank-r
    products are formed column-contiguous, as the transposed products (b^T a^T)^T."""
    product = transposed_product if state_major else np.matmul
    c = 0.5j * dt
    if pieces is None:
        inv_d = (1.0 / (1.0 + c * delta))[..., None]
    else:
        c, inv_d = -c, np.conj(pieces[0])[..., None]
    phi_h = phi.swapaxes(-1, -2).conj()
    y, p = psi * inv_d, phi * inv_d
    r = phi.shape[-1]
    if pieces is None:
        gram = phi_h @ p
        gram *= c
        gram.reshape(-1, r * r)[:, :: r + 1] += 1.0
    else:
        gram = pieces[1].conj().swapaxes(-1, -2)
    w = phi_h @ y / gram if r == 1 else np.linalg.solve(gram, phi_h @ y)
    y -= product(p, c * w)
    out = 2.0 * y - psi
    if pieces is not None:
        return out, y
    summed = out + psi
    applied = product(phi, c * (phi.swapaxes(-1, -2).conj() @ summed))
    resid = summed * (1.0 + c * delta)[..., None]
    resid += applied
    resid -= 2.0 * psi

    def norms(x):
        return np.sqrt(np.vecdot(x, x, axis=-2).real)

    return out, norms(resid), np.abs(norms(out) - norms(psi))


def transposed_product(a, b):
    """a @ b of stacks (..., N, r) and (..., r, k), column-contiguous in each matrix."""
    return (b.swapaxes(-1, -2) @ a.swapaxes(-1, -2)).swapaxes(-1, -2)


def state_major(x):
    """A copy of x (..., N, k) whose (N, k) matrices are column-contiguous."""
    return x.swapaxes(-1, -2).copy().swapaxes(-1, -2)


@st.composite
def step_stacks(draw):
    """(phi (S, B, N, r), delta (S, B, N), unit columns (S, B, N, k), dt), with dt and
    the scales of Phi and delta drawn by decade; the Gram bound stays below
    GRAM_COND_FAIL, so no step raises."""
    s, b, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 64))
    r, k = draw(st.integers(1, min(4, n))), draw(st.integers(1, 8))
    dt = 10.0 ** draw(st.integers(-3, 1)) * draw(st.floats(1.0, 10.0))
    rng = make_rng(draw(st.integers(0, 2 ** 31)))
    phi = ginibre(rng, s * b * n, r).reshape(s, b, n, r)
    phi *= 10.0 ** draw(st.integers(-2, 0)) * draw(st.floats(1.0, 3.0))
    delta = rng.standard_normal((s, b, n)) * 10.0 ** draw(st.integers(-2, 3))
    psi = ginibre(rng, s * b * n, k).reshape(s, b, n, k)
    return phi, delta, psi / np.linalg.norm(psi, axis=-2, keepdims=True), dt


def woodbury_batch_step():
    """A step_stacks case at perfbench's woodbury-batch shape, N = 512, r = 4, k = 32 and
    dt = 1: one step of unit columns under Phi of scale 1/sqrt(N) and a standard normal delta."""
    n, r, k, rng = 512, 4, 32, make_rng(0)
    phi = ginibre(rng, n, r).reshape(1, 1, n, r) / np.sqrt(n)
    psi = ginibre(rng, n, k).reshape(1, 1, n, k)
    return (phi, rng.standard_normal((1, 1, n)),
            psi / np.linalg.norm(psi, axis=-2, keepdims=True), 1.0)


@PROPERTY
@given(step_stacks())
def test_step_reports_and_adjoint_equal_fresh_temporaries_bit_for_bit(case):
    # the solve scales psi by 2 inv_d and returns 2z, from which the step subtracts psi in
    # place; the report forms half the residual, at c/2, and doubles its norms; the adjoint
    # builds 2s - g in one array; r >= 2 systems go to np.linalg.solve's gufunc. The oracle
    # forms z, 2z - psi and the whole residual unscaled, and none of it may move a bit.
    phi, delta, psi, dt = case
    s = phi.shape[0]
    factors = InteractionFactors(phi[0, 0], delta[0, 0])
    c = 0.5j * dt
    out, report = cayley_step_woodbury(factors, psi[0, 0], dt)
    want, resid, drift = fresh_temporary_step(phi[0, 0], delta[0, 0], psi[0, 0], dt)
    cond = _gram_conditions(phi[:1, 0], c, _woodbury_system(phi[0, 0], delta[0, 0], c)[3][None])[0]
    assert same_bits(out, want)
    assert report.gram_condition == cond
    assert (report.residual, report.norm_change) == (resid.max(), drift.max())
    assert all(type(value) is float for value in dataclasses.astuple(report))

    cols = psi[..., :1]  # stacked steps as evolve_full_batch takes them
    system = _woodbury_system(phi, delta, c)
    out = _cayley_step(system, cols, dt)
    want, resid, drift = fresh_temporary_step(phi, delta, cols, dt)
    assert same_bits(out, want)
    for got, worst in zip(_step_residuals(phi, delta, cols, out, dt, s), (resid, drift)):
        assert same_bits(got, worst.reshape(s, -1).max(axis=1))

    pieces = system[2:]
    g = psi[..., 0].conj()
    want, s_want = fresh_temporary_step(phi, delta, g[..., None], dt, pieces)
    pulled, solved = adjoint_state_step(InteractionFactors(phi, delta), dt, g, pieces)
    assert same_bits(pulled, want[..., 0])
    assert same_bits(solved, s_want[..., 0])
    # a fresh adjoint solve is the forward one at -dt
    fresh = 2.0 * _lowrank_solve(*_woodbury_system(phi, delta, -c), -c, g[..., None]) - g[..., None]
    assert same_bits(fresh, fresh_temporary_step(phi, delta, g[..., None], -dt)[0])


@PROPERTY
@given(step_stacks())
@example(woodbury_batch_step())
def test_state_major_steps_equal_fresh_temporaries_in_their_layout(case):
    # columns given state-major are solved and reported in that layout: the rank-r
    # products round as transposed products, so the states stay within a few ulps of
    # the row-major step of the same columns and come back state-major
    phi, delta, psi, dt = case
    s, c = phi.shape[0], 0.5j * dt
    factors, cols = InteractionFactors(phi[0, 0], delta[0, 0]), state_major(psi)
    out, report = cayley_step_woodbury(factors, cols[0, 0], dt)
    want, resid, drift = fresh_temporary_step(phi[0, 0], delta[0, 0], cols[0, 0], dt,
                                              state_major=True)
    assert out.flags.f_contiguous and same_bits(out, want)
    assert (report.residual, report.norm_change) == (resid.max(), drift.max())
    rows, _ = cayley_step_woodbury(factors, psi[0, 0], dt)
    assert np.abs(out - rows).max() <= 4 * np.finfo(float).eps * np.abs(psi[0, 0]).max()
    dense = cayley_step_dense(factors.materialize(), cols[0, 0], dt)
    assert np.abs(out - dense).max() < 1e-10

    out = _cayley_step(_woodbury_system(phi, delta, c), cols, dt)  # stacked steps
    want, resid, drift = fresh_temporary_step(phi, delta, cols, dt, state_major=True)
    assert same_bits(out, want)
    for got, worst in zip(_step_residuals(phi, delta, cols, out, dt, s), (resid, drift)):
        assert same_bits(got, worst.reshape(s, -1).max(axis=1))


@PROPERTY
@given(st.lists(st.integers(1, 4), min_size=0, max_size=2), st.integers(2, 5),
       st.integers(1, 8), st.integers(0, 2 ** 31))
def test_gufunc_solve_equals_numpy_solve_bit_for_bit(stack, r, k, seed):
    rng = make_rng(seed)
    shape = tuple(stack)
    gram = np.eye(r) + ginibre(rng, int(np.prod(shape)) * r, r).reshape(shape + (r, r))
    rhs = ginibre(rng, int(np.prod(shape)) * r, k).reshape(shape + (r, k))
    assert same_bits(_solve(gram, rhs, signature="DD->D"), np.linalg.solve(gram, rhs))


# ---------------------------------------------------------------------------
# np.linalg's gufuncs called without its wrappers, against the np.linalg calls they replace

def thin_qr_oracle(a):
    """thin_qr_unique as np.linalg.qr and the same phase normalisation."""
    q, r = np.linalg.qr(np.asarray(a, dtype=complex))
    d = np.diagonal(r).copy()
    phases = d / np.abs(d)
    return q * phases[None, :], phases.conj()[:, None] * r


def qr_projection_vjp_oracle(meas, r, g_meas):
    """_qr_projection_vjp as np.triu, np.diag and np.linalg.solve."""
    b = meas @ g_meas.conj().T
    upper = np.triu(b, 1)
    w = upper + upper.conj().T + np.diag(np.real(np.diag(b)))
    return np.linalg.solve(r, g_meas - w @ meas)


@st.composite
def tall_matrices(draw):
    """(rows, cols) with 16 >= rows >= cols, real or complex, scaled by a drawn decade;
    drawn transposed or not, as project_measurement passes raw^dag."""
    cols = draw(st.integers(1, 16))
    rows = draw(st.integers(cols, 16))
    rng = make_rng(draw(st.integers(0, 2 ** 31)))
    a = ginibre(rng, rows, cols) if draw(st.booleans()) else rng.standard_normal((rows, cols))
    a = a * 10.0 ** draw(st.integers(-3, 3))
    return np.ascontiguousarray(a.T).T if draw(st.booleans()) else a


@PROPERTY
@given(tall_matrices())
@example(np.array([[-0.0, 1.0], [2.0, complex(0.5, -0.0)], [1.0, -0.0]]))
# huge and tiny entries: the gufuncs, run without np.linalg.qr's error state, flag nothing
@example(np.array([[1.0, 2.0], [-3.0, 1.0], [0.5, 0.0]]) * 1e300)
@example(np.array([[1.0, 2.0], [-3.0, 1.0], [0.5, 0.0]]) * 1e-300)
def test_thin_qr_unique_equals_numpy_qr_bit_for_bit(a):
    for got, want in zip(thin_qr_unique(a), thin_qr_oracle(a), strict=True):
        assert same_bits(got, want)


@PROPERTY
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 2 ** 31), st.integers(-3, 3))
def test_qr_projection_vjp_equals_the_triu_diag_solve_formula(n, extra_v, seed, decade):
    rng = make_rng(seed)
    meas, r = project_measurement(ginibre(rng, n, n + extra_v))
    g_meas = ginibre(rng, n, n + extra_v) * 10.0 ** decade
    g_meas[:, rng.random(n + extra_v) < 0.2] = 0.0  # columns of zeros, signed zeros in b
    assert same_bits(_qr_projection_vjp(meas, r, g_meas),
                     qr_projection_vjp_oracle(meas, r, g_meas))


@st.composite
def solve_systems(draw):
    """Stacks a (..., d, d), b (..., d, k), each real or complex: finite, or with a
    zeroed column of a (singular), or with an inf or NaN entry in a or b."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    d, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2 ** 31)))
    a, b = (ginibre(rng, int(np.prod(shape)) * d, cols).reshape(shape + (d, cols))
            for cols in (d, k))
    a, b = (x if draw(st.booleans()) else x.real.copy() for x in (a, b))
    flaw = draw(st.sampled_from(["none", "singular", "inf", "nan"]))
    if flaw == "singular":
        a[..., draw(st.integers(0, d - 1))] = 0.0
    elif flaw != "none":
        target = a if draw(st.booleans()) else b
        target.reshape(-1)[draw(st.integers(0, target.size - 1))] = float(flaw)
    return a, b


@PROPERTY
@given(solve_systems())
@example((np.zeros((2, 2)), np.ones((2, 1))))
@example((np.array([[np.inf, 1.0], [1.0, 1.0]]), np.ones((2, 3), dtype=complex)))
def test_linalg_solve_equals_numpy_solve_and_raises_as_it_does(system):
    try:
        want = np.linalg.solve(*system)
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError) as got:
            linalg_solve(*system)
        assert str(got.value) == str(exc) == "Singular matrix"
    else:
        assert same_bits(linalg_solve(*system), want)


# ---------------------------------------------------------------------------
# probability currents in factor form

def factor_current_rows(phi, c):
    """Row sums J 1 (..., N) of factor_current, at O(N r), from X = c^* o Phi formed here."""
    x = c.conj()[..., None] * phi
    return 2.0 * np.imag(x @ x.sum(axis=-2).conj()[..., None])[..., 0]


def factor_total_current(phi, c):
    """total_current of each step of stacks phi (T, N, r), c (T, N), from J/2 formed
    CHUNK_STEPS steps at a time, each chunk from an X = c^* o Phi of its own."""
    totals = np.empty(phi.shape[0])
    for start in range(0, phi.shape[0], CHUNK_STEPS):
        chunk = slice(start, start + CHUNK_STEPS)
        half = _half_current(c[chunk].conj()[..., None] * phi[chunk])
        totals[chunk] = np.abs(half, out=half).sum(axis=(-2, -1))
    return totals


def current_stack(t, n, r, seed, decades=(0, 0, 0)):
    """(phi (T, N, r), delta (T, N), amplitudes (T, N)) from seed, scaled by 10^decades."""
    rng = make_rng(seed)
    phi = ginibre(rng, t * n, r).reshape(t, n, r) * 10.0 ** decades[0]
    delta = rng.standard_normal((t, n)) * 10.0 ** decades[1]
    return phi, delta, ginibre(rng, t, n) * 10.0 ** decades[2]


@st.composite
def current_stacks(draw):
    """current_stack of drawn sizes, seed and decades; T up to 40 spans several chunks
    of the total current."""
    t, n, r = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 31))
    decades = [draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), draw(st.integers(-3, 1))]
    return current_stack(t, n, r, seed, decades)


@PROPERTY
@given(current_stacks())
def test_factor_currents_match_dense(case):
    phi, delta, c = case
    currents, (rows, totals) = factor_current(phi, c), factor_currents(phi, c)
    for s in range(phi.shape[0]):
        dense = continuous_current(InteractionFactors(phi[s], delta[s]).materialize(), c[s])
        # the dense current's rounding scale: |c_j| |c_k| sum_a |Phi_ja| |Phi_ka|,
        # plus |delta_j| |c_j|^2 on the diagonal, where delta enters H
        a = np.abs(c[s])[:, None] * np.abs(phi[s])
        scale = a @ a.T + np.diag(np.abs(delta[s]) * np.abs(c[s]) ** 2)
        assert np.abs(currents[s] - dense).max() <= 1e-13 * scale.max()
        assert np.abs(rows[s] - dense.sum(axis=1)).max() <= 1e-13 * scale.sum(axis=1).max()
        assert abs(totals[s] - total_current(dense)) <= 1e-13 * np.triu(scale, k=1).sum()


@PROPERTY
@given(current_stacks())
@example(current_stack(0, 5, 2, 1))
@example(current_stack(1, 5, 2, 2))
@example(current_stack(CHUNK_STEPS - 1, 6, 3, 3, (2, 0, -1)))
@example(current_stack(CHUNK_STEPS, 6, 3, 4))
@example(current_stack(CHUNK_STEPS + 1, 7, 1, 5, (-3, 1, 1)))
@example(current_stack(2 * CHUNK_STEPS + 3, 2, 4, 6))  # r > N
def test_one_pass_over_the_factors_equals_a_pass_for_rows_and_one_for_totals(case):
    # factor_currents forms X once for the row sums and the chunked totals; the two
    # functions it replaced formed X each, the totals' chunk by chunk
    phi, _, c = case
    rows, totals = factor_currents(phi, c)
    assert same_bits(rows, factor_current_rows(phi, c))
    assert same_bits(totals, factor_total_current(phi, c))


@st.composite
def hamiltonian_stacks(draw):
    """(H (s, T, N, N) = Phi Phi^dag + diag(delta), amplitudes before and after
    (s, T, N)), scaled by drawn decades, with one entry of the last H pushed off
    Hermitian by a drawn fraction of its scale. Some draws are T = 120 steps at
    N = 12, past the 16,384 entries from which numpy reuses temporary arrays."""
    s, r = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    t, n = draw(st.sampled_from([(120, 12)]) | st.tuples(st.integers(1, 40), st.integers(1, 12)))
    rng = make_rng(draw(st.integers(0, 2 ** 31)))
    phi = ginibre(rng, s * t * n, r).reshape(s, t, n, r) * 10.0 ** draw(st.integers(-3, 3))
    h = phi @ phi.conj().swapaxes(-1, -2) + rng.standard_normal((s, t, n))[..., None] * np.eye(n)
    h[-1, -1, 0, -1] += draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6])) \
        * max(1.0, np.abs(h[-1, -1]).max())
    pre, post = (ginibre(rng, s * t, n).reshape(s, t, n) for _ in range(2))
    return h, pre, post


@PROPERTY
@given(hamiltonian_stacks())
def test_stacked_dense_currents_equal_each_matrix_bit_for_bit(case):
    h, pre, post = case
    slices = [(i, k) for i in range(h.shape[0]) for k in range(h.shape[1])]
    rejected = 0
    for i, k in slices:
        try:
            check_hermitian(h[i, k])
        except NonHermitianError:
            rejected += 1
    if rejected:
        with pytest.raises(NonHermitianError):
            check_hermitian(h)
        return
    assert np.array_equal(check_hermitian(h), h)
    dense, mid = continuous_current(h, pre), midpoint_current(h, pre, post)
    totals = total_current(mid)
    for i, k in slices:
        assert np.array_equal(dense[i, k], continuous_current(h[i, k], pre[i, k]))
        assert np.array_equal(mid[i, k], midpoint_current(h[i, k], pre[i, k], post[i, k]))
        assert totals[i, k] == total_current(mid[i, k])


# ---------------------------------------------------------------------------
# the Hermitian lift

@st.composite
def hermitian_stacks(draw):
    """A (s1, s2, N, N) stack of Hermitian matrices, scaled by a drawn decade."""
    shape = (draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    rng = make_rng(draw(st.integers(0, 2 ** 31)))
    z = ginibre(rng, int(np.prod(shape[:2])) * shape[2], shape[2]).reshape(*shape, shape[2])
    return 10.0 ** draw(st.integers(-8, 8)) * (z + z.conj().swapaxes(-1, -2))


@PROPERTY
@given(hermitian_stacks())
def test_vec_hermitian_matches_the_explicit_basis(stack):
    for a in stack.reshape(-1, *stack.shape[-2:]):
        scale = max(np.abs(a).max(), 1e-300)
        assert np.abs(vec_hermitian(a) - vec_by_basis(a)).max() <= 1e-15 * scale
        assert vec_hermitian(a).shape == (len(explicit_hermitian_basis(a.shape[0])),)


@PROPERTY
@given(hermitian_stacks(), st.integers(0, 2 ** 31))
def test_vec_hermitian_inner_product_is_the_trace(stack, seed):
    mats = stack.reshape(-1, *stack.shape[-2:])
    rng = make_rng(seed)
    for a in mats:
        z = ginibre(rng, a.shape[0], a.shape[0])
        b = z + z.conj().T
        inner = vec_hermitian(a) @ vec_hermitian(b)
        assert abs(inner - np.trace(a @ b).real) <= 1e-13 * np.abs(a).max() * np.abs(b).max()


@PROPERTY
@given(hermitian_stacks())
def test_stacked_vec_hermitian_equals_each_matrix_bit_for_bit(stack):
    out = vec_hermitian(stack)
    assert out.shape == (*stack.shape[:-2], stack.shape[-1] ** 2)
    for i in range(stack.shape[0]):
        for j in range(stack.shape[1]):
            assert out[i, j].tobytes() == vec_hermitian(stack[i, j]).tobytes()


# ---------------------------------------------------------------------------
# stacked softmax-rank audits and numerical ranks

# the audited tasks, made once: their sampling is not what these properties test
AUDIT_TASKS = {(n, filler): make_task(n, seed=n + 10 * filler, filler_length=filler)
               for n in (2, 3, 4) for filler in (0, 1, 3)}


def one_model_audit(rosm, task) -> int:
    """The rank of one baseline's log-probabilities, one sequence at a time."""
    finals = [evolve_fixed_batch(cayley_map(rosm.gens), initial_state(rosm.h0), row[None])[-1][0]
              for row in task.sequences()]
    logp = floored_log(rosm.readout(np.stack(finals)))
    return numerical_rank(logp, rel_tol=1e-8)


@PROPERTY
@given(st.sampled_from(sorted(AUDIT_TASKS)), st.lists(st.integers(1, 8), min_size=1, max_size=12),
       st.integers(0, 2 ** 31), st.integers(-1, 1))
def test_stacked_audits_equal_one_model_audits(key, dims, seed, decade):
    task = AUDIT_TASKS[key]
    rosms = [random_rosm(d, task, seed=seed + k) for k, d in enumerate(dims)]
    for rosm in rosms:  # the drawn decade scales each baseline's transitions and readout
        rosm.gens, rosm.out_weights, rosm.bias = (
            x * 10.0 ** decade for x in (rosm.gens, rosm.out_weights, rosm.bias))
    audits = softmax_rank_audits(rosms, task)
    assert len(audits) == len(rosms)
    for rosm, audit in zip(rosms, audits):
        rank = one_model_audit(rosm, task)
        assert audit == {"rank_Lbar": rank, "bound": rosm.dim + 2,
                         "satisfied": rank <= rosm.dim + 2}
        assert type(audit["rank_Lbar"]) is int


@PROPERTY
@given(st.sampled_from([key for key in sorted(AUDIT_TASKS) if key[0] <= 3]), st.data(),
       st.integers(0, 2 ** 31), st.sampled_from([0, 5, 30]))
def test_baselines_keep_the_eckart_young_floor_and_the_verdict_agrees_with_their_audits(
        key, data, seed, epochs):
    # a random baseline (epochs = 0) or one briefly trained as train_on_task trains it
    task = AUDIT_TASKS[key]
    d = data.draw(st.integers(1, task.n ** 2))
    table, tokens = target_table(task), task.sequences()
    rosm = init_trainable_rosm(d, task.v, 2 * task.n + 1, seed)

    def loss_grad(flat):
        loss, grads = _fixed_batch_grad(unflatten_model(flat, rosm), tokens, table.pstar,
                                        _softmax_batch_vjp)
        return loss, flatten_model(grads)

    if epochs:
        rosm = unflatten_model(adam_cosine(flatten_model(rosm), loss_grad,
                                           OptimizerConfig(lr=0.05, epochs=epochs))[0], rosm)
    verdict = rank_bound_verdict(table, d)
    floor = verdict["eckart_young_floor"]
    lbar = floored_log(rosm.readout(evolve_fixed_batch(
        cayley_map(rosm.gens), initial_state(rosm.h0), tokens)[-1]))
    assert np.linalg.norm(lbar - table.lstar) >= floor - 1e-9
    # the truncated SVD of L* at rank d + 2 attains the floor
    u, sigma, vt = np.linalg.svd(table.lstar)
    nearest = (u[:, :d + 2] * sigma[:d + 2]) @ vt[:d + 2]
    assert abs(np.linalg.norm(nearest - table.lstar) - floor) <= 1e-9 * max(1.0, floor)
    audit = softmax_rank_audits([rosm], task)[0]
    assert verdict["bound_forbids_exact"] is (audit["bound"] < verdict["rank_L"])
    if verdict["bound_forbids_exact"]:
        assert audit["rank_Lbar"] < verdict["rank_L"] and floor > 0.0


@st.composite
def matrix_stacks(draw):
    """A (K, M, N) stack of products of random factors of drawn inner ranks,
    zero matrices included, scaled by a drawn decade."""
    k, m, n = draw(st.integers(0, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = make_rng(draw(st.integers(0, 2 ** 31)))
    mats = []
    for _ in range(k):
        inner = draw(st.integers(0, min(m, n)))
        mats.append(rng.standard_normal((m, inner)) @ rng.standard_normal((inner, n)))
    return 10.0 ** draw(st.integers(-6, 6)) * np.array(mats).reshape(k, m, n)


@PROPERTY
@given(matrix_stacks())
def test_stacked_numerical_rank_equals_each_matrix(stack):
    ranks = numerical_rank(stack)
    assert ranks.shape == (stack.shape[0],) and ranks.dtype.kind == "i"
    singles = [numerical_rank(a) for a in stack]
    assert all(type(rank) is int for rank in singles)
    assert ranks.tolist() == singles
    assert numerical_rank(stack[None]).tolist() == [singles]


# ---------------------------------------------------------------------------
# bit-exact file round trips, over every finite float64 (subnormals and -0.0 too)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def float_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=FINITE)


def complex_arrays(shape):
    def combine(parts):
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = parts
        return z
    return st.tuples(float_arrays(shape), float_arrays(shape)).map(combine)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip(save, load, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.json")
        save(obj, path)
        return load(path)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 64), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.integers(-150, 150))
def test_initial_state_rounds_as_each_row_alone(k, n, complex_, seed, exponent):
    # the rows' norms as np.linalg.norm of one vector (complex) and sqrt(h0 . h0) (real)
    rng = make_rng(seed)
    vec = rng.standard_normal((k, n)) * 10.0 ** exponent
    if complex_:
        vec = vec + 1j * (rng.standard_normal((k, n)) * 10.0 ** exponent)
    for row, got in zip(vec, initial_state(vec)):
        want = row / (np.linalg.norm(row) if complex_ else np.sqrt(np.vecdot(row, row)))
        assert same_bits(got, want)


@PROPERTY
@given(st.integers(1, 300), st.integers(1, 128), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.integers(-150, 150))
def test_row_norms_round_as_each_row_alone(t, n, complex_, seed, exponent):
    rng = make_rng(seed)
    vec = rng.standard_normal((t, n)) * 10.0 ** exponent
    if complex_:
        vec = vec + 1j * (rng.standard_normal((t, n)) * 10.0 ** exponent)
    assert same_bits(row_norms(vec), [np.linalg.norm(row) for row in vec])


@st.composite
def tasks(draw):
    n = draw(st.integers(2, 3))
    v = n * n
    ints = st.integers(0, 2 ** 63)
    return TaskInstance(
        n=n, v=v,
        context_states=draw(complex_arrays((n, n))),
        query_unitaries=draw(complex_arrays((n, n, n))),
        measurement=draw(complex_arrays((n, v))),
        filler_length=draw(st.integers(0, 50)), seed=draw(ints),
        certificate_rank=draw(st.integers(0, v)), measurement_rank=draw(st.integers(0, v)),
    )


@st.composite
def made_tasks(draw):
    """A task of make_task, the reference witness among them, with arbitrary metadata."""
    n = draw(st.integers(2, 3))
    task = make_task(n, draw(st.integers(0, 2 ** 32 - 1)), reference=n == 2 and draw(st.booleans()))
    task.filler_length, task.seed = draw(st.integers(0, 50)), draw(st.integers(0, 2 ** 63))
    task.certificate_rank = draw(st.integers(0, task.v))
    task.measurement_rank = draw(st.integers(0, task.v))
    return task


def physics_miss(task) -> float:
    """The largest miss of unit context states, W^dag W = I and MM^dag = I."""
    c, w, m = task.context_states, task.query_unitaries, task.measurement
    with np.errstate(over="ignore", invalid="ignore"):
        misses = [np.abs(np.sqrt(np.sum(np.abs(c) ** 2, axis=1)) - 1.0),
                  np.abs(np.einsum("kij,kil->kjl", w.conj(), w) - np.eye(task.n)),
                  np.abs(np.einsum("ik,jk->ij", m, m.conj()) - np.eye(task.n))]
    return max(np.nan_to_num(x, nan=np.inf).max() for x in misses)


@PROPERTY
@given(st.one_of(tasks(), made_tasks()))
def test_task_file_round_trip_is_bit_exact(task):
    if not physics_miss(task) <= 1e-10:
        # a task that breaks its physics is no task: loading rejects it
        with pytest.raises(ConfigurationError,
                           match="field '(context_states|query_unitaries|measurement)': "):
            round_trip(save_task, load_task, task)
        return
    loaded = round_trip(save_task, load_task, task)
    for name in ("n", "v", "filler_length", "seed", "certificate_rank", "measurement_rank"):
        assert getattr(loaded, name) == getattr(task, name)
    for name in ("context_states", "query_unitaries", "measurement"):
        assert same_bits(getattr(loaded, name), getattr(task, name))


@st.composite
def models(draw):
    n = draw(st.integers(1, 3))
    model = init_full_model(
        n=n, r=draw(st.integers(1, 2)), d=draw(st.integers(1, 3)),
        v=draw(st.integers(n, n + 3)), v_in=draw(st.integers(1, 4)),
        dt=draw(st.floats(1e-6, 1e6)), seed=draw(st.integers(0, 2 ** 63)),
        hidden=draw(st.lists(st.integers(1, 4), max_size=2)),
    )
    arrays = [draw((complex_arrays if np.iscomplexobj(arr) else float_arrays)(arr.shape))
              for arr in model.arrays()]
    return model.with_arrays(arrays)


@PROPERTY
@given(models())
@example(dataclasses.replace(init_full_model(n=2, r=1, d=1, v=2, v_in=1),  # -0.0 parts
                             h0=np.array([complex(1.0, -0.0), complex(-0.0, -0.0)])))
def test_model_file_round_trip_is_bit_exact(model):
    try:
        with np.errstate(over="ignore"):
            initial_state(model.h0)
    except (DegenerateInitializationError, FloatingPointError):
        # a start vector of zero or non-finite norm is no model: loading rejects it
        with pytest.raises(ConfigurationError, match="fields 'init_a' and 'init_b'"):
            round_trip(save_model, load_model, model)
        return
    loaded = round_trip(save_model, load_model, model)
    assert (loaded.n, loaded.r, loaded.seed) == (model.n, model.r, model.seed)
    assert same_bits(loaded.dt, model.dt)
    assert len(loaded.arrays()) == len(model.arrays())
    for got, want in zip(loaded.arrays(), model.arrays()):
        assert same_bits(got, want)


# ---------------------------------------------------------------------------
# one batch gradient for both fixed-transition models, against the per-kind
# functions it replaced, with the Cayley map, the transition VJP and the generator
# VJP written out as they were before the epoch built each of their pieces once

def cayley_oracle(z):
    """W = (I + S)^{-1}(I - S) with S = Z - Z^dag, by np.linalg.solve."""
    s = z - z.conj().swapaxes(-1, -2)
    eye = np.eye(z.shape[-1])
    return np.linalg.solve(eye + s, eye - s)


def fixed_transition_vjp_oracle(transitions, states, tokens, g_final):
    """The initial state's and the token matrices' gradients, each step gathering
    and conjugate-transposing its (B, d, d) matrices and accumulating by np.add.at."""
    g = g_final
    g_w = np.zeros_like(transitions)
    for t in range(tokens.shape[1] - 1, -1, -1):
        np.add.at(g_w, tokens[:, t], g[:, :, None] * states[t].conj()[:, None, :])
        g = (transitions[tokens[:, t]].conj().swapaxes(-1, -2) @ g[..., None])[..., 0]
    return g.sum(axis=0), g_w


def cayley_generator_vjp_oracle(z, w, g_w):
    """g_Z from g_W, with S and I + S rebuilt from Z."""
    eye = np.eye(z.shape[-1])
    s = z - z.conj().swapaxes(-1, -2)
    lhs = np.linalg.solve((eye + s).conj().swapaxes(-1, -2), g_w)
    g_s = -lhs @ (eye + w).conj().swapaxes(-1, -2)
    return g_s - g_s.conj().swapaxes(-1, -2)


def cusm_batch_grad_oracle(params: TrainableCusm, tokens, targets):
    """The trainable unitary model's batch gradient as a function of its own."""
    psi0 = initial_state(params.h0)
    unitaries = cayley_oracle(params.gens)
    meas, r_meas = project_measurement(params.meas_raw)
    states = evolve_fixed_batch(unitaries, psi0, tokens)
    loss, g_psi, g_meas = _born_readout_vjp(meas, states[-1].T, targets.T)
    g_psi0, g_u = fixed_transition_vjp_oracle(unitaries, states, tokens, g_psi.T)
    scale = 1.0 / len(tokens)
    g_h0 = _normalize_vjp(params.h0, scale * g_psi0)
    g_gens = cayley_generator_vjp_oracle(params.gens, unitaries, scale * g_u)
    grads = TrainableCusm(h0=g_h0, gens=g_gens,
                          meas_raw=_qr_projection_vjp(meas, r_meas, scale * g_meas))
    return loss * scale, grads


def rosm_batch_grad_oracle(params: RosmParams, tokens, targets):
    """As cusm_batch_grad_oracle, for the real orthogonal baseline."""
    transitions = cayley_oracle(params.gens)
    states = evolve_fixed_batch(transitions, initial_state(params.h0), tokens)
    q = params.readout(states[-1])
    logs = floored_log(q)
    g_logits = q * targets.sum(axis=1, keepdims=True) - targets
    g_h0, g_q = fixed_transition_vjp_oracle(transitions, states, tokens,
                                            g_logits @ params.out_weights)
    scale = 1.0 / len(tokens)
    grads = RosmParams(
        h0=_normalize_vjp(params.h0, scale * g_h0),
        gens=cayley_generator_vjp_oracle(params.gens, transitions, scale * g_q),
        out_weights=scale * (g_logits.T @ states[-1]),
        bias=scale * g_logits.sum(axis=0),
    )
    return -float(np.vdot(targets, logs)) * scale, grads


FIXED_KINDS = {"cusm-trainable": (init_trainable_cusm, _born_batch_vjp, cusm_batch_grad_oracle),
               "rosm": (init_trainable_rosm, _softmax_batch_vjp, rosm_batch_grad_oracle)}


@PROPERTY
@given(st.sampled_from(sorted(FIXED_KINDS)), st.integers(1, 4), st.integers(0, 4),
       st.integers(1, 9), st.integers(1, 9), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@example("rosm", 1, 3, 5, 9, 3, 0)  # d = 1: g_logits @ out_weights is a rank-one product
@example("rosm", 3, 1, 4, 6, 1, 1)  # one step: the transition VJP's loop runs once
@example("cusm-trainable", 1, 2, 3, 5, 4, 2)  # d = 1: scalar unitaries, 1 x 1 solves
def test_fixed_batch_grad_equals_the_per_kind_oracles_bit_for_bit(kind, dim, extra_v, alphabet,
                                                                  batch, steps, seed):
    # the Born readout needs V >= N; tokens and unnormalised target rows come from the seed
    init, readout_vjp, oracle = FIXED_KINDS[kind]
    params = init(dim, dim + extra_v, alphabet, seed)
    rng = make_rng(seed)
    tokens = rng.integers(0, alphabet, (batch, steps))
    targets = rng.random((batch, dim + extra_v))
    loss, grads = _fixed_batch_grad(params, tokens, targets, readout_vjp)
    want_loss, want = oracle(params, tokens, targets)
    assert same_bits(loss, want_loss) and type(grads) is type(want)
    for got, expected in zip(grads.arrays(), want.arrays(), strict=True):
        assert same_bits(got, expected)


# ---------------------------------------------------------------------------
# the full model's forward pass, with every Gram check after its time loop,
# against the loop that checks each step between building and solving it

def checked_in_loop(model, tokens):
    """evolve_full_batch's results as a loop that checks each step's Gram matrices
    before it solves them and copies each fresh psi' into the trajectory: the states,
    phi, delta, 1/(1 + c delta), Gram matrices, layer rows and the checks, one report
    of (T,) arrays whose residuals are stacked over CHECK_CHUNK_STEPS steps after the loop."""
    mlp, n, r, dt, (batch, steps) = model.mlp, model.n, model.r, model.dt, tokens.shape
    c = 0.5j * dt
    widths = [model.d + 2 * n, *(w.shape[0] for w in mlp.weights)]
    acts = [np.empty((steps, batch, k)) for k in widths]
    acts[0][..., :model.d] = model.embed[tokens.T]
    raw = acts[-1][..., : 2 * n * r].view(complex).reshape(steps, batch, r, n).swapaxes(-1, -2)
    delta = acts[-1][..., 2 * n * r:]
    phases = np.exp(1j * np.outer(np.arange(steps) * dt, model.frequencies))[..., None]
    phi = np.empty((steps, batch, r, n), dtype=complex).swapaxes(-1, -2)
    inv_d, gram = np.empty((steps, batch, n), complex), np.empty((steps, batch, r, r), complex)
    states = np.empty((steps + 1, batch, n, 1), dtype=complex)
    states[0] = initial_state(model.h0)[:, None]
    conds = []
    for t in range(steps):
        psi = states[t, ..., 0]
        acts[0][t, :, -2 * n:-n], acts[0][t, :, -n:] = psi.real, psi.imag
        for layer, (weight, bias) in enumerate(zip(mlp.weights, mlp.biases)):
            np.matmul(acts[layer][t], weight.T, out=acts[layer + 1][t])
            acts[layer + 1][t] += bias
            if layer < len(mlp.weights) - 1:
                np.tanh(acts[layer + 1][t], out=acts[layer + 1][t])
        np.multiply(phases[t], raw[t], out=phi[t])
        d = np.divide(1.0, 1.0 + c * delta[t], out=inv_d[t])[..., None]
        phi_h = phi[t].swapaxes(-1, -2).conj()
        y, p = states[t] * d, phi[t] * d
        g = np.matmul(phi_h, p, out=gram[t])
        g *= c
        g.reshape(-1, r * r)[:, :: r + 1] += 1.0
        squares = np.vecdot(phi[t], phi[t], axis=-2).real.sum(-1)
        root = 1.0 + abs(c) * float(squares.max())
        cond = root * root
        if not cond <= GRAM_COND_WARN:  # each sequence's own bound below the switch, else its SVD
            bounds = [(1.0 + abs(c) * x) * (1.0 + abs(c) * x) for x in squares.tolist()]
            cond = max(bound if bound <= GRAM_COND_WARN else svd for bound, svd in
                       zip(bounds, np.linalg.cond(g).tolist())) if np.isfinite(g).all() else np.nan
        if not cond <= GRAM_COND_FAIL:
            reason = (f"condition {cond:.3e} exceeds {GRAM_COND_FAIL:.0e}"
                      if cond > GRAM_COND_FAIL else "has a non-finite entry")
            raise IllConditionedStepError(f"Gram matrix {reason}", step=t, report=CayleyStepReport(
                gram_condition=cond, residual=np.nan, norm_change=np.nan))
        w = phi_h @ y / g if r == 1 else _solve(g, phi_h @ y, signature="DD->D")
        y -= p @ (c * w)
        y *= 2.0
        states[t + 1] = np.subtract(y, states[t], out=y)
        conds.append(cond)
    residuals, norm_changes = [], []
    for start in range(0, steps, CHECK_CHUNK_STEPS):
        stop = min(start + CHECK_CHUNK_STEPS, steps)
        residual, norm_change = _step_residuals(phi[start:stop], delta[start:stop],
                                                states[start:stop], states[start + 1:stop + 1],
                                                dt, stop - start)
        residuals += residual.tolist()
        norm_changes += norm_change.tolist()
    checks = CayleyStepReport(np.array(conds), np.array(residuals), np.array(norm_changes))
    return states[..., 0], phi, delta, inv_d, gram, acts, checks


def report_bits(report) -> list:
    """The bytes of each field of a report, of floats or of arrays."""
    return [np.asarray(value, dtype=float).tobytes() for value in dataclasses.astuple(report)]


def blown_up_model(scale: float, twin: bool = False):
    """One affine layer; token 1 sets column 0 of Phi to `scale` (1 + i) on every row and token 0
    leaves Phi at zero, so a step on token 1 is ill-conditioned from scale 1e7, by its Gram
    condition 3e14, and has a non-finite Gram matrix from scale 1e155. A twin column 1 and
    delta = 1 make the Gram matrix of scale 1e9 singular in floating point: its solve warns."""
    model = init_full_model(n=3, r=2, d=1, v=4, v_in=2, seed=0, hidden=[])
    model.mlp.weights[0][:] = 0.0
    model.mlp.weights[0][: (4 if twin else 2) * model.n, 0] = scale
    model.mlp.biases[0][4 * model.n:] = 1.0 if twin else 0.0
    model.embed[:] = [[0.0], [1.0]]
    return model


def signed_zero_model():
    """Zero weights, and biases that set column 0 of Phi to 1 and column 1 to -1: each
    Gram matrix I + c Phi^dag Phi has -0.0 as the real part of its off-diagonal entries."""
    model = init_full_model(n=2, r=2, d=1, v=2, v_in=1, seed=0, hidden=[])
    model.mlp.weights[0][:] = 0.0
    model.mlp.biases[0][:] = 0.0
    model.mlp.biases[0][0:4:2], model.mlp.biases[0][4:8:2] = 1.0, -1.0
    return model


@st.composite
def full_model_runs(draw):
    """(model, tokens (B, T)) at n 1-6, r 1-4, B 1-3 and T up to 130, more than two
    CHECK_CHUNK_STEPS. The network's Phi outputs scaled by 10^0 to 10^10 put the Gram
    bounds from about 1 to past GRAM_COND_WARN, and fail some runs (r > n: a rank-
    deficient Phi^dag Phi) at a step of the SVD's choosing."""
    n, r, seed = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 32))
    model = init_full_model(n=n, r=r, d=2, v=n, v_in=3, dt=draw(st.floats(0.1, 2.0)), seed=seed,
                            hidden=draw(st.sampled_from([[], [5]])))
    model.mlp.weights[-1][: 2 * n * r] *= 10.0 ** draw(st.sampled_from([0, 3, 5, 8, 9, 10]))
    shape = draw(st.integers(1, 3)), draw(st.sampled_from([130, 65, 64, 2, 1, 0]))
    return model, make_rng(seed).integers(0, 3, shape)


def forward_or_failure(evolve, model, tokens):
    """evolve's results, or the step, message and report of its IllConditionedStepError."""
    try:
        return evolve(model, tokens)
    except IllConditionedStepError as exc:
        return exc.step, str(exc), report_bits(exc.report)


@PROPERTY
@given(full_model_runs())
@example((blown_up_model(1e7), np.array([[0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 0, 1]])))  # 2-5 fail
@example((signed_zero_model(), np.zeros((1, 3), dtype=int)))
def test_gram_check_after_the_loop_equals_the_check_in_it_bit_for_bit(run):
    got, want = (forward_or_failure(f, *run) for f in (evolve_full_batch, checked_in_loop))
    if isinstance(want[0], int):  # the first ill-conditioned step, as the loop check raised it
        assert got == want
        return
    states, factors, checks, acts, (inv_d, gram), _ = got
    *arrays, want_acts, want_checks = want
    for array, expected in zip((states, factors.phi, factors.delta, inv_d, gram, *acts),
                               (*arrays, *want_acts), strict=True):
        assert same_bits(array, expected)
    assert report_bits(checks) == report_bits(want_checks)


@PROPERTY
@given(st.floats(1e-3, 1e2), st.integers(1, 64), st.integers(0, 300), st.integers(-2, 2),
       st.integers(0, 2 ** 32))
@example(1e2, 64, 300, 2, 0)
def test_conjugate_phase_table_is_the_exp_of_the_negated_phases(dt, n, steps, decade, seed):
    # the readout undoes the interaction picture with the conjugate of the forward pass's
    # phases: the bytes of exp(-i lambda t dt) wherever the angle is not zero, as cos is even
    # and sin odd to the last bit. At angle +-0 both are 1 with a zero imaginary part whose
    # sign may differ: for a = [-0.0], np.exp(1j * a) is [1+0j], whose conjugate is [1-0j],
    # but np.exp(-1j * a) is [1+0j]; row 0 has that angle at every negative frequency
    model = init_full_model(n=n, r=1, d=1, v=n, v_in=1, dt=dt, seed=seed % 1000, hidden=[])
    model.mlp.weights[0][:], model.mlp.biases[0][:] = 0.0, 0.0  # H = 0: every step is I
    model.frequencies = make_rng(seed).standard_normal(n) * 10.0 ** decade
    got = evolve_full_batch(model, np.zeros((1, steps), dtype=int))[-1].conj()
    angles = np.outer(np.arange(steps + 1) * dt, model.frequencies)
    want, zero = np.exp(-1j * angles), angles == 0.0
    assert same_bits(np.where(zero, 1.0, got), np.where(zero, 1.0, want))
    assert (got[zero] == 1.0).all() and (want[zero] == 1.0).all() and zero[0].all()


@pytest.mark.parametrize("scale, twin", [(1e7, False), (1e160, False), (1e9, True)])
def test_first_ill_conditioned_step_fails_as_in_the_loop_check(scale, twin):
    # step 2 is the first ill-conditioned one of the batch: the same step, message, report
    # and warnings as a loop that stops at its check, so no solve of it or of a later step
    # warns; only a non-finite Gram matrix warns, as it is built and bounded
    tokens = np.array([[0, 0, 1, 0, 1], [0, 0, 0, 1, 0]])
    failures = []
    for evolve in (evolve_full_batch, checked_in_loop):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            failures.append((forward_or_failure(evolve, blown_up_model(scale, twin), tokens),
                             [(w.category, str(w.message)) for w in caught]))
    assert failures[0] == failures[1]
    assert failures[0][0][0] == 2
    assert bool(failures[0][1]) == (scale > 1e154)
