"""Property tests: the Woodbury Cayley step and its adjoint over random sizes,
step lengths and scales of Phi and delta, and bit for bit against the same
arithmetic with every intermediate in a fresh array; the factor-form
probability currents against the dense ones, and the stacked Hermitian check and dense currents
against one matrix at a time, and the stacked row norms against one row at a
time; the closed-form Hermitian lift against its explicit basis; the stacked
softmax-rank audits and numerical ranks against one model or matrix at a time;
bit-exact task and model file round trips, which reject a task that breaks
its physics and a model without a start state; and the one fixed-transition
batch gradient bit for bit against the per-kind functions it replaced."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from test_numerics import explicit_hermitian_basis, vec_by_basis

from cusm.currents import (
    continuous_current,
    factor_current,
    factor_current_rows,
    factor_total_current,
    midpoint_current,
    total_current,
)
from cusm.dynamics import (
    GRAM_COND_FAIL,
    GRAM_COND_WARN,
    InteractionFactors,
    _cayley_step,
    _lowrank_solve,
    _solve,
    _step_reports,
    cayley_step_dense,
    cayley_step_woodbury,
    cayley_map,
    evolve_fixed_batch,
)
from cusm.exceptions import (ConfigurationError, DegenerateInitializationError,
                             IllConditionedStepError, NonHermitianError)
from cusm.hamgen import init_full_model, load_model, save_model
from cusm.numerics import (check_hermitian, ginibre, initial_state, make_rng, numerical_rank,
                           row_norms, vec_hermitian)
from cusm.readout import floored_log, project_measurement
from cusm.septask import (
    RosmParams,
    TaskInstance,
    load_task,
    make_task,
    random_rosm,
    save_task,
    softmax_rank_audits,
)
from cusm.train import (
    TrainableCusm,
    _born_readout_vjp,
    _cayley_generator_vjp,
    _fixed_batch_grad,
    _fixed_transition_vjp,
    _normalize_vjp,
    _qr_projection_vjp,
    adjoint_state_step,
    init_trainable_cusm,
    init_trainable_rosm,
)

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


@PROPERTY
@given(hnp.arrays(np.float64, st.integers(1, 16),
                  elements=st.floats(-1e300, 1e300, allow_subnormal=True)),
       st.floats(1e-300, 4.0))
def test_conjugate_of_stored_inverse_diagonal_is_the_adjoints(delta, dt):
    # the adjoint solve uses conj of the forward step's 1/(1 + c delta); for real
    # delta (|c delta| finite) it equals the adjoint's own 1/(1 + conj(c) delta), bit
    # for bit but for the sign of an imaginary part that is zero (c delta = 0 or underflows)
    phi, rhs = np.zeros((delta.size, 1), dtype=complex), np.ones((delta.size, 1), dtype=complex)
    stored, fresh = (np.empty(delta.shape, dtype=complex) for _ in range(2))
    for c, inv_d in ((0.5j * dt, stored), (-0.5j * dt, fresh)):
        _lowrank_solve(phi, delta, c, rhs, fill=(inv_d, np.empty((1, 1), dtype=complex)))
    assert np.array_equal(np.conj(stored), fresh)
    nonzero = fresh.imag != 0
    assert np.conj(stored)[nonzero].tobytes() == fresh[nonzero].tobytes()


def fresh_temporary_step(phi, delta, psi, dt, pieces=None):
    """The Woodbury Cayley step of columns psi (..., N, k) and its report's column
    residuals and norm changes, each intermediate in a fresh array, through
    np.linalg.solve; with `pieces`, the adjoint solve A- s = psi of a step that filled
    them, and 2s - psi in place of the step."""
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
    y -= p @ (c * w)
    out = 2.0 * y - psi
    if pieces is not None:
        return out, y
    resid = out + psi
    applied = phi @ (c * (phi.swapaxes(-1, -2).conj() @ resid))
    resid *= (1.0 + c * delta)[..., None]
    resid += applied
    resid -= 2.0 * psi

    def norms(x):
        return np.sqrt(np.vecdot(x, x, axis=-2).real)

    return out, norms(resid), np.abs(norms(out) - norms(psi))


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


@PROPERTY
@given(step_stacks())
def test_step_reports_and_adjoint_equal_fresh_temporaries_bit_for_bit(case):
    # the step forms 2z - psi in place on the solve's z, the report writes 2 psi into
    # its rank-r product and the adjoint builds 2s - g in one array; r >= 2 systems go
    # to np.linalg.solve's gufunc. None of it may move a bit.
    phi, delta, psi, dt = case
    s = phi.shape[0]
    factors = InteractionFactors(phi[0, 0], delta[0, 0])
    out, report = cayley_step_woodbury(factors, psi[0, 0], dt)
    want, resid, drift = fresh_temporary_step(phi[0, 0], delta[0, 0], psi[0, 0], dt)
    cond = _lowrank_solve(phi[0, 0], delta[0, 0], 0.5j * dt, psi[0, 0])[1]
    assert same_bits(out, want)
    assert (report.gram_condition, report.warning) == (cond, cond > GRAM_COND_WARN)
    assert (report.residual, report.norm_change) == (resid.max(), drift.max())

    cols = psi[..., :1]  # stacked steps as evolve_full_batch takes them
    out, conds = _cayley_step(phi, delta, cols, dt)
    want, resid, drift = fresh_temporary_step(phi, delta, cols, dt)
    assert same_bits(out, want)
    reports = _step_reports(phi, delta, cols, out, dt, [conds] * s)
    assert [(rep.residual, rep.norm_change) for rep in reports] == list(zip(
        resid.reshape(s, -1).max(axis=1).tolist(), drift.reshape(s, -1).max(axis=1).tolist()))

    pieces = np.empty(delta.shape, dtype=complex), np.empty(phi.shape[:-2] + (phi.shape[-1],) * 2,
                                                           dtype=complex)
    _lowrank_solve(phi, delta, 0.5j * dt, cols, fill=pieces)
    g = psi[..., 0].conj()
    for stored in (None, pieces):
        pulled, solved = adjoint_state_step(InteractionFactors(phi, delta), dt, g, stored)
        if stored is None:  # a fresh adjoint solve is the forward one at -dt
            want, s_want = fresh_temporary_step(phi, delta, g[..., None], -dt)[0], None
        else:
            want, s_want = fresh_temporary_step(phi, delta, g[..., None], dt, stored)
        assert same_bits(pulled, want[..., 0])
        assert s_want is None or same_bits(solved, s_want[..., 0])


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
# probability currents in factor form

@st.composite
def current_stacks(draw):
    """(phi (T, N, r), delta (T, N), amplitudes (T, N)), scaled by drawn
    decades; T up to 40 spans several chunks of the total current."""
    t, n, r = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2 ** 31)))
    phi = ginibre(rng, t * n, r).reshape(t, n, r) * 10.0 ** draw(st.integers(-3, 3))
    delta = rng.standard_normal((t, n)) * 10.0 ** draw(st.integers(-3, 3))
    c = ginibre(rng, t, n) * 10.0 ** draw(st.integers(-3, 1))
    return phi, delta, c


@PROPERTY
@given(current_stacks())
def test_factor_currents_match_dense(case):
    phi, delta, c = case
    currents, rows = factor_current(phi, c), factor_current_rows(phi, c)
    totals = factor_total_current(phi, c)
    for s in range(phi.shape[0]):
        dense = continuous_current(InteractionFactors(phi[s], delta[s]).materialize(), c[s])
        # the dense current's rounding scale: |c_j| |c_k| sum_a |Phi_ja| |Phi_ka|,
        # plus |delta_j| |c_j|^2 on the diagonal, where delta enters H
        a = np.abs(c[s])[:, None] * np.abs(phi[s])
        scale = a @ a.T + np.diag(np.abs(delta[s]) * np.abs(c[s]) ** 2)
        assert np.abs(currents[s] - dense).max() <= 1e-13 * scale.max()
        assert np.abs(rows[s] - dense.sum(axis=1)).max() <= 1e-13 * scale.sum(axis=1).max()
        assert abs(totals[s] - total_current(dense)) <= 1e-13 * np.triu(scale, k=1).sum()


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
    finals = [evolve_fixed_batch(rosm.transitions(), rosm.state0(), row[None])[-1][0]
              for row in task.sequences()]
    logp, _ = floored_log(rosm.readout(np.stack(finals)))
    return numerical_rank(logp, rel_tol=1e-8)


@PROPERTY
@given(st.sampled_from(sorted(AUDIT_TASKS)), st.lists(st.integers(1, 8), min_size=1, max_size=12),
       st.integers(0, 2 ** 31), st.integers(-1, 1))
def test_stacked_audits_equal_one_model_audits(key, dims, seed, decade):
    task = AUDIT_TASKS[key]
    rosms = [random_rosm(d, task, seed=seed + k, scale=10.0 ** decade)
             for k, d in enumerate(dims)]
    audits = softmax_rank_audits(rosms, task)
    assert len(audits) == len(rosms)
    for rosm, audit in zip(rosms, audits):
        rank = one_model_audit(rosm, task)
        assert audit == {"rank_Lbar": rank, "bound": rosm.dim + 2,
                         "satisfied": rank <= rosm.dim + 2}
        assert type(audit["rank_Lbar"]) is int


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
def test_model_file_round_trip_is_bit_exact(model):
    try:
        with np.errstate(over="ignore"):
            initial_state(model.a + 1j * model.b)
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
# functions it replaced

def cusm_batch_grad_oracle(params: TrainableCusm, tokens, targets):
    """The trainable unitary model's batch gradient as a function of its own."""
    psi0 = initial_state(params.a + 1j * params.b)
    unitaries = cayley_map(params.gens)
    meas, r_meas = project_measurement(params.meas_raw, with_r=True)
    states = evolve_fixed_batch(unitaries, psi0, tokens)
    loss, g_psi, g_meas = _born_readout_vjp(meas, states[-1].T, targets.T)
    g_psi0, g_u = _fixed_transition_vjp(unitaries, states, tokens, g_psi.T)
    scale = 1.0 / len(tokens)
    g_v = _normalize_vjp(params.a + 1j * params.b, scale * g_psi0)
    g_gens = _cayley_generator_vjp(params.gens, unitaries, scale * g_u)
    grads = TrainableCusm(a=g_v.real, b=g_v.imag, gens=g_gens,
                          meas_raw=_qr_projection_vjp(meas, r_meas, scale * g_meas))
    return loss * scale, grads


def rosm_batch_grad_oracle(params: RosmParams, tokens, targets):
    """As cusm_batch_grad_oracle, for the real orthogonal baseline."""
    transitions = params.transitions()
    states = evolve_fixed_batch(transitions, params.state0(), tokens)
    q = params.readout(states[-1])
    logs, _ = floored_log(q)
    g_logits = q * targets.sum(axis=1, keepdims=True) - targets
    g_h0, g_q = _fixed_transition_vjp(transitions, states, tokens, g_logits @ params.out_weights)
    scale = 1.0 / len(tokens)
    grads = RosmParams(
        h0=_normalize_vjp(params.h0, scale * g_h0),
        gens=_cayley_generator_vjp(params.gens, transitions, scale * g_q),
        out_weights=scale * (g_logits.T @ states[-1]),
        bias=scale * g_logits.sum(axis=0),
    )
    return -float(np.vdot(targets, logs)) * scale, grads


FIXED_KINDS = {"cusm-trainable": (init_trainable_cusm, cusm_batch_grad_oracle),
               "rosm": (init_trainable_rosm, rosm_batch_grad_oracle)}


@PROPERTY
@given(st.sampled_from(sorted(FIXED_KINDS)), st.integers(1, 4), st.integers(0, 4),
       st.integers(1, 9), st.integers(1, 9), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@example("rosm", 1, 3, 5, 9, 3, 0)  # d = 1: g_logits @ out_weights is a rank-one product
def test_fixed_batch_grad_equals_the_per_kind_oracles_bit_for_bit(kind, dim, extra_v, alphabet,
                                                                  batch, steps, seed):
    # the Born readout needs V >= N; tokens and unnormalised target rows come from the seed
    init, oracle = FIXED_KINDS[kind]
    params = init(dim, dim + extra_v, alphabet, seed)
    rng = make_rng(seed)
    tokens = rng.integers(0, alphabet, (batch, steps))
    targets = rng.random((batch, dim + extra_v))
    loss, grads = _fixed_batch_grad(params, tokens, targets)
    want_loss, want = oracle(params, tokens, targets)
    assert same_bits(loss, want_loss) and type(grads) is type(want)
    for got, expected in zip(grads.arrays(), want.arrays(), strict=True):
        assert same_bits(got, expected)
