"""Property tests: the Woodbury Cayley step and its adjoint over random sizes,
step lengths and scales of Phi and delta; the factor-form probability
currents against the dense ones; the closed-form Hermitian lift against its
explicit basis; the stacked softmax-rank audits and numerical ranks against
one model or matrix at a time; and bit-exact task and model file round
trips."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from test_numerics import explicit_hermitian_basis, vec_by_basis

from cusm.currents import (
    continuous_current,
    factor_current,
    factor_current_rows,
    factor_total_current,
    total_current,
)
from cusm.dynamics import (
    GRAM_COND_FAIL,
    GRAM_COND_WARN,
    InteractionFactors,
    cayley_step_dense,
    cayley_step_woodbury,
    evolve_fixed_batch,
)
from cusm.exceptions import IllConditionedStepError
from cusm.hamgen import init_full_model, load_model, save_model
from cusm.numerics import ginibre, make_rng, numerical_rank, vec_hermitian
from cusm.readout import floored_log
from cusm.septask import (
    TaskInstance,
    load_task,
    make_task,
    random_rosm,
    save_task,
    softmax_rank_audits,
)
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


@PROPERTY
@given(tasks())
def test_task_file_round_trip_is_bit_exact(task):
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
    loaded = round_trip(save_model, load_model, model)
    assert (loaded.n, loaded.r, loaded.seed) == (model.n, model.r, model.seed)
    assert same_bits(loaded.dt, model.dt)
    assert len(loaded.arrays()) == len(model.arrays())
    for got, want in zip(loaded.arrays(), model.arrays()):
        assert same_bits(got, want)
