import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from test_properties import (PROPERTY, blown_up_model, full_model_runs, generate_interaction,
                             same_bits)

from cusm import dynamics
from cusm.dynamics import (
    InteractionFactors,
    check_hermitian,
    cayley_step_dense,
    cayley_map,
    cayley_step_woodbury,
    evolve_fixed_batch,
    evolve_fixed_unitaries,
    evolve_full_batch,
    evolve_full_model,
    interaction_picture_factors,
    inverse_cayley,
)
from cusm.exceptions import IllConditionedStepError, NonHermitianError, VocabularyError
from cusm.hamgen import init_full_model
from cusm.numerics import ginibre, initial_state, make_rng, sample_haar_unitary
from cusm.septask import n2_reference_config


def random_state(rng, n):
    psi = ginibre(rng, n, 1)[:, 0]
    return psi / np.linalg.norm(psi)


def random_factors(rng, n, r):
    return InteractionFactors(phi=ginibre(rng, n, r), delta=rng.standard_normal(n))


def straddling_model():
    """blown_up_model(100.0) with a third token at half its scale: a step on token 1 has
    the Gram bound 9.0e8 and SVD condition 3.0e4, one on token 2 the bound 5.6e7."""
    model = blown_up_model(100.0)
    model.embed = np.array([[0.0], [1.0], [0.5]])
    return model


def schrodinger_state(psi_ip, frequencies, t, dt):
    """Undo the interaction picture: psi(t) = exp(-i H0 t) psi_I(t)."""
    return np.exp(-1j * np.asarray(frequencies) * (t * dt)) * psi_ip


class TestInteractionPicture:
    def test_zero_frequencies(self):
        rng = make_rng(0)
        f = random_factors(rng, 4, 2)
        out = interaction_picture_factors(f, np.zeros(4), t=5, dt=1.0)
        assert np.array_equal(out.phi, f.phi)
        assert np.array_equal(out.delta, f.delta)

    def test_time_zero(self):
        rng = make_rng(1)
        f = random_factors(rng, 4, 2)
        out = interaction_picture_factors(f, np.linspace(-1, 1, 4), t=0, dt=1.0)
        assert np.abs(out.phi - f.phi).max() < 1e-15

    def test_pi_phase(self):
        f = InteractionFactors(phi=np.array([[1.0], [1.0]], dtype=complex),
                               delta=np.zeros(2))
        out = interaction_picture_factors(f, np.array([np.pi, 0.0]), t=1, dt=1.0)
        assert np.abs(out.phi - np.array([[-1.0], [1.0]])).max() < 1e-12


class TestMaterialize:
    @pytest.mark.parametrize("shape", [(4, 4, 4), (3, 4, 2)])
    def test_stack_equals_each_slice(self, shape):
        # r = N and r != N: each H of a stack is its slice's H, to the bit
        rng = make_rng(5)
        phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        delta = rng.standard_normal(shape[:2])
        h = InteractionFactors(phi, delta).materialize()
        assert h.shape == (*shape[:2], shape[1])
        for k in range(shape[0]):
            assert np.array_equal(h[k], InteractionFactors(phi[k], delta[k]).materialize())


class TestCayleyStepDense:
    def test_zero_hamiltonian(self):
        rng = make_rng(2)
        psi = random_state(rng, 5)
        assert np.abs(cayley_step_dense(np.zeros((5, 5)), psi, 1.0) - psi).max() < 1e-15

    def test_diagonal_scalar_formula(self):
        h = np.diag([0.7, -1.3, 2.0]).astype(complex)
        dt = 0.5
        for j in range(3):
            psi = np.zeros(3, dtype=complex)
            psi[j] = 1.0
            out = cayley_step_dense(h, psi, dt)
            expected = (1 - 0.5j * dt * h[j, j]) / (1 + 0.5j * dt * h[j, j])
            assert abs(out[j] - expected) < 1e-14
            assert abs(abs(out[j]) - 1.0) < 1e-14

    def test_norm_preserved(self):
        rng = make_rng(3)
        z = ginibre(rng, 8, 8)
        h = z + z.conj().T
        psi = random_state(rng, 8)
        out = cayley_step_dense(h, psi, 1.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-13

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            cayley_step_dense(np.array([[0, 1], [0, 0]], dtype=complex),
                              np.array([1.0, 0.0], dtype=complex), 1.0)

    def test_large_factor_products_are_hermitian(self):
        # Phi Phi^dag rounds off Hermitian by up to ~1e-9 at |Phi| ~ 1e3; the
        # check scales its tolerance with max|H|
        rng = make_rng(9)
        for n in range(2, 13):
            for r in range(2, 5):
                for _ in range(5):
                    f = InteractionFactors(1e3 * ginibre(rng, n, r), rng.standard_normal(n))
                    check_hermitian(f.materialize())

    def test_relative_deviation_rejected_at_scale(self):
        rng = make_rng(10)
        z = ginibre(rng, 5, 5)
        h = 1e6 * (z + z.conj().T)
        h[0, 1] += 1e-2   # 1e-8 of max|H|, above the 1e-10 relative tolerance
        with pytest.raises(NonHermitianError):
            check_hermitian(h)

    def test_commuting_factor_identity(self):
        rng = make_rng(4)
        z = ginibre(rng, 6, 6)
        h = z + z.conj().T
        k = 0.5j * 1.0 * h
        eye = np.eye(6)
        lhs = (eye + k) @ (eye - k)
        rhs = (eye - k) @ (eye + k)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestCayleyStepWoodbury:
    def test_zero_factors(self):
        rng = make_rng(5)
        psi = random_state(rng, 6)
        f = InteractionFactors(phi=np.zeros((6, 1), dtype=complex), delta=np.zeros(6))
        out, report = cayley_step_woodbury(f, psi, 1.0)
        assert np.abs(out - psi).max() < 1e-15
        assert report.residual < 1e-15

    def test_matches_dense(self):
        rng = make_rng(3)
        f = random_factors(rng, 64, 4)
        psi = random_state(rng, 64)
        out, _ = cayley_step_woodbury(f, psi, 1.0)
        ref = cayley_step_dense(f.materialize(), psi, 1.0)
        assert np.abs(out - ref).max() < 1e-10

    def test_unitarity(self):
        rng = make_rng(6)
        f = random_factors(rng, 16, 3)
        psi = random_state(rng, 16)
        out, report = cayley_step_woodbury(f, psi, 1.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert report.gram_condition >= 1.0
        assert report.residual < 1e-9

    def test_equivalence_sweep(self):
        # 200 random cases across sizes, ranks, and step sizes
        rng = make_rng(7)
        worst = 0.0
        for case in range(200):
            n = int(rng.integers(2, 65))
            r = int(rng.integers(1, 9))
            dt = [0.1, 1.0, 4.0][case % 3]
            f = random_factors(rng, n, r)
            psi = random_state(rng, n)
            out, _ = cayley_step_woodbury(f, psi, dt)
            ref = cayley_step_dense(f.materialize(), psi, dt)
            worst = max(worst, float(np.abs(out - ref).max()))
        assert worst < 1e-10

    @pytest.mark.parametrize("dt", [1e160, 1e300])
    def test_overflowing_bound_leaves_the_svd_to_decide(self, dt):
        # (1 + dt ||Phi||^2 / 2)^2 overflows a float; the step runs on the SVD condition
        rng = make_rng(11)
        f = random_factors(rng, 6, 2)
        psi = random_state(rng, 6)
        out, report = cayley_step_woodbury(f, psi, dt)
        assert np.isfinite(report.gram_condition) and report.gram_condition < 1e8
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_step_is_ill_conditioned(self):
        rng = make_rng(12)
        with pytest.raises(IllConditionedStepError, match="non-finite") as info:
            cayley_step_woodbury(random_factors(rng, 6, 2), random_state(rng, 6), np.inf)
        assert np.isnan(info.value.report.gram_condition)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_bound_reports_its_step(self):
        model = init_full_model(n=3, r=1, d=2, v=4, v_in=2, seed=0)
        model.dt = np.inf   # the phases at t * dt = 0 * inf are NaN, so is the bound
        with pytest.raises(IllConditionedStepError) as info:
            evolve_full_model(model, [0, 1])
        assert info.value.step == 0

    @pytest.mark.parametrize("order", ["C", "F"], ids=["row-major", "state-major"])
    def test_step_makes_no_avoidable_temporary(self, order):
        # at N = 512, r = 4, k = 32 a step peaks at 3.54 arrays of N k complex: the new
        # state, the report's residual and its rank-r product, and the 128 KiB buffer
        # numpy takes to scale the residual by a broadcast column. A step that formed
        # 2z - psi and the report's 2 psi in fresh arrays peaked at 4.00, and so does a
        # state-major step whose rank-r products come back row-major; 3.6 leaves
        # 15 KB for Python objects that a tracer running the suite may allocate
        n, r, k = 512, 4, 32
        rng = make_rng(13)
        f = InteractionFactors(phi=ginibre(rng, n, r) / np.sqrt(n), delta=rng.standard_normal(n))
        psi = np.array(ginibre(rng, n, k), order=order)
        psi /= np.linalg.norm(psi, axis=0)
        cayley_step_woodbury(f, psi, 1.0)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cayley_step_woodbury(f, psi, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 3.6 * n * k * 16

    def test_singular_gram_never_reaches_the_unchecked_solve(self, monkeypatch):
        # the r >= 2 solve calls np.linalg.solve's gufunc, which returns NaN for a
        # singular system where np.linalg.solve raises; a Gram matrix that near
        # singular fails the condition check first
        singular = np.zeros((2, 2), dtype=complex), np.ones((2, 1), dtype=complex)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert np.isnan(dynamics._solve(*singular, signature="DD->D")).all()
        calls = []
        monkeypatch.setattr(dynamics, "_solve", lambda *a, **k: calls.append(a))
        rng = make_rng(14)
        column = 1e10 * ginibre(rng, 6, 1)
        f = InteractionFactors(phi=np.hstack([column, column]), delta=np.zeros(6))
        with pytest.raises(IllConditionedStepError, match="condition") as info:
            cayley_step_woodbury(f, random_state(rng, 6), 1.0)
        assert info.value.report.gram_condition > dynamics.GRAM_COND_FAIL
        assert calls == []

    def test_batch_comes_back_state_major_with_its_elements_in_place(self):
        # a (N, 2, 3) batch is stepped as the row-major columns (N, 6) of its reshape and
        # given back in its own shape; a reshape in the array's own order would move them
        rng = make_rng(15)
        f = random_factors(rng, 10, 2)
        psi = ginibre(rng, 10, 6)
        psi /= np.linalg.norm(psi, axis=0)
        for cols in (psi, np.asfortranarray(psi)):
            assert cayley_step_woodbury(f, cols, 1.0)[0].flags.f_contiguous
        assert cayley_step_woodbury(f, psi[:, 0], 1.0)[0].shape == (10,)
        flat, _ = cayley_step_woodbury(f, psi, 1.0)
        out, _ = cayley_step_woodbury(f, psi.reshape(10, 2, 3), 1.0)
        assert out.shape == (10, 2, 3)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[:, i, j], flat[:, 3 * i + j])

    def test_batch_matches_loop(self):
        rng = make_rng(8)
        f = random_factors(rng, 12, 2)
        batch = ginibre(rng, 12, 5)
        batch /= np.linalg.norm(batch, axis=0)
        out, _ = cayley_step_woodbury(f, batch, 1.0)
        for col in range(5):
            single, _ = cayley_step_woodbury(f, batch[:, col], 1.0)
            assert np.abs(out[:, col] - single).max() < 1e-14


class TestInteractionPictureConsistency:
    def _picture_gap(self, dt, steps):
        # Schrodinger evolution under H0 + H_int vs interaction-picture
        # evolution mapped back; sampling the rotating factor at the step
        # midpoint keeps both integrators consistent to O(dt^2) globally
        n, r = 6, 2
        rng = make_rng(9)
        lam = rng.standard_normal(n)
        f = random_factors(rng, n, r)
        psi0 = random_state(rng, n)

        h_full = np.diag(lam.astype(complex)) + f.materialize()
        psi_s = psi0.copy()
        psi_ip = psi0.copy()
        for t in range(steps):
            psi_s = cayley_step_dense(h_full, psi_s, dt)
            f_ip = interaction_picture_factors(f, lam, t + 0.5, dt)
            psi_ip, _ = cayley_step_woodbury(f_ip, psi_ip, dt)
        mapped = schrodinger_state(psi_ip, lam, steps, dt)
        return float(np.abs(mapped - psi_s).max())

    def test_two_pictures_agree(self):
        assert self._picture_gap(dt=5e-4, steps=100) < 1e-7

    def test_gap_vanishes_with_stepsize(self):
        coarse = self._picture_gap(dt=1e-3, steps=100)
        fine = self._picture_gap(dt=5e-4, steps=100)
        assert fine < coarse / 4.0


class TestEvolveFixedUnitaries:
    def test_identity_constant(self):
        rng = make_rng(10)
        psi = random_state(rng, 3)
        traj = evolve_fixed_unitaries(np.eye(3, dtype=complex)[None], psi, [0] * 7)
        for state in traj:
            assert np.abs(state - psi).max() < 1e-15

    def test_haar_step_norm(self):
        rng = make_rng(11)
        psi = random_state(rng, 4)
        u = sample_haar_unitary(4, 12)
        traj = evolve_fixed_unitaries(u[None], psi, [0])
        assert abs(np.linalg.norm(traj[-1]) - 1.0) < 1e-13
        assert np.abs(traj[-1] - u @ psi).max() < 1e-15

    def test_unknown_token(self):
        with pytest.raises(VocabularyError):
            evolve_fixed_unitaries(np.zeros((0, 1, 1), dtype=complex), np.array([1.0 + 0j]), [3])

    def test_long_trajectory_norm(self):
        rng = make_rng(12)
        psi = random_state(rng, 4)
        u = sample_haar_unitary(4, 13)
        traj = evolve_fixed_unitaries(u[None], psi, [0] * 2000)
        assert abs(np.linalg.norm(traj[-1]) - 1.0) < 1e-10


class TestInverseCayley:
    def test_recovers_a_hermitian_generator(self):
        rng = make_rng(15)
        z = ginibre(rng, 3 * 5, 5).reshape(3, 5, 5)
        h = z + z.conj().swapaxes(-1, -2)
        dt = 0.7
        gens, reproduced = inverse_cayley(cayley_map(0.25j * dt * h), dt)
        assert np.abs(gens - h).max() <= 1e-10 * np.abs(h).max()
        assert reproduced.tolist() == [True] * 3

    def test_flags_a_unitary_with_eigenvalue_minus_one(self):
        # W1 of the reference witness has the eigenvalue -1
        w = n2_reference_config()["query_unitaries"]
        assert np.abs(np.linalg.eigvals(w[1]) + 1.0).min() < 1e-12
        assert inverse_cayley(w, 1.0)[1].tolist() == [True, False]

    def test_singular_system_is_linalg_error(self):
        # I + W is singular at W = -I; under this function's error state the bare
        # solve gufunc would raise FloatingPointError instead
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            inverse_cayley(-np.eye(2, dtype=complex), 1.0)


class TestEvolveFixedBatch:
    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_matches_row_by_row_evolution(self, kind):
        # unitary transitions from complex generators, orthogonal ones from real
        rng = make_rng(14)
        d, alphabet = 4, 5
        z = rng.standard_normal((alphabet, d, d))
        if kind == "complex":
            z = z + 1j * rng.standard_normal((alphabet, d, d))
        transitions = cayley_map(z)
        state0 = z[0, :, 0] / np.linalg.norm(z[0, :, 0])
        tokens = rng.integers(0, alphabet, size=(6, 9))
        states = evolve_fixed_batch(transitions, state0, tokens)
        assert len(states) == tokens.shape[1] + 1
        for b, seq in enumerate(tokens):
            psi = state0
            for t, tok in enumerate(seq, start=1):
                psi = transitions[tok] @ psi
                assert np.abs(states[t][b] - psi).max() < 1e-15

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_token(self, bad):
        transitions = np.stack([np.eye(2)] * 3)
        with pytest.raises(VocabularyError):
            evolve_fixed_batch(transitions, np.array([1.0, 0.0]), [[0, 1], [2, bad]])


class TestEvolveFullModel:
    def test_zero_generator_constant_trajectory(self):
        model = init_full_model(n=4, r=2, d=3, v=5, v_in=4, seed=1)
        for w in model.mlp.weights:
            w[:] = 0.0
        for b in model.mlp.biases:
            b[:] = 0.0
        traj, factors, _ = evolve_full_model(model, [0, 1, 2, 3])
        psi0 = initial_state(model.h0)
        for state in traj:
            assert np.abs(state - psi0).max() < 1e-14
        for f in factors:
            assert np.abs(f.phi).max() == 0.0

    def test_single_step_composition(self):
        model = init_full_model(n=3, r=1, d=2, v=4, v_in=3, seed=4)
        traj, _, _ = evolve_full_model(model, [1])
        psi0 = initial_state(model.h0)
        f = generate_interaction(model.mlp, model.embed[1], psi0, model.r)
        f_ip = interaction_picture_factors(f, model.frequencies, 0, model.dt)
        manual, _ = cayley_step_woodbury(f_ip, psi0, model.dt)
        assert np.abs(traj[-1] - manual).max() < 1e-15

    def test_long_run_norm(self):
        model = init_full_model(n=4, r=1, d=2, v=4, v_in=2, seed=6)
        tokens = [t % 2 for t in range(512)]
        traj, _, checks = evolve_full_model(model, tokens)
        norms = np.array([np.linalg.norm(s) for s in traj])
        assert np.abs(norms - 1.0).max() < 1e-10
        assert checks.residual.shape == (512,) and (checks.residual < 1e-9).all()

    @PROPERTY
    @given(full_model_runs())
    @example((init_full_model(n=1, r=1, d=2, v=2, v_in=3, seed=29, dt=0.8),
              np.random.default_rng(29).integers(0, 3, (2, 64))))  # N = 1: step 62's residual
    @example((straddling_model(), np.array([[1, 0], [2, 0]])))  # step 0: bounds 9e8 and 5.6e7
    def test_stacked_reports_equal_single_steps(self, run):
        # the checks made after the loop, stacked over chunks, are one report of (T,) arrays;
        # row t holds the worst of what cayley_step_woodbury reports for the batch's step t,
        # to the bit, also where the step's Gram bounds straddle GRAM_COND_WARN. A failing
        # run is test_properties' to compare.
        model, tokens = run
        try:
            states, factors, checks = evolve_full_batch(model, tokens)[:3]
        except IllConditionedStepError:
            return
        lone = [[cayley_step_woodbury(f, psi, model.dt) for f, psi in zip(factors[t], states[t])]
                for t in range(tokens.shape[1])]
        assert same_bits(states[1:], np.array([[psi for psi, _ in row] for row in lone],
                                              dtype=complex).reshape(states[1:].shape))
        for name in ("residual", "norm_change", "gram_condition"):
            worst = np.array([max(getattr(rep, name) for _, rep in row) for row in lone])
            assert same_bits(getattr(checks, name), worst)

    def test_token_outside_vocabulary(self):
        # a negative id would otherwise index the embedding table from the end
        model = init_full_model(n=3, r=1, d=2, v=4, v_in=3, seed=4)
        for bad in ([0, -1], [0, 3]):
            with pytest.raises(VocabularyError):
                evolve_full_model(model, bad)
