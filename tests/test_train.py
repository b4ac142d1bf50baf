import numpy as np
import pytest

from cusm import dynamics, numerics, readout, septask, train
from cusm.dynamics import (
    GRAM_COND_FAIL,
    GRAM_COND_WARN,
    CayleyStepReport,
    InteractionFactors,
    _lowrank_solve,
    _woodbury_system,
    evolve_full_batch,
    evolve_full_model,
)
from cusm.exceptions import ConfigurationError, IllConditionedStepError
from cusm.hamgen import init_full_model
from cusm.numerics import ginibre, make_rng
from cusm.readout import floored_log
from cusm.septask import TargetTable, make_task, target_table
from cusm.train import (
    OptimizerConfig,
    TrainableCusm,
    _backward_full,
    _fixed_batch_grad,
    CLIP_NORM,
    adam_cosine,
    adjoint_state_step,
    backward_full_model,
    central_difference,
    entropy_floor,
    exact_cusm_report,
    finite_difference_grad,
    flatten_bundle,
    flatten_model,
    full_model_loss,
    train_on_task,
    unflatten_model,
    _one_hot_rows,
)


class TestEntropyFloor:
    def test_one_hot_rows(self):
        table = TargetTable(pstar=np.eye(4), lstar=floored_log(np.eye(4)), min_entry=0.0)
        assert entropy_floor(table) == 0.0

    def test_uniform_rows(self):
        pstar = np.full((4, 5), 0.2)
        table = TargetTable(pstar=pstar, lstar=floored_log(pstar), min_entry=0.2)
        assert abs(entropy_floor(table) - np.log(5.0)) < 1e-13

    def test_dual_path_oracle(self):
        # vectorized implementation vs an explicit nested-loop sum
        task = make_task(2, seed=0, reference=True)
        table = target_table(task)
        direct = 0.0
        rows, cols = table.pstar.shape
        for row in range(rows):
            for k in range(cols):
                p = table.pstar[row, k]
                if p > 0:
                    direct -= p * np.log(p)
        direct /= rows
        assert abs(entropy_floor(table) - direct) < 1e-12


class TestBackwardFullModel:
    def test_matches_finite_differences(self):
        for seed in range(5):
            model = init_full_model(n=3, r=1, d=2, v=4, v_in=5, seed=seed, hidden=[6])
            tokens = [0, 2, 4]
            targets = [1, 0, 3]
            weights = _one_hot_rows(targets, model.v)
            loss, analytic = _backward_full(model, np.array([tokens]), weights[None])
            numeric = finite_difference_grad(model, tokens, targets, step=1e-5)
            assert abs(loss - full_model_loss(model, tokens, weights)) < 1e-12
            ga = flatten_bundle(analytic)
            gf = flatten_bundle(numeric)
            rel = np.abs(ga - gf) / np.maximum(np.abs(gf), 1e-8)
            assert rel.max() < 1e-5

    def test_zero_gradient_at_certain_prediction(self):
        # identity transitions, basis initial state, measurement aligned with
        # it: the target probability is exactly 1, a maximum of the log-prob
        params = TrainableCusm(
            h0=np.array([1.0, 0.0], dtype=complex),
            gens=np.zeros((1, 2, 2), dtype=complex),
            meas_raw=np.eye(2, dtype=complex),
        )
        loss, grads = _fixed_batch_grad(params, np.array([[0]]), np.array([[1.0, 0.0]]),
                                        train._born_batch_vjp)
        assert abs(loss) < 1e-14
        assert np.abs(grads.h0).max() < 1e-10
        assert np.abs(grads.gens[0]).max() < 1e-10
        assert np.abs(grads.meas_raw).max() < 1e-10

    def test_fd_residual_second_order(self):
        model = init_full_model(n=3, r=1, d=2, v=4, v_in=4, seed=2, hidden=[5])
        tokens = [0, 3]
        targets = [2, 1]
        ga = flatten_bundle(backward_full_model(model, tokens, targets))
        res = {}
        for step in (2e-4, 1e-4):
            gf = flatten_bundle(finite_difference_grad(model, tokens, targets, step=step))
            res[step] = np.linalg.norm(ga - gf)
        assert 2.5 < res[2e-4] / res[1e-4] < 6.0

    def test_empty_sequence_has_zero_gradient(self):
        model = init_full_model(n=2, r=1, d=2, v=3, v_in=2, seed=1)
        grads = backward_full_model(model, [], [])
        assert all(np.array_equal(g, np.zeros_like(a))
                   for g, a in zip(grads.arrays(), model.arrays()))

    def test_state_adjoint_isometry(self):
        # the adjoint state norm is invariant across pure Cayley steps
        rng = make_rng(3)
        g = ginibre(rng, 8, 1)[:, 0]
        norm0 = np.linalg.norm(g)
        for _ in range(20):
            f = InteractionFactors(phi=ginibre(rng, 8, 2), delta=rng.standard_normal(8))
            g, _ = adjoint_state_step(f, 1.0, g, _woodbury_system(f.phi, f.delta, 0.5j)[2:])
            assert abs(np.linalg.norm(g) - norm0) < 1e-10


def richardson_misses(loss_at, flat, grad, rng, directions, h=1e-4):
    """|g.v - (4 D(h/2) - D(h)) / 3| for unit random directions v, where D(s) is the
    central difference of loss_at along v at step s: its error is O(h^4)."""
    misses = []
    for _ in range(directions):
        v = rng.standard_normal(flat.size)
        v /= np.linalg.norm(v)
        d_h, d_half = ((loss_at(flat + s * v) - loss_at(flat - s * v)) / (2 * s)
                       for s in (h, h / 2))
        misses.append(abs((4 * d_half - d_h) / 3 - grad @ v))
    return np.array(misses)


class TestBackwardFullDirectional:
    def test_directional_derivative_past_one_check_chunk(self):
        # rank 2, three recurring tokens, 70 steps (past one 64-step check chunk),
        # two sequences. For unit directions v, g.v must match the Richardson
        # extrapolation (4 D(h/2) - D(h)) / 3 of central differences D. Its
        # rounding floor is about 1.5 * 1.5e-12 / h = 2e-8 (1.5e-12: the largest
        # loss change under 1e-15 parameter noise), and over 30 directions the
        # largest miss was 7.7e-9; a swapped (Re, Im) or row-major Phi gradient
        # written into the network's output-gradient rows misses by 0.6 to 1.0.
        model = init_full_model(n=4, r=2, d=3, v=5, v_in=3, dt=0.5, seed=3)
        model.mlp.weights[-1] *= 20.0  # interaction well above the free dynamics
        rng = make_rng(8)
        tokens = rng.integers(0, 3, (2, 70))
        weights = rng.random((2, 70, 5)) * (rng.random((2, 70, 1)) < 0.3)
        grad = flatten_model(_backward_full(model, tokens, weights)[1])

        def loss_at(x):
            return train._loss_full(unflatten_model(x, model), tokens, weights)

        assert richardson_misses(loss_at, flatten_model(model), grad, rng, 3).max() < 1e-7


class TestDirectionalAtRunningShapes:
    """Directional derivatives at the shapes the rewritten reverse sweep runs, with
    each bound a multiple of the rounding floor eps |L| / h of the differences."""

    def test_full_model_at_rank_four(self):
        # r = 4 = N, so a transposed (row-major) Phi gradient still fits its rows; the
        # default hidden widths; 80 steps, past one 64-step check chunk; 16 tokens that
        # recur. Over 240 directions of eight model seeds the largest miss was 137 floors
        # (10.4 at this seed). Each of these misses by more than 1e6 floors: step 0
        # dropped from the weight products, inputs paired with the wrong step, an
        # assignment in place of np.add.at, a conjugated or transposed Phi gradient,
        # swapped coefficients of its two rank-one terms, and the frequencies' factor
        # term one step off.
        model = init_full_model(n=4, r=4, d=3, v=5, v_in=16, dt=0.5, seed=3)
        model.mlp.weights[-1] *= 20.0  # interaction well above the free dynamics
        rng = make_rng(9)
        tokens = rng.integers(0, 16, (2, 80))
        weights = rng.random((2, 80, 5)) * (rng.random((2, 80, 1)) < 0.3)
        loss, grads = _backward_full(model, tokens, weights)
        floor = np.finfo(float).eps * abs(loss) / 1e-4

        def loss_at(x):
            return train._loss_full(unflatten_model(x, model), tokens, weights)

        misses = richardson_misses(loss_at, flatten_model(model), flatten_model(grads), rng, 3)
        assert misses.max() < 1e3 * floor

    def test_trainable_unitary_model_at_n_four(self):
        # the QR projection's VJP solves with R; over 240 directions of eight seeds the
        # largest miss was 3.1 floors, and a solve with R^dag, or without the VJP's
        # Hermitian w term, misses by more than 1e8 floors
        task = make_task(4, 3)
        tokens, targets = task.sequences(), target_table(task).pstar
        params = train.init_trainable_cusm(4, task.v, 2 * 4 + 1, seed=3)
        loss, grads = _fixed_batch_grad(params, tokens, targets, train._born_batch_vjp)
        floor = np.finfo(float).eps * abs(loss) / 1e-4

        def loss_at(x):
            return _fixed_batch_grad(unflatten_model(x, params), tokens, targets,
                                     train._born_batch_vjp)[0]

        misses = richardson_misses(loss_at, flatten_model(params), flatten_model(grads),
                                   make_rng(9), 3)
        assert misses.max() < 30 * floor

    def test_full_model_at_rank_two(self):
        # r = 2 with the default hidden widths: each adjoint solve runs the forward
        # step's stored Gram matrix through np.linalg.solve's gufunc. Over 240 directions of
        # eight model seeds the largest miss was 13 floors, but for one seed whose
        # Richardson truncation error (it shrinks 30-fold as h halves) read 1.4e3;
        # 4.8 at this seed. An adjoint that solves with G+ or G+^T in place of G+^dag
        # misses by more than 1e6 floors, with conj(G+) by 6e4, and with 1/(1 + c delta)
        # unconjugated by 1e11.
        model = init_full_model(n=4, r=2, d=3, v=5, v_in=16, dt=0.5, seed=3)
        model.mlp.weights[-1] *= 20.0  # interaction well above the free dynamics
        rng = make_rng(9)
        tokens = rng.integers(0, 16, (2, 80))
        weights = rng.random((2, 80, 5)) * (rng.random((2, 80, 1)) < 0.3)
        loss, grads = _backward_full(model, tokens, weights)
        floor = np.finfo(float).eps * abs(loss) / 1e-4

        def loss_at(x):
            return train._loss_full(unflatten_model(x, model), tokens, weights)

        misses = richardson_misses(loss_at, flatten_model(model), flatten_model(grads), rng, 3)
        assert misses.max() < 100 * floor

    def test_orthogonal_baseline_at_n_four(self):
        # dimension 4 on the n = 4 task; over 240 directions of eight seeds the largest
        # miss was 2.0 floors (0.91 at this seed). Each of these misses by more than 1e8
        # floors: the readout weights' gradient on the state before last, an unscaled
        # bias or h0 gradient, a transposed generator gradient, and an assignment in
        # place of np.add.at.
        task = make_task(4, 3)
        tokens, targets = task.sequences(), target_table(task).pstar
        params = train.init_trainable_rosm(4, task.v, 2 * 4 + 1, seed=3)
        loss, grads = _fixed_batch_grad(params, tokens, targets, train._softmax_batch_vjp)
        floor = np.finfo(float).eps * abs(loss) / 1e-4

        def loss_at(x):
            return _fixed_batch_grad(unflatten_model(x, params), tokens, targets,
                                     train._softmax_batch_vjp)[0]

        misses = richardson_misses(loss_at, flatten_model(params), flatten_model(grads),
                                   make_rng(9), 3)
        assert misses.max() < 30 * floor


class TestAdjointReusesForwardCondition:
    def test_one_gram_svd_per_step(self, monkeypatch):
        # one affine layer; the token drives column 0 of Phi to 1e4 (1 + i) per row
        # and leaves column 1 and delta at zero, so each step's bound
        # (1 + dt ||Phi||^2 / 2)^2 is above GRAM_COND_WARN and its Gram SVD reads
        # about dt ||Phi||^2 / 2 = 3e8, below GRAM_COND_FAIL. The forward pass takes
        # one SVD per step, and the adjoint solves reuse those conditions.
        model = init_full_model(n=3, r=2, d=1, v=4, v_in=1, seed=0, hidden=[])
        model.mlp.weights[0][:] = 0.0
        model.mlp.weights[0][: 2 * model.n, 0] = 1e4
        model.embed[:] = 1.0
        calls, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(a.shape) or cond(a))
        steps = 6
        tokens = np.zeros((2, steps), dtype=int)
        weights = np.zeros((2, steps, 4))
        weights[:, -1, 0] = 1.0
        conds = evolve_full_batch(model, tokens)[2].gram_condition
        assert len(calls) == steps == len(conds)
        assert ((GRAM_COND_WARN < conds) & (conds < GRAM_COND_FAIL)).all()
        calls.clear()
        _backward_full(model, tokens, weights)
        assert calls == [(2, 2, 2)] * steps


class TestAdjointReusesForwardPieces:
    @pytest.mark.parametrize("r", [1, 2])
    def test_linalg_solve_calls_per_backward_pass(self, r, monkeypatch):
        # an r = 1 Gram system is a division, so the QR projection's VJP makes the one
        # solve, through linalg_solve; at r = 2 each forward step and its adjoint make one
        # more; each calls the gufunc that np.linalg.solve wraps
        model = init_full_model(n=3, r=r, d=2, v=4, v_in=3, seed=1, hidden=[4])
        steps = 5
        tokens = make_rng(2).integers(0, 3, (2, steps))
        weights = make_rng(3).random((2, steps, 4))
        calls, solve, gufunc = [], np.linalg.solve, dynamics._solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
        monkeypatch.setattr(dynamics, "_solve",
                            lambda a, b, **kw: calls.append(a.shape) or gufunc(a, b, **kw))
        _backward_full(model, tokens, weights)
        assert len(calls) == (1 if r == 1 else 2 * steps + 1)

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_stored_pieces_match_a_fresh_adjoint_solve(self, r):
        # the adjoint conjugates the forward step's 1/(1 + c delta) and takes G+^dag
        # for its Gram matrix; a fresh adjoint solve builds both from phi and delta
        model = init_full_model(n=4, r=r, d=3, v=5, v_in=3, dt=0.5, seed=4)
        model.mlp.weights[-1] *= 1e3  # Gram matrices far from I: conditions 9 to 69
        tokens = make_rng(5).integers(0, 3, (3, 6))
        _, factors, _, _, (inv_d, gram), _ = evolve_full_batch(model, tokens)
        g, c = ginibre(make_rng(6), 3, 4), -0.5j * model.dt
        for t in range(tokens.shape[1]):
            reused = adjoint_state_step(factors[t], model.dt, g,
                                        (inv_d[t], gram[t]))
            own = _woodbury_system(factors.phi[t], factors.delta[t], c)
            s = _lowrank_solve(*own, c, g[..., None])[..., 0]
            fresh = 2.0 * s - g, s
            assert max(np.abs(a - b).max() for a, b in zip(reused, fresh)) < 1e-14
            assert np.array_equal(own[2], inv_d[t].conj())
            stored = gram[t].conj().swapaxes(-1, -2)
            assert np.abs(own[3] - stored).max() < 1e-14 * np.abs(stored).max()


class TestOneReadout:
    """_loss_full and _backward_full reach the Born readout through _full_readout."""

    @pytest.mark.parametrize("r, n, batch, steps",
                             [(1, 3, 3, 70), (4, 5, 2, 70), (2, 4, 2, 130), (4, 8, 1, 66)])
    def test_forward_loss_is_the_backward_loss_bit_for_bit(self, r, n, batch, steps):
        # weights on every step: two readout loops summing in opposite orders missed
        # each other by up to 8 ulps
        model = init_full_model(n=n, r=r, d=3, v=n + 2, v_in=4, dt=0.7, seed=10 + r)
        rng = make_rng(100 + n)
        tokens = rng.integers(0, 4, (batch, steps))
        weights = rng.random((batch, steps, n + 2))
        assert train._loss_full(model, tokens, weights) == _backward_full(model, tokens, weights)[0]

    def test_backward_reads_no_step_report(self, monkeypatch):
        model = init_full_model(n=3, r=2, d=2, v=4, v_in=3, seed=1, hidden=[4])
        tokens = make_rng(2).integers(0, 3, (2, 8))
        weights = make_rng(3).random((2, 8, 4))
        loss, grads = _backward_full(model, tokens, weights)
        monkeypatch.setattr(train, "evolve_full_batch",
                            lambda *args: (*evolve_full_batch(*args)[:2], [],
                                           *evolve_full_batch(*args)[3:]))
        unreported, unreported_grads = _backward_full(model, tokens, weights)
        assert unreported == loss
        assert flatten_model(unreported_grads).tobytes() == flatten_model(grads).tobytes()


class TestStackedFullModel:
    """The stacked passes on what a loop over single sequences never meets:
    sequences that share a token at the same step, and targets on several
    steps of each sequence."""

    def _batch(self):
        model = init_full_model(n=2, r=1, d=2, v=4, v_in=3, seed=21, hidden=[4])
        # sequences 0 and 1 share token 2 at step 0 and token 1 at step 2
        tokens = np.array([[2, 0, 1], [2, 1, 1], [0, 2, 0]])
        weights = np.zeros((3, 3, 4))
        weights[:, 1] = [[1.0, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1.0]]
        weights[:, 2] = [[0, 1.0, 0, 0], [0.25, 0, 0, 0.75], [1.0, 0, 0, 0]]
        return model, tokens, weights

    def test_summed_gradient_matches_central_difference(self):
        model, tokens, weights = self._batch()
        loss, analytic = _backward_full(model, tokens, weights)

        def loss_at(flat):
            m = unflatten_model(flat, model)
            return sum(full_model_loss(m, seq, w) for seq, w in zip(tokens, weights))

        flat = flatten_model(model)
        assert abs(loss - loss_at(flat)) < 1e-12
        numeric = central_difference(loss_at, flat, 1e-5)
        rel = np.abs(flatten_bundle(analytic) - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-5

    def test_recurring_token_matches_central_difference(self):
        # token 1 recurs at three steps of sequence 0 and in every sequence, with
        # targets on every step: the embedding's one np.add.at and each layer's
        # one weight product after the reverse sweep must sum all of its rows
        model = init_full_model(n=2, r=1, d=2, v=3, v_in=2, seed=5, hidden=[3])
        tokens = np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 1]])
        weights = make_rng(8).random((3, 4, 3))
        loss, analytic = _backward_full(model, tokens, weights)

        def loss_at(flat):
            m = unflatten_model(flat, model)
            return sum(full_model_loss(m, seq, w) for seq, w in zip(tokens, weights))

        # the differences' rounding, ~1e-16 * loss / step, sets the error scale
        numeric = central_difference(loss_at, flatten_model(model), 1e-5)
        assert np.abs(flatten_bundle(analytic) - numeric).max() < 1e-7 * np.abs(numeric).max()
        assert np.all(analytic.embed != 0.0)

    def test_one_thin_qr_per_gradient(self, monkeypatch):
        # the backward pass reuses the R factor of the forward projection
        calls, original = [], numerics.thin_qr_unique

        def counted(a):
            calls.append(a.shape)
            return original(a)

        for module in (numerics, readout, septask, train):
            monkeypatch.setattr(module, "thin_qr_unique", counted)
        model, tokens, weights = self._batch()
        _backward_full(model, tokens, weights)
        assert calls == [(4, 2)]
        params = train.init_trainable_cusm(2, 4, 5, seed=0)
        _fixed_batch_grad(params, np.array([[0, 1], [2, 3]]), np.full((2, 4), 0.25),
                          train._born_batch_vjp)
        assert calls == [(4, 2), (4, 2)]

    def test_states_match_single_sequences(self):
        model, tokens, _ = self._batch()
        states = evolve_full_batch(model, tokens)[0]
        for b, seq in enumerate(tokens):
            single, _, _ = evolve_full_model(model, seq)
            for t, psi in enumerate(single):
                assert np.abs(states[t][b] - psi).max() < 1e-15


class TestFailureInsideBatch:
    def _model(self):
        # one affine layer; token 1 drives column 0 of Phi to 1e7, token 0
        # leaves Phi at zero. cond(Gram) <= (1 + dt |Phi|^2 / 2)^2, so a huge
        # Phi is the only way to fail the check, and it needs rank >= 2.
        model = init_full_model(n=3, r=2, d=1, v=4, v_in=2, seed=0, hidden=[])
        model.mlp.weights[0][:] = 0.0
        model.mlp.weights[0][: 2 * model.n, 0] = 1e7
        model.embed[:] = [[0.0], [1.0]]
        return model

    def test_forward_reports_failing_step(self):
        with pytest.raises(IllConditionedStepError) as info:
            evolve_full_model(self._model(), [0, 0, 1, 0])
        assert info.value.step == 2
        assert isinstance(info.value.report, CayleyStepReport)
        assert info.value.report.gram_condition > GRAM_COND_FAIL

    def test_batch_reports_first_failing_step(self):
        tokens = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        weights = np.zeros((3, 3, 4))
        weights[:, -1, 0] = 1.0
        with pytest.raises(IllConditionedStepError) as info:
            _backward_full(self._model(), tokens, weights)
        assert info.value.step == 1
        assert info.value.report.gram_condition > GRAM_COND_FAIL


class TestAssertFinite:
    def test_nan_gradient_raises(self):
        flat = flatten_model(init_full_model(n=2, r=1, d=2, v=4, v_in=3, seed=0))
        train._assert_finite(flat)
        flat[7] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite gradient entry"):
            train._assert_finite(flat)

    def test_full_model_training_checks_the_flat_gradient(self, monkeypatch):
        # one check on the flat vector that train_on_task builds stops the run
        def non_finite(model, tokens, weights):
            loss, grads = backward(model, tokens, weights)
            grads.mlp.biases[-1][0] = np.inf
            return loss, grads

        backward = train._backward_full
        monkeypatch.setattr(train, "_backward_full", non_finite)
        task = make_task(2, seed=0, reference=True)
        with pytest.raises(FloatingPointError, match="non-finite gradient entry"):
            train_on_task(task, "full", OptimizerConfig(epochs=2), seeds=(0,))

    @pytest.mark.parametrize("kind, dim", [("cusm-trainable", None), ("rosm", 2)])
    def test_fixed_kind_training_checks_the_flat_gradient(self, kind, dim, monkeypatch):
        # the same check stops a fixed-transition run, which would otherwise take
        # the NaN into its parameters
        def non_finite(params, tokens, targets, readout_vjp):
            loss, grads = batch_grad(params, tokens, targets, readout_vjp)
            grads.gens[0, 0, 0] = np.nan
            return loss, grads

        batch_grad = train._fixed_batch_grad
        monkeypatch.setattr(train, "_fixed_batch_grad", non_finite)
        task = make_task(2, seed=0, reference=True)
        with pytest.raises(FloatingPointError, match="non-finite gradient entry"):
            train_on_task(task, kind, OptimizerConfig(epochs=2), dim=dim, seeds=(0,))


class TestCentralDifference:
    def test_quadratic_exact(self):
        coef = np.array([2.0, -1.0, 0.5])

        def quad(x):
            return float(coef @ (x * x))

        x0 = np.array([1.0, 3.0, -2.0])
        grad = central_difference(quad, x0, step=1e-4)
        assert np.abs(grad - 2.0 * coef * x0).max() < 1e-8

    def test_step_range_enforced(self):
        model = init_full_model(n=2, r=1, d=1, v=4, v_in=2, seed=0, hidden=[3])
        with pytest.raises(ConfigurationError):
            finite_difference_grad(model, [0], [0], step=1.0)


class TestFlattening:
    def test_roundtrip(self):
        model = init_full_model(n=3, r=2, d=2, v=9, v_in=4, seed=5)
        flat = flatten_model(model)
        again = flatten_model(unflatten_model(flat, model))
        assert np.array_equal(flat, again)

    def test_loss_invariant_under_roundtrip(self):
        model = init_full_model(n=2, r=1, d=2, v=4, v_in=3, seed=6, hidden=[4])
        tokens = [0, 1]
        weights = _one_hot_rows([1, 2], 4)
        l1 = full_model_loss(model, tokens, weights)
        l2 = full_model_loss(unflatten_model(flatten_model(model), model), tokens, weights)
        assert l1 == l2

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("kind, stream, parts", [
        ("full", 100, 2), ("cusm-trainable", 200, 2), ("rosm", 201, 1)])
    def test_template_leads_with_the_first_draws_of_its_stream(self, kind, stream, parts, seed):
        # the flat vector starts with Re h0, then Im h0 for a complex start vector: the
        # first standard_normal(n) draws of the kind's stream, in that order; reordering
        # them or the arrays would change every training trace
        n, v, alphabet = 3, 9, 7
        template = {
            "full": lambda: init_full_model(n=n, r=1, d=6, v=v, v_in=alphabet, seed=seed),
            "cusm-trainable": lambda: train.init_trainable_cusm(n, v, alphabet, seed),
            "rosm": lambda: train.init_trainable_rosm(n, v, alphabet, seed),
        }[kind]()
        rng = make_rng(seed, stream)
        draws = np.concatenate([rng.standard_normal(n) for _ in range(parts)])
        assert flatten_model(template)[:parts * n].tobytes() == draws.tobytes()

    def test_vector_longer_than_model_rejected(self):
        model = init_full_model(n=2, r=1, d=2, v=4, v_in=3, seed=6, hidden=[4])
        flat = flatten_model(model)
        with pytest.raises(ConfigurationError, match=f"length {flat.size + 1}, consumed {flat.size}"):
            unflatten_model(np.append(flat, 0.0), model)


class TestAdamCosine:
    def test_gradient_above_clip_norm_is_scaled_to_it(self):
        # the first gradient has norm 500, the later ones stay below CLIP_NORM
        grads = [np.array([300.0, -400.0]), np.array([1.0, 2.0]), np.array([-3.0, 0.5])]
        calls = iter(grads)
        config = OptimizerConfig(lr=0.1, epochs=3)
        x, trace, stopped = adam_cosine(np.zeros(2), lambda x: (0.0, next(calls)), config)
        ref, m, v = np.zeros(2), np.zeros(2), np.zeros(2)
        for epoch, g in enumerate(grads):
            g = g * min(1.0, CLIP_NORM / np.linalg.norm(g))
            lr = 0.1 * 0.5 * (1.0 + np.cos(np.pi * epoch / 3))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - lr * (m / (1 - 0.9 ** (epoch + 1))) / (
                np.sqrt(v / (1 - 0.999 ** (epoch + 1))) + 1e-8)
        assert stopped == "epochs" and trace == [0.0] * 3
        assert np.allclose(x, ref, rtol=1e-12, atol=0.0)


    def test_non_finite_loss_stops_the_run_as_diverged(self):
        losses = iter([1.0, np.inf, 0.5])
        _, trace, stopped = adam_cosine(np.zeros(2), lambda x: (next(losses), np.ones(2)),
                                        OptimizerConfig(lr=0.1, epochs=3))
        assert stopped == "diverged" and trace == [1.0, np.inf]


class TestTrainOnTask:
    def test_exact_cusm_gap(self):
        task = make_task(2, seed=0, reference=True)
        report = exact_cusm_report(task, target_table(task))
        assert abs(report["exact_cusm_gap"]) < 1e-10

    @pytest.mark.parametrize("kind, dim", [("cusm-trainable", None), ("rosm", 2),
                                           ("full", None)])
    def test_optimizer_determinism(self, kind, dim):
        task = make_task(2, seed=7)
        config = OptimizerConfig(epochs=25, early_stop_gap=0.0)
        r1 = train_on_task(task, kind, dim=dim, config=config, seeds=(0,))
        r2 = train_on_task(task, kind, dim=dim, config=config, seeds=(0,))
        assert r1[0].loss_trace == r2[0].loss_trace

    def test_rosm_dim_one_stays_gapped(self):
        task = make_task(2, seed=8)
        config = OptimizerConfig(epochs=300)
        reports = train_on_task(task, "rosm", dim=1, config=config, seeds=(0, 1))
        for rep in reports:
            assert rep.gap > 1e-2
            audit = rep.extra["softmax_rank_audit"]
            assert audit["satisfied"]

    def test_full_model_trains_a_little(self):
        task = make_task(2, seed=9)
        config = OptimizerConfig(epochs=15, early_stop_gap=0.0)
        reports = train_on_task(task, "full", dim=2, config=config, seeds=(0,))
        rep = reports[0]
        assert np.isfinite(rep.final_nll)
        assert len(rep.loss_trace) == 15
        assert rep.loss_trace[-1] <= rep.loss_trace[0] + 1e-9

    def test_unknown_kind(self):
        task = make_task(2, seed=10)
        with pytest.raises(ConfigurationError):
            train_on_task(task, "transformer", config=OptimizerConfig(), seeds=(0,))

    @pytest.mark.parametrize("kind", ["cusm-trainable", "rosm", "full"])
    def test_dimension_below_one(self, kind):
        task = make_task(2, seed=10)
        with pytest.raises(ConfigurationError, match="dimension must be >= 1"):
            train_on_task(task, kind, dim=0, config=OptimizerConfig(), seeds=(0,))


class TestReadoutAblation:
    @staticmethod
    def _nlls(model, tokens, targets):
        # mean NLL of the final states under the Born and the magnitude-only readout
        psi = dynamics.evolve_fixed_batch(model.unitaries, model.psi0, tokens)[-1].T

        def nll(probabilities):
            logs = readout.floored_log(probabilities(model.measurement, psi))
            return -float(np.vdot(targets.T, logs)) / len(tokens)

        return {"nll_born": nll(readout.born_probabilities),
                "nll_diagonal": nll(readout.diagonal_only_probabilities)}

    def test_basis_trajectory_equal(self):
        # permutation dynamics keep the state on basis vectors, where the
        # quadratic and magnitude-only readouts coincide
        from cusm.septask import CusmParams
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        meas = np.eye(2, dtype=complex)
        model = CusmParams(psi0=np.array([1.0, 0.0], dtype=complex),
                           unitaries=swap[None], measurement=meas)
        out = self._nlls(model, np.array([[0, 0, 0]]), np.array([[1.0, 0.0]]))
        assert abs(out["nll_born"] - out["nll_diagonal"]) < 1e-12

    def test_exact_cusm_direction(self):
        task = make_task(2, seed=11)
        table = target_table(task)
        out = exact_cusm_report(task, table)["ablation"]
        assert out["nll_diagonal"] >= out["nll_born"]
        assert out["nll_diagonal"] - out["nll_born"] > 1e-6

    def test_phase_flip_pair(self):
        from cusm.septask import CusmParams
        meas = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        flip = np.diag([1.0, -1.0]).astype(complex)
        model = CusmParams(psi0=plus, unitaries=np.stack([np.eye(2, dtype=complex), flip]),
                           measurement=meas)
        target = np.array([[1.0, 0.0]])
        same = self._nlls(model, np.array([[0]]), target)
        flipped = self._nlls(model, np.array([[1]]), target)
        assert abs(same["nll_born"] - flipped["nll_born"]) > 1.0
        assert abs(same["nll_diagonal"] - flipped["nll_diagonal"]) < 1e-12


class TestTrainableCusmGradients:
    def test_matches_finite_differences(self):
        from cusm.train import _cusm_flatten, _cusm_unflatten, init_trainable_cusm
        task = make_task(2, seed=12)
        table = target_table(task)
        tokens = task.sequences()
        params = init_trainable_cusm(2, task.v, 5, seed=0)
        _, grads = _fixed_batch_grad(params, tokens, table.pstar, train._born_batch_vjp)
        flat = _cusm_flatten(params)
        fd = central_difference(
            lambda f: _fixed_batch_grad(_cusm_unflatten(f, params), tokens, table.pstar,
                                        train._born_batch_vjp)[0],
            flat, 1e-5)
        rel = np.abs(_cusm_flatten(grads) - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5

    def test_rosm_matches_finite_differences(self):
        from cusm.train import _rosm_flatten, _rosm_unflatten, init_trainable_rosm
        task = make_task(2, seed=13)
        table = target_table(task)
        tokens = task.sequences()
        params = init_trainable_rosm(3, task.v, 5, seed=0)
        _, grads = _fixed_batch_grad(params, tokens, table.pstar, train._softmax_batch_vjp)
        fd = central_difference(
            lambda f: _fixed_batch_grad(_rosm_unflatten(f, params), tokens, table.pstar,
                                        train._softmax_batch_vjp)[0],
            _rosm_flatten(params), 1e-5)
        rel = np.abs(_rosm_flatten(grads) - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5

    def test_both_kinds_share_one_batch_gradient(self):
        # the per-kind names stay bound for the benchmark's tracer
        assert train._cusm_batch_grad is train._rosm_batch_grad is _fixed_batch_grad


class TestTinyStartVector:
    # initial_state scales a start vector of norm below 2^-511 by the exact 2^600
    # before it normalises; the start vector's VJP takes that factor too, so its
    # gradient is 2^600 times the gradient at the scaled vector, bit for bit, where
    # an unscaled norm that underflows to zero gave NaN
    LIFT = 2.0 ** 600

    def check(self, params, grads_of):
        """params.arrays()[0] is the start vector; grads_of(params) gives the gradients'
        arrays in the same order."""
        h0, *rest = params.arrays()
        got, want = (grads_of(params.with_arrays([h0 * 1e-170 * lift, *rest]))
                     for lift in (1.0, self.LIFT))
        assert np.isfinite(got[0]).all()
        for k, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, self.LIFT * w if k == 0 else w)

    def test_fixed_kinds(self):
        task = make_task(2, seed=0)
        tokens, targets = task.sequences(), target_table(task).pstar

        def grads_of(readout_vjp):
            return lambda params: _fixed_batch_grad(params, tokens, targets,
                                                    readout_vjp)[1].arrays()

        self.check(train.init_trainable_cusm(2, task.v, 5, seed=0), grads_of(train._born_batch_vjp))
        self.check(train.init_trainable_rosm(3, task.v, 5, seed=0),
                   grads_of(train._softmax_batch_vjp))

    def test_full_model(self):
        self.check(init_full_model(n=2, r=1, d=2, v=4, v_in=4, seed=0),
                   lambda model: backward_full_model(model, [0, 1, 3], [2, 3, 0]).arrays())
