import numpy as np
import pytest

from cusm.dynamics import (
    GRAM_COND_FAIL,
    CayleyStepReport,
    InteractionFactors,
    evolve_full_batch,
    evolve_full_model,
)
from cusm.exceptions import ConfigurationError, IllConditionedStepError
from cusm.hamgen import init_full_model
from cusm.numerics import ginibre, make_rng
from cusm.septask import TargetTable, build_exact_cusm, make_task, target_table
from cusm.train import (
    OptimizerConfig,
    TrainableCusm,
    _backward_full,
    _cusm_batch_grad,
    adjoint_state_step,
    backward_full_model,
    central_difference,
    entropy_floor,
    exact_cusm_report,
    finite_difference_grad,
    flatten_bundle,
    flatten_model,
    full_model_loss,
    nll_loss,
    readout_ablation,
    train_on_task,
    unflatten_model,
    _one_hot_rows,
)


class TestNllLoss:
    def test_certain_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nll_loss(probs, [0, 1]) == 0.0

    def test_single_step_inverse_e(self):
        probs = np.array([[1.0 / np.e, 1.0 - 1.0 / np.e]])
        assert abs(nll_loss(probs, [0]) - 1.0) < 1e-14

    def test_uniform_closed_form(self):
        probs = np.full((3, 4), 0.25)
        assert abs(nll_loss(probs, [0, 1, 2]) - 3.0 * np.log(4.0)) < 1e-13

    def test_floor_warning(self):
        probs = np.array([[0.0, 1.0]])
        with pytest.warns(UserWarning):
            loss = nll_loss(probs, [0])
        assert np.isfinite(loss)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            nll_loss(np.ones((2, 2)), [0])


class TestEntropyFloor:
    def test_one_hot_rows(self):
        table = TargetTable(pstar=np.eye(4), lstar=None, logodds=None, min_entry=0.0)
        assert entropy_floor(table) == 0.0

    def test_uniform_rows(self):
        table = TargetTable(pstar=np.full((4, 5), 0.2), lstar=None, logodds=None,
                            min_entry=0.2)
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
            analytic = backward_full_model(model, tokens, targets)
            numeric = finite_difference_grad(model, tokens, targets, step=1e-5)
            assert abs(analytic.loss - numeric.loss) < 1e-12
            ga = flatten_bundle(analytic)
            gf = flatten_bundle(numeric)
            rel = np.abs(ga - gf) / np.maximum(np.abs(gf), 1e-8)
            assert rel.max() < 1e-5

    def test_zero_gradient_at_certain_prediction(self):
        # identity transitions, basis initial state, measurement aligned with
        # it: the target probability is exactly 1, a maximum of the log-prob
        params = TrainableCusm(
            a=np.array([1.0, 0.0]),
            b=np.zeros(2),
            gens=np.zeros((1, 2, 2), dtype=complex),
            meas_raw=np.eye(2, dtype=complex),
        )
        batch = [([0], np.array([1.0, 0.0]))]
        loss, grads = _cusm_batch_grad(params, batch)
        assert abs(loss) < 1e-14
        assert np.abs(grads.a).max() < 1e-10
        assert np.abs(grads.b).max() < 1e-10
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

    def test_state_adjoint_isometry(self):
        # the adjoint state norm is invariant across pure Cayley steps
        rng = make_rng(3)
        g = ginibre(rng, 8, 1)[:, 0]
        norm0 = np.linalg.norm(g)
        for _ in range(20):
            f = InteractionFactors(phi=ginibre(rng, 8, 2), delta=rng.standard_normal(8))
            g, _ = adjoint_state_step(f, 1.0, g)
            assert abs(np.linalg.norm(g) - norm0) < 1e-10


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
        analytic = _backward_full(model, tokens, weights)

        def loss_at(flat):
            m = unflatten_model(flat, model)
            return sum(full_model_loss(m, seq, w) for seq, w in zip(tokens, weights))

        flat = flatten_model(model)
        assert abs(analytic.loss - loss_at(flat)) < 1e-12
        numeric = central_difference(loss_at, flat, 1e-5)
        rel = np.abs(flatten_bundle(analytic) - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-5

    def test_states_match_single_sequences(self):
        model, tokens, _ = self._batch()
        states, _, _, _ = evolve_full_batch(model, tokens)
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
        model.embed.vectors[:] = [[0.0], [1.0]]
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


class TestTrainOnTask:
    def test_exact_cusm_gap(self):
        task = make_task(2, seed=0, reference=True)
        report = exact_cusm_report(task)
        assert abs(report.gap) < 1e-10

    def test_optimizer_determinism(self):
        task = make_task(2, seed=7)
        config = OptimizerConfig(epochs=25, early_stop_gap=0.0)
        r1 = train_on_task(task, "cusm-trainable", config=config, seeds=(0,))
        r2 = train_on_task(task, "cusm-trainable", config=config, seeds=(0,))
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
        reports = train_on_task(task, "full", config=config, seeds=(0,),
                                full_dims={"r": 1, "d": 3, "hidden": [8]})
        rep = reports[0]
        assert np.isfinite(rep.final_nll)
        assert len(rep.loss_trace) == 15
        assert rep.loss_trace[-1] <= rep.loss_trace[0] + 1e-9

    def test_unknown_kind(self):
        task = make_task(2, seed=10)
        with pytest.raises(ConfigurationError):
            train_on_task(task, "transformer", seeds=(0,))


class TestReadoutAblation:
    def test_basis_trajectory_equal(self):
        # permutation dynamics keep the state on basis vectors, where the
        # quadratic and magnitude-only readouts coincide
        from cusm.septask import CusmParams
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        meas = np.eye(2, dtype=complex)
        model = CusmParams(psi0=np.array([1.0, 0.0], dtype=complex),
                           unitaries={0: swap}, measurement=meas)
        out = readout_ablation(model, [([0, 0, 0], np.array([1.0, 0.0]))])
        assert abs(out["nll_born"] - out["nll_diagonal"]) < 1e-12

    def test_exact_cusm_direction(self):
        task = make_task(2, seed=11)
        table = target_table(task)
        eval_set = [(task.sequence(i, j), table.pstar[i * 2 + j])
                    for i in range(2) for j in range(2)]
        out = readout_ablation(build_exact_cusm(task), eval_set)
        assert out["nll_diagonal"] >= out["nll_born"]
        assert out["nll_diagonal"] - out["nll_born"] > 1e-6

    def test_phase_flip_pair(self):
        from cusm.septask import CusmParams
        meas = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        flip = np.diag([1.0, -1.0]).astype(complex)
        model = CusmParams(psi0=plus, unitaries={0: np.eye(2, dtype=complex), 1: flip},
                           measurement=meas)
        target = np.array([1.0, 0.0])
        same = readout_ablation(model, [([0], target)])
        flipped = readout_ablation(model, [([1], target)])
        assert abs(same["nll_born"] - flipped["nll_born"]) > 1.0
        assert abs(same["nll_diagonal"] - flipped["nll_diagonal"]) < 1e-12


class TestTrainableCusmGradients:
    def test_matches_finite_differences(self):
        from cusm.train import _cusm_flatten, _cusm_unflatten, init_trainable_cusm
        task = make_task(2, seed=12)
        table = target_table(task)
        batch = [(task.sequence(i, j), table.pstar[i * 2 + j])
                 for i in range(2) for j in range(2)]
        params = init_trainable_cusm(2, task.v, 5, seed=0)
        _, grads = _cusm_batch_grad(params, batch)
        flat = _cusm_flatten(params)
        fd = central_difference(
            lambda f: _cusm_batch_grad(_cusm_unflatten(f, params), batch)[0], flat, 1e-5)
        rel = np.abs(_cusm_flatten(grads) - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5

    def test_rosm_matches_finite_differences(self):
        from cusm.train import (_rosm_batch_grad, _rosm_flatten, _rosm_unflatten,
                                init_trainable_rosm)
        task = make_task(2, seed=13)
        table = target_table(task)
        batch = [(task.sequence(i, j), table.pstar[i * 2 + j])
                 for i in range(2) for j in range(2)]
        params = init_trainable_rosm(3, task.v, 5, seed=0)
        _, grads = _rosm_batch_grad(params, batch)
        fd = central_difference(
            lambda f: _rosm_batch_grad(_rosm_unflatten(f, params), batch)[0],
            _rosm_flatten(params), 1e-5)
        rel = np.abs(_rosm_flatten(grads) - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5
