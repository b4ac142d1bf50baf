import numpy as np
import pytest

from cusm import hamgen
from cusm.codec import write_json
from cusm.exceptions import ConfigurationError, DegenerateInitializationError
from test_properties import generate_interaction, mlp_buffers

from cusm.hamgen import (
    MlpParams,
    init_full_model,
    load_model,
    mlp_backward,
    mlp_forward_cached,
    mlp_weight_grads,
    save_model,
    split_factor_output,
)
from cusm.numerics import initial_state, make_rng


class TestInitialState:
    def test_basis_vector(self):
        psi = initial_state(np.array([1.0, 0.0]) + 1j * np.zeros(2))
        assert np.array_equal(psi, np.array([1.0 + 0j, 0.0]))

    def test_complex_combination(self):
        psi = initial_state(np.array([1.0, 0.0]) + 1j * np.array([0.0, 1.0]))
        assert np.abs(psi - np.array([1.0, 1j]) / np.sqrt(2.0)).max() < 1e-15

    def test_unit_norm(self):
        rng = make_rng(1)
        for _ in range(20):
            psi = initial_state(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-15

    def test_scale_invariance(self):
        rng = make_rng(2)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        p1 = initial_state(a + 1j * b)
        p2 = initial_state(3.0 * a + 1j * (3.0 * b))
        assert np.abs(p1 - p2).max() < 1e-15

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInitializationError):
            initial_state(np.zeros(3) + 1j * np.zeros(3))

    @pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
    def test_non_finite_norm_rejected(self, entry):
        # a norm that overflows to inf would make vec / norm the zero vector
        with pytest.raises(FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
            initial_state(np.full(3, entry) + 1j * np.zeros(3))


def forward(mlp, x):
    """mlp_forward_cached of x (..., in), into rows from mlp_buffers: the output and
    each layer's input."""
    rows = mlp_buffers(mlp, x.shape[:-1], x.shape[-1])[1:]
    mlp_forward_cached(mlp, x, rows)
    return rows[-1], [x, *rows[:-1]]


class TestMlpForward:
    def test_zero_everything(self):
        mlp = MlpParams(weights=[np.zeros((3, 2)), np.zeros((4, 3))],
                        biases=[np.zeros(3), np.zeros(4)])
        assert np.array_equal(forward(mlp, np.zeros(2))[0], np.zeros(4))

    def test_single_identity_layer(self):
        mlp = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([0.2, -1.0, 4.0])
        assert np.array_equal(forward(mlp, x)[0], x)

    def test_scalar_recomputation(self):
        w0 = np.array([[0.5, -0.3], [1.2, 0.1]])
        b0 = np.array([0.05, -0.2])
        w1 = np.array([[2.0, -1.0]])
        b1 = np.array([0.7])
        mlp = MlpParams(weights=[w0, w1], biases=[b0, b1])
        x = np.array([0.9, -0.4])
        hidden = np.tanh(w0 @ x + b0)
        expected = w1 @ hidden + b1
        assert np.abs(forward(mlp, x)[0] - expected).max() < 1e-14

    def test_width_mismatch(self):
        mlp = MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        with pytest.raises(ConfigurationError):
            forward(mlp, np.zeros(2))


class TestMlpBackward:
    def test_single_input_matches_one_row(self):
        rng = make_rng(3)
        mlp = MlpParams(weights=[rng.standard_normal((4, 3)), rng.standard_normal((2, 4))],
                        biases=[rng.standard_normal(4), rng.standard_normal(2)])
        x, g_out = rng.standard_normal(3), rng.standard_normal(2)
        single, rows = forward(mlp, x)[1], forward(mlp, x[None])[1]
        g_rows, r_rows = mlp_buffers(mlp, (), 3), mlp_buffers(mlp, (1,), 3)
        g_rows[-1][...], r_rows[-1][...] = g_out, g_out[None]
        g_x = mlp_backward(mlp, [1.0 - h ** 2 for h in single[1:]], g_rows)
        r_x = mlp_backward(mlp, [1.0 - h ** 2 for h in rows[1:]], r_rows)
        g_pre, r_pre = g_rows[1:], r_rows[1:]  # the pre-activation gradients, in place
        g_w, g_b = mlp_weight_grads(single, g_pre)
        r_w, r_b = mlp_weight_grads(rows, r_pre)
        assert g_x.shape == x.shape and np.array_equal(g_x, r_x[0])
        for got, ref in zip(g_w + g_b, r_w + r_b):
            assert got.shape == ref.shape and np.array_equal(got, ref)
        # explicit chain rule for the single input
        h = np.tanh(mlp.weights[0] @ x + mlp.biases[0])
        g_h = (mlp.weights[1].T @ g_out) * (1.0 - h ** 2)
        assert np.abs(g_w[1] - np.outer(g_out, h)).max() < 1e-14
        assert np.abs(g_b[0] - g_h).max() < 1e-14
        assert np.abs(g_x - mlp.weights[0].T @ g_h).max() < 1e-14


class TestFactorLayout:
    def test_split_shapes(self):
        n, r = 3, 2
        out = np.arange(2 * n * r + n, dtype=float)
        phi, delta = split_factor_output(out, n, r)
        assert phi.shape == (n, r)
        assert delta.shape == (n,)
        # channel 0, row 0 holds the first (re, im) pair, and row 1 the second
        assert phi[0, 0] == 0.0 + 1.0j
        assert phi[1, 0] == 2.0 + 3.0j
        assert np.array_equal(delta, out[2 * n * r:])

    def test_merge_is_adjoint_of_split(self):
        # gradients written through split's views of an output-gradient row (the
        # backward pass's merge) give <merged, out> = Re<gp, phi> + <gd, delta>
        rng = make_rng(3)
        n, r = 4, 3
        out = rng.standard_normal(2 * n * r + n)
        phi, delta = split_factor_output(out, n, r)
        g_phi = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        g_delta = rng.standard_normal(n)
        merged = np.empty_like(out)
        view_phi, view_delta = split_factor_output(merged, n, r)
        view_phi[...], view_delta[...] = g_phi, g_delta
        lhs = merged @ out
        rhs = np.sum(np.real(np.conj(g_phi) * phi)) + g_delta @ delta
        assert abs(lhs - rhs) < 1e-12

    def test_bad_width(self):
        with pytest.raises(ConfigurationError):
            split_factor_output(np.zeros(7), 3, 2)


class TestGenerateInteraction:
    def test_zero_params(self):
        model = init_full_model(n=3, r=2, d=2, v=4, v_in=3, seed=0)
        for w in model.mlp.weights:
            w[:] = 0.0
        psi = initial_state(model.h0)
        f = generate_interaction(model.mlp, model.embed[0], psi, model.r)
        assert np.abs(f.phi).max() == 0.0
        assert np.abs(f.delta).max() == 0.0

    def test_hermitian_over_many_draws(self):
        rng = make_rng(4)
        for draw in range(1000):
            model = init_full_model(n=3, r=2, d=2, v=4, v_in=3, seed=draw, hidden=[5])
            psi = initial_state(model.h0)
            x = rng.standard_normal(2)
            f = generate_interaction(model.mlp, x, psi, model.r)
            h = f.materialize()
            assert np.abs(h - h.conj().T).max() < 1e-12


class TestInitMlp:
    @pytest.mark.parametrize("n, r", [(2, 1), (3, 2), (64, 4)])
    def test_weights_are_the_uniform_draws_of_their_stream(self, n, r, monkeypatch):
        made = {}

        def recording_rng(seed, stream=0):
            made[stream] = make_rng(seed, stream)
            return made[stream]

        monkeypatch.setattr(hamgen, "make_rng", recording_rng)
        for seed in range(10):
            model = init_full_model(n=n, r=r, d=3, v=n, v_in=4, seed=seed)
            ref = make_rng(seed, stream=101)
            for layer, w in enumerate(model.mlp.weights):
                bound = 1.0 / np.sqrt(w.shape[1])
                want = ref.uniform(-bound, bound, size=w.shape)
                if layer == len(model.mlp.weights) - 1:
                    want = 0.01 * want
                assert w.tobytes() == want.tobytes()
                assert not model.mlp.biases[layer].any()
            assert made[101].random() == ref.random()  # the stream moved as far


class TestSerialization:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # the encoder fails on the last field, after the earlier ones are encoded
        path = tmp_path / "model.json"
        save_model(init_full_model(n=2, r=1, d=2, v=4, v_in=3, seed=0), str(path))
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            write_json(str(path), {"n": 2, "init_a": np.ones(2), "broken": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_roundtrip_exact(self, tmp_path):
        model = init_full_model(n=3, r=2, d=2, v=9, v_in=5, dt=0.5, seed=17)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.h0, loaded.h0)
        assert np.array_equal(model.frequencies, loaded.frequencies)
        assert np.array_equal(model.embed, loaded.embed)
        for w1, w2 in zip(model.mlp.weights, loaded.mlp.weights):
            assert np.array_equal(w1, w2)
        assert np.array_equal(model.meas_raw, loaded.meas_raw)
        assert (model.n, model.r, model.dt, model.seed) == (
            loaded.n, loaded.r, loaded.dt, loaded.seed)

    def test_bad_dims_rejected(self):
        # the message names the rule that failed
        with pytest.raises(ConfigurationError, match="^n=0 is below 1$"):
            init_full_model(n=0, r=1, d=1, v=1, v_in=1)
        with pytest.raises(ConfigurationError, match="^v_in=0 is below 1$"):
            init_full_model(n=2, r=1, d=1, v=2, v_in=0)
        with pytest.raises(ConfigurationError,
                           match="^v=4 is below n=6; the Born readout needs v >= n$"):
            init_full_model(n=6, r=2, d=4, v=4, v_in=3)
