"""Learnable components that generate the dynamics.

The generator network g is a plain affine-tanh feedforward net mapping the
concatenation [embedding, Re(state), Im(state)] to 2*N*r + N real outputs:
the low-rank factor Phi (real/imag interleaved per entry, column-major over
channels) followed by the diagonal shift delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import complex_array, read_json, write_json
from .dynamics import InteractionFactors
from .exceptions import ConfigurationError, DegenerateInitializationError
from .numerics import ginibre, make_rng


@dataclass
class InitialStateParams:
    a: np.ndarray
    b: np.ndarray


@dataclass
class EmbeddingTable:
    vectors: np.ndarray  # (V_in, d) real


@dataclass
class MlpParams:
    """Affine-tanh-...-affine net; the final layer is linear."""

    weights: list = field(default_factory=list)  # layer l: (out_l, in_l)
    biases: list = field(default_factory=list)   # layer l: (out_l,)

    @property
    def in_width(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_width(self) -> int:
        return self.weights[-1].shape[0]


@dataclass
class FullModelParams:
    init: InitialStateParams
    frequencies: np.ndarray        # lambda, (N,) real
    embed: EmbeddingTable
    mlp: MlpParams
    meas_raw: np.ndarray           # (N, V) complex, pre-projection
    dt: float
    n: int
    r: int
    seed: int = 0

    @property
    def v(self) -> int:
        return self.meas_raw.shape[1]

    @property
    def d(self) -> int:
        return self.embed.vectors.shape[1]

    def arrays(self) -> list:
        """The trainable arrays in the order of the flat parameter vector."""
        layers = [arr for pair in zip(self.mlp.weights, self.mlp.biases) for arr in pair]
        return [self.init.a, self.init.b, self.frequencies, self.embed.vectors, *layers,
                self.meas_raw]

    def with_arrays(self, arrays: list) -> FullModelParams:
        """This model's settings with new arrays, given in arrays() order."""
        a, b, frequencies, embed, *layers, meas_raw = arrays
        return FullModelParams(
            init=InitialStateParams(a=a, b=b), frequencies=frequencies,
            embed=EmbeddingTable(vectors=embed),
            mlp=MlpParams(weights=layers[0::2], biases=layers[1::2]),
            meas_raw=meas_raw, dt=self.dt, n=self.n, r=self.r, seed=self.seed,
        )


def initial_state(params: InitialStateParams) -> np.ndarray:
    """psi(0) = (a + i b) / ||a + i b||."""
    vec = params.a + 1j * params.b
    norm = np.linalg.norm(vec)
    if norm < 1e-300:
        raise DegenerateInitializationError("initial-state parameter vector is zero")
    return vec / norm


def mlp_forward(mlp: MlpParams, x: np.ndarray) -> np.ndarray:
    y, _ = mlp_forward_cached(mlp, x)
    return y


def mlp_forward_cached(mlp: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass of one input or of rows (B, in), keeping per-layer inputs."""
    inputs = []
    h = np.asarray(x, dtype=float)
    last = len(mlp.weights) - 1
    for layer, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        if w.shape[1] != h.shape[-1]:
            raise ConfigurationError(
                f"layer {layer} expects input width {w.shape[1]}, got {h.shape[-1]}"
            )
        inputs.append(h)
        h = h @ w.T + b
        if layer != last:
            h = np.tanh(h)
    return h, inputs


def mlp_backward(mlp: MlpParams, inputs: list, g_out: np.ndarray):
    """Gradients of a scalar loss wrt weights and biases (summed over the rows)
    and the input, from the inputs cached by mlp_forward_cached for one input
    or for rows (B, in); the input gradient has the shape of the input."""
    g_w = [None] * len(mlp.weights)
    g_b = [None] * len(mlp.biases)
    rows = [np.atleast_2d(h) for h in inputs]
    g = np.atleast_2d(np.asarray(g_out, dtype=float))
    last = len(mlp.weights) - 1
    for layer in range(last, -1, -1):
        if layer != last:
            # tanh'(z) = 1 - tanh(z)^2, and tanh(z) is the next layer's input
            g = g * (1.0 - rows[layer + 1] ** 2)
        g_w[layer] = g.T @ rows[layer]
        g_b[layer] = g.sum(axis=0)
        g = g @ mlp.weights[layer]
    return g_w, g_b, g.reshape(np.shape(inputs[0]))


def split_factor_output(out: np.ndarray, n: int, r: int) -> InteractionFactors:
    """Fixed output layout: for channel a, then row j, (Re, Im) of Phi[j, a]; then
    delta. Leading axes are kept: rows (B, 2*N*r + N) give phi (B, N, r)."""
    if out.shape[-1] != 2 * n * r + n:
        raise ConfigurationError(f"output width {out.shape[-1]} != 2*N*r + N = {2 * n * r + n}")
    pairs = out[..., : 2 * n * r].reshape(*out.shape[:-1], r, n, 2)
    phi = (pairs[..., 0] + 1j * pairs[..., 1]).swapaxes(-1, -2)  # (..., N, r)
    delta = out[..., 2 * n * r :]
    return InteractionFactors(phi=phi, delta=delta.copy())


def merge_factor_grads(g_phi: np.ndarray, g_delta: np.ndarray) -> np.ndarray:
    """Adjoint of split_factor_output: complex Phi gradient back to real outputs."""
    *lead, n, r = g_phi.shape
    pairs = np.stack([g_phi.real, g_phi.imag], axis=-1)  # (..., N, r, 2)
    flat = pairs.swapaxes(-3, -2).reshape(*lead, 2 * n * r)
    return np.concatenate([flat, g_delta], axis=-1)


def generate_interaction(
    mlp: MlpParams, embed_vec: np.ndarray, state: np.ndarray, r: int
) -> InteractionFactors:
    """Run the generator network on (embedding, Re/Im of state) and assemble (Phi, delta)."""
    n = state.shape[0]
    x = np.concatenate([embed_vec, state.real, state.imag])
    out = mlp_forward(mlp, x)
    return split_factor_output(out, n, r)


def init_mlp(in_width: int, out_width: int, hidden: list[int], seed: int) -> MlpParams:
    """Uniform(+-1/sqrt(fan_in)) weights; final layer scaled down so training
    starts near the free dynamics (small interaction keeps the Cayley solve
    well conditioned)."""
    rng = make_rng(seed, stream=101)
    widths = [in_width] + list(hidden) + [out_width]
    weights, biases = [], []
    for layer in range(len(widths) - 1):
        fan_in = widths[layer]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(widths[layer + 1], widths[layer]))
        b = np.zeros(widths[layer + 1])
        if layer == len(widths) - 2:
            w = 0.01 * w
        weights.append(w)
        biases.append(b)
    return MlpParams(weights=weights, biases=biases)


def init_full_model(
    n: int,
    r: int,
    d: int,
    v: int,
    v_in: int,
    dt: float = 1.0,
    seed: int = 0,
    hidden: list[int] | None = None,
) -> FullModelParams:
    """Fresh model with the documented defaults (tanh MLP, 2 hidden layers of 4N)."""
    if min(n, r, d, v, v_in) < 1 or v < n:
        raise ConfigurationError(f"bad dims n={n} r={r} d={d} v={v} v_in={v_in}")
    rng = make_rng(seed, stream=100)
    if hidden is None:
        hidden = [4 * n, 4 * n]
    mlp = init_mlp(d + 2 * n, 2 * n * r + n, hidden, seed)
    return FullModelParams(
        init=InitialStateParams(a=rng.standard_normal(n), b=rng.standard_normal(n)),
        frequencies=np.linspace(-np.pi / 2, np.pi / 2, n),
        embed=EmbeddingTable(vectors=rng.standard_normal((v_in, d)) / np.sqrt(d)),
        mlp=mlp,
        meas_raw=ginibre(rng, n, v),
        dt=dt,
        n=n,
        r=r,
        seed=seed,
    )


def save_model(model: FullModelParams, path: str) -> None:
    """JSON checkpoint. Field order is fixed: dims, seed, dt, init a/b,
    frequencies, embedding, mlp layers in order, then meas_raw as [re, im]."""
    write_json(path, {
        "n": model.n,
        "r": model.r,
        "d": model.d,
        "v": model.v,
        "v_in": model.embed.vectors.shape[0],
        "seed": model.seed,
        "dt": model.dt,
        "init_a": model.init.a,
        "init_b": model.init.b,
        "frequencies": model.frequencies,
        "embed": model.embed.vectors,
        "mlp_weights": model.mlp.weights,
        "mlp_biases": model.mlp.biases,
        "meas_raw": model.meas_raw,
    })


def load_model(path: str) -> FullModelParams:
    doc = read_json(path)
    return FullModelParams(
        init=InitialStateParams(
            a=np.asarray(doc["init_a"], dtype=float),
            b=np.asarray(doc["init_b"], dtype=float),
        ),
        frequencies=np.asarray(doc["frequencies"], dtype=float),
        embed=EmbeddingTable(vectors=np.asarray(doc["embed"], dtype=float)),
        mlp=MlpParams(
            weights=[np.asarray(w, dtype=float) for w in doc["mlp_weights"]],
            biases=[np.asarray(b, dtype=float) for b in doc["mlp_biases"]],
        ),
        meas_raw=complex_array(doc["meas_raw"]),
        dt=float(doc["dt"]),
        n=int(doc["n"]),
        r=int(doc["r"]),
        seed=int(doc["seed"]),
    )
