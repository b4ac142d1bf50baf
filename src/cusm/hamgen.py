"""Learnable components that generate the dynamics.

The generator network g is a plain affine-tanh feedforward net mapping the
concatenation [embedding, Re(state), Im(state)] to 2*N*r + N real outputs:
the low-rank factor Phi (real/imag interleaved per entry, column-major over
channels) followed by the diagonal shift delta. Learnable frequencies lambda
set the baseline phase rotation exp(i lambda t dt), the interaction picture in
which the factors act. A model's raw start vector h0 is one complex array,
normalised on use by numerics.initial_state, as every model kind's is; its
checkpoint keeps the real and imaginary parts as the fields init_a and init_b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import checked_array, read_json, write_json
from .exceptions import ConfigurationError, DegenerateInitializationError
from .numerics import check_allocation, ginibre, initial_state, make_rng


@dataclass
class MlpParams:
    """Affine-tanh-...-affine net; the final layer is linear."""

    weights: list = field(default_factory=list)  # layer l: (out_l, in_l)
    biases: list = field(default_factory=list)   # layer l: (out_l,)


@dataclass
class FullModelParams:
    h0: np.ndarray                 # raw initial state, (N,) complex
    frequencies: np.ndarray        # lambda, (N,) real
    embed: np.ndarray              # token embeddings, (V_in, d) real
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
        return self.embed.shape[1]

    @property
    def v_in(self) -> int:
        return self.embed.shape[0]

    def arrays(self) -> list:
        """The trainable arrays in the order of the flat parameter vector."""
        # kept: h0 first, so the flat vector leads with [Re h0, Im h0], the first draws of the
        # stream (tests/test_train.py::TestFlattening::
        # test_template_leads_with_the_first_draws_of_its_stream)
        layers = [arr for pair in zip(self.mlp.weights, self.mlp.biases) for arr in pair]
        return [self.h0, self.frequencies, self.embed, *layers, self.meas_raw]

    def with_arrays(self, arrays: list) -> FullModelParams:
        """This model's settings with new arrays, given in arrays() order."""
        h0, frequencies, embed, *layers, meas_raw = arrays
        return FullModelParams(
            h0=h0, frequencies=frequencies, embed=embed,
            mlp=MlpParams(weights=layers[0::2], biases=layers[1::2]),
            meas_raw=meas_raw, dt=self.dt, n=self.n, r=self.r, seed=self.seed,
        )


def mlp_buffers(mlp: MlpParams, lead: tuple, width: int) -> list:
    """Empty rows (*lead, width_l) for each layer's input and for the output, once
    every layer's input width is checked against the width before it."""
    widths = [width, *(w.shape[0] for w in mlp.weights)]
    for layer, w in enumerate(mlp.weights):
        if w.shape[1] != widths[layer]:
            raise ConfigurationError(f"layer {layer} expects input width {w.shape[1]}, "
                                     f"got {widths[layer]}")
    return [np.empty((*lead, k)) for k in widths]


def mlp_forward_cached(mlp: MlpParams, x: np.ndarray, out: list) -> None:
    """Forward pass of one input or of rows (B, in) into rows the caller took from
    mlp_buffers: layer l writes its output, the next layer's input, into out[l], so
    out[-1] ends as the network's output and [x, *out[:-1]] as each layer's input."""
    h = x
    for layer, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        # kept: float64 weights in (out, in) layout; transposed contiguous ones read 55 against
        # 64 us for rollout-full's three products but round differently (tests/test_properties.py::
        # test_gram_check_after_the_loop_equals_the_check_in_it_bit_for_bit)
        h = np.matmul(h, w.T, out=out[layer])
        h += b
        if layer < len(mlp.weights) - 1:
            np.tanh(h, out=h)


def mlp_backward(mlp: MlpParams, inputs: list, out: list) -> np.ndarray:
    """Reverse sweep of the output gradient that the caller put in out[-1], in place through
    the rows `out` from mlp_buffers, on the inputs cached by mlp_forward_cached for one input
    or rows (B, in): out[l + 1] ends as layer l's pre-activation gradient rows (B, out_l),
    for mlp_weight_grads, and out[0] as the input gradient, which is returned."""
    for layer in range(len(mlp.weights) - 1, -1, -1):
        np.matmul(out[layer + 1], mlp.weights[layer], out=out[layer])
        if layer:
            # tanh'(z) = 1 - tanh(z)^2, and tanh(z) is this layer's input
            out[layer] *= 1.0 - inputs[layer] ** 2
    return out[0]


def mlp_weight_grads(inputs: list, g_pre: list) -> tuple[list, list]:
    """Weight and bias gradients summed over all rows of each layer's inputs and
    mlp_backward's pre-activation gradients, stacked alike (..., width)."""
    rows = [(g.reshape(-1, g.shape[-1]), h.reshape(-1, h.shape[-1])) for g, h in zip(g_pre, inputs)]
    return [g.T @ h for g, h in rows], [g.sum(axis=0) for g, _ in rows]


def split_factor_output(out: np.ndarray, n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed output layout: for channel a, then row j, (Re, Im) of Phi[j, a]; then
    delta. Rows (..., 2*N*r + N) give views of float64 `out`: the pair phi
    (..., N, r), complex, and delta (..., N)."""
    if out.shape[-1] != 2 * n * r + n:
        raise ConfigurationError(f"output width {out.shape[-1]} != 2*N*r + N = {2 * n * r + n}")
    phi = out[..., : 2 * n * r].view(complex).reshape(*out.shape[:-1], r, n).swapaxes(-1, -2)
    return phi, out[..., 2 * n * r :]


def init_mlp(in_width: int, out_width: int, hidden: list[int], seed: int) -> MlpParams:
    """Uniform(+-1/sqrt(fan_in)) weights; final layer scaled down so training
    starts near the free dynamics (small interaction keeps the Cayley solve
    well conditioned)."""
    rng = make_rng(seed, stream=101)
    widths = [in_width] + list(hidden) + [out_width]
    weights = [rng.random((fan_out, fan_in)) for fan_in, fan_out in zip(widths, widths[1:])]
    for w in weights:
        # rng.uniform(-bound, bound) of the same stream: its low + (high - low) u, in place
        bound = 1.0 / np.sqrt(w.shape[1])
        w *= bound - -bound
        w += -bound
    weights[-1] *= 0.01
    return MlpParams(weights=weights, biases=[np.zeros(w.shape[0]) for w in weights])


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
        low = [f"{k}={size}" for k, size in dict(n=n, r=r, d=d, v=v, v_in=v_in).items() if size < 1]
        raise ConfigurationError(f"{low[0]} is below 1" if low
                                 else f"v={v} is below n={n}; the Born readout needs v >= n")
    hidden = [4 * n, 4 * n] if hidden is None else hidden
    widths = [d + 2 * n, *hidden, 2 * n * r + n]
    check_allocation(8 * (v_in * d + 2 * n * v + sum(a * b for a, b in zip(widths, widths[1:]))),
                     f"a model with n={n}, r={r}, d={d}, v={v} and v_in={v_in}")
    rng = make_rng(seed, stream=100)
    mlp = init_mlp(widths[0], widths[-1], hidden, seed)
    return FullModelParams(
        h0=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        frequencies=np.linspace(-np.pi / 2, np.pi / 2, n),
        embed=rng.standard_normal((v_in, d)) / np.sqrt(d),
        mlp=mlp,
        meas_raw=ginibre(rng, n, v), dt=dt, n=n, r=r, seed=seed,
    )


def save_model(model: FullModelParams, path: str) -> None:
    """JSON checkpoint. Field order is fixed: dims, seed, dt, h0's parts init_a/init_b,
    frequencies, embedding, mlp layers in order, then meas_raw as [re, im]."""
    write_json(path, {
        "n": model.n,
        "r": model.r,
        "d": model.d,
        "v": model.v,
        "v_in": model.v_in,
        "seed": model.seed,
        "dt": model.dt,
        "init_a": model.h0.real,
        "init_b": model.h0.imag,
        "frequencies": model.frequencies,
        "embed": model.embed,
        "mlp_weights": model.mlp.weights,
        "mlp_biases": model.mlp.biases,
        "meas_raw": model.meas_raw,
    })


def load_model(path: str) -> FullModelParams:
    """Inverse of save_model; a field of the wrong type or shape, out of range (n, r, d,
    v_in >= 1, v >= n, seed >= 0, finite dt > 0), MLP layers that do not chain
    from d + 2N inputs to 2Nr + N outputs, or a start vector init_a + i init_b
    whose norm is zero or not finite, is a ConfigurationError."""
    doc = read_json(path)
    n, r, d, v_in = (doc.integer(key, 1) for key in ("n", "r", "d", "v_in"))
    v, dt = doc.integer("v", n), doc.number("dt")
    if not 0.0 < dt < np.inf:
        raise ConfigurationError(f"{path}: field 'dt' must be finite and > 0, got {dt}")
    weights, biases = doc["mlp_weights"], doc["mlp_biases"]
    if not isinstance(weights, list) or not isinstance(biases, list) \
            or not weights or len(weights) != len(biases):
        raise ConfigurationError(f"{path}: mlp_weights and mlp_biases must be lists "
                                 "of one array per layer")
    width, layers = d + 2 * n, []
    for layer, (w, b) in enumerate(zip(weights, biases)):
        w = checked_array(w, (None, width), f"{path}: mlp_weights[{layer}]")
        width = w.shape[0]
        layers.append((w, checked_array(b, (width,), f"{path}: mlp_biases[{layer}]")))
    if width != 2 * n * r + n:
        raise ConfigurationError(f"{path}: last MLP layer has {width} outputs, "
                                 f"expected 2*N*r + N = {2 * n * r + n}")
    # kept: part by part, not a + 1j * b, which turns a -0.0 part into +0.0
    # (tests/test_properties.py::test_model_file_round_trip_is_bit_exact)
    h0 = np.empty(n, dtype=complex)
    h0.real, h0.imag = doc.array("init_a", (n,)), doc.array("init_b", (n,))
    try:
        with np.errstate(over="ignore"):
            initial_state(h0)
    except (DegenerateInitializationError, FloatingPointError) as exc:
        raise ConfigurationError(f"{path}: fields 'init_a' and 'init_b': {exc}") from None
    return FullModelParams(
        h0=h0, frequencies=doc.array("frequencies", (n,)),
        embed=doc.array("embed", (v_in, d)),
        mlp=MlpParams(weights=[w for w, _ in layers], biases=[b for _, b in layers]),
        meas_raw=doc.array("meas_raw", (n, v), complex_=True),
        dt=dt, n=n, r=r, seed=doc.integer("seed", 0),
    )
