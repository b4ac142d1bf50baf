"""Desk-scale optimization.

Losses, the analytic adjoint backward pass through the Cayley solves, a
central-difference gradient oracle, Adam with cosine decay, and drivers for
the separation-task experiments (trainable unitary model, real orthogonal
baseline, and the full generated-Hamiltonian model).

Gradient convention for complex parameters: the gradient g of a real loss
with respect to a complex quantity z is defined by dL = Re(conj(g) . dz),
so g.real and g.imag are the ordinary partials with respect to the real and
imaginary parts. All vector-Jacobian rules below follow this convention.
"""

from __future__ import annotations

import copy
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    InteractionFactors,
    _apply_cayley_side,
    _lowrank_solve,
    evolve_fixed_unitaries,
    evolve_full_batch,
    evolve_full_model,
    schrodinger_state,
)
from .exceptions import ConfigurationError
from .hamgen import (
    FullModelParams,
    InitialStateParams,
    init_full_model,
    initial_state,
    merge_factor_grads,
    mlp_backward,
)
from .numerics import ginibre, make_rng, thin_qr_unique
from .readout import (
    PROB_FLOOR,
    born_probabilities,
    diagonal_only_probabilities,
    floored_log,
    project_measurement,
)
from .septask import CusmParams, TaskInstance, TargetTable, build_exact_cusm, target_table

GAP_ZERO_THRESHOLD = 1e-3


@dataclass
class GradientBundle:
    """Gradients for every field of FullModelParams, same shapes."""

    loss: float
    g_a: np.ndarray
    g_b: np.ndarray
    g_frequencies: np.ndarray
    g_embed: np.ndarray
    g_mlp_w: list
    g_mlp_b: list
    g_meas_raw: np.ndarray  # complex, convention above

    def assert_finite(self) -> None:
        for arr in [self.g_a, self.g_b, self.g_frequencies, self.g_embed,
                    self.g_meas_raw, *self.g_mlp_w, *self.g_mlp_b]:
            if not np.all(np.isfinite(arr).all() if np.iscomplexobj(arr) else np.isfinite(arr)):
                raise FloatingPointError("non-finite gradient entry")


@dataclass
class TrainReport:
    seed: int
    model_kind: str
    dim: int
    loss_trace: list
    final_nll: float
    entropy_floor: float
    gap: float
    gap_zero: bool
    stopped: str           # "epochs", "early_stop", or "diverged"
    wall_clock: float
    warning_count: int = 0
    extra: dict = field(default_factory=dict)


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 5000
    early_stop_gap: float = 1e-4
    clip_norm: float = 10.0


def nll_loss(prob_trajectory: np.ndarray, targets) -> float:
    """Sum of -log p(target) over steps, nats. Warns if the underflow floor fires."""
    probs = np.atleast_2d(np.asarray(prob_trajectory, dtype=float))
    targets = list(targets)
    if probs.shape[0] != len(targets):
        raise ConfigurationError(
            f"{probs.shape[0]} probability rows vs {len(targets)} targets"
        )
    picked = probs[np.arange(len(targets)), targets]
    logs, floored = floored_log(picked)
    if floored:
        warnings.warn("target probability underflowed; loss computed with floor")
    return float(-logs.sum())


def entropy_floor(table: TargetTable) -> float:
    """Mean Shannon entropy of the target rows: the minimum achievable mean NLL."""
    p = table.pstar
    terms = np.where(p > 0.0, p * np.log(np.maximum(p, PROB_FLOOR)), 0.0)
    return float(-terms.sum(axis=1).mean())


# ---------------------------------------------------------------------------
# adjoint building blocks

def adjoint_state_step(factors: InteractionFactors, dt: float, g: np.ndarray,
                       step: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pull a state adjoint g (..., N) back through one Cayley step, factors held fixed.

    The map is the conjugate transpose of the step unitary, so the adjoint
    norm is exactly preserved: first solve A^dag s = g, then apply A. Returns
    the pulled-back adjoint A s and s, both shaped like g.
    """
    c = 0.5j * dt
    s, _ = _lowrank_solve(factors.phi, factors.delta, -c, g[..., None], step)
    return _apply_cayley_side(factors.phi, factors.delta, c, s)[..., 0], s[..., 0]


def _qr_projection_vjp(raw: np.ndarray, g_meas: np.ndarray) -> np.ndarray:
    """Backward through project_measurement (thin QR of raw^dag, Q part only)."""
    a = raw.conj().T
    q, r = thin_qr_unique(a)
    g_q = g_meas.conj().T
    b = q.conj().T @ g_q
    upper = np.triu(b, 1)
    w = upper + upper.conj().T + np.diag(np.real(np.diag(b)))
    r_inv_dag = np.linalg.inv(r).conj().T
    g_a = (g_q - q @ w) @ r_inv_dag
    return g_a.conj().T


def _initial_state_vjp(params: InitialStateParams, g_psi0: np.ndarray):
    """Backward through psi0 = (a + ib)/||a + ib||."""
    vec = params.a + 1j * params.b
    norm = np.linalg.norm(vec)
    psi0 = vec / norm
    beta = float(np.real(np.vdot(g_psi0, psi0)))
    g_v = (g_psi0 - beta * psi0) / norm
    return g_v.real, g_v.imag


def _born_readout_vjp(meas: np.ndarray, psi: np.ndarray, weights: np.ndarray):
    """Gradients of -sum_k w_k log p_k at p = |M^dag psi|^2 for state columns
    psi (N, B) and weight columns (V, B); loss and g_meas are summed over columns."""
    z = meas.conj().T @ psi
    p = np.abs(z) ** 2
    g_p = -weights / np.maximum(p, PROB_FLOOR)
    g_z = 2.0 * g_p * z
    g_psi = meas @ g_z
    g_meas = psi @ g_z.conj().T
    logs, _ = floored_log(p)
    loss = float(-np.vdot(weights, logs))
    return loss, g_psi, g_meas


# ---------------------------------------------------------------------------
# full model: forward loss and the adjoint backward pass

def _loss_full(model: FullModelParams, tokens: np.ndarray, target_weights: np.ndarray) -> float:
    """Forward-only loss of a (B, T) token batch, summed over the batch; entry
    [b, t] of the (B, T, V) target_weights weights readout b after step t."""
    states, _, _, _ = evolve_full_batch(model, tokens)
    meas = project_measurement(model.meas_raw)
    loss = 0.0
    for t in range(target_weights.shape[1]):
        rows = target_weights[:, t]
        if not np.any(rows):
            continue
        psi_s = schrodinger_state(states[t + 1], model.frequencies, t + 1, model.dt)
        logs, _ = floored_log(born_probabilities(meas, psi_s.T))
        loss -= float(np.vdot(rows.T, logs))
    return loss


def full_model_loss(model: FullModelParams, tokens, target_weights: np.ndarray) -> float:
    """Forward-only loss; row t of target_weights weights the readout after step t."""
    return _loss_full(model, np.asarray([list(tokens)], dtype=int),
                      np.asarray(target_weights)[None])


def _backward_full(model: FullModelParams, tokens: np.ndarray,
                   target_weights: np.ndarray) -> GradientBundle:
    """Loss and gradients of a (B, T) token batch (weights as in _loss_full),
    summed over the batch. One stacked reverse traversal: Born readout, each
    Cayley solve via its adjoint system, interaction-picture phases, the
    generator network on the forward pass's cached activations, embeddings,
    frequencies, the shared initial state, and the QR measurement projection."""
    n, d, dt, lam = model.n, model.d, model.dt, model.frequencies
    states, factor_log, _, mlp_inputs = evolve_full_batch(model, tokens)
    meas = project_measurement(model.meas_raw)

    loss = 0.0
    g_psi = np.zeros_like(states[0])
    g_lam = np.zeros(n)
    g_embed = np.zeros_like(model.embed.vectors)
    g_w = [np.zeros_like(w) for w in model.mlp.weights]
    g_b = [np.zeros_like(b) for b in model.mlp.biases]
    g_meas = np.zeros_like(meas)
    c = 0.5j * dt

    for t in range(tokens.shape[1] - 1, -1, -1):
        psi_in = states[t]
        psi_out = states[t + 1]

        rows = target_weights[:, t]
        if np.any(rows):
            phase = np.exp(-1j * lam * ((t + 1) * dt))
            psi_s = phase * psi_out
            step_loss, g_psis, g_m = _born_readout_vjp(meas, psi_s.T, rows.T)
            loss += step_loss
            g_meas += g_m
            g_psi += np.conj(phase) * g_psis.T
            g_phase = np.sum(np.conj(psi_out) * g_psis.T, axis=0)
            g_lam += (-(t + 1) * dt) * np.real(np.conj(g_phase) * 1j * phase)

        # state adjoint through the step itself (norm-preserving)
        g_psi_step, s = adjoint_state_step(factor_log[t], dt, g_psi, step=t)

        # both sides of the solve touch X = phi phi^dag and delta; with
        # u = psi_in + psi_out, dL/dX = -conj(c) s u^dag, applied to phi
        phi_ip = factor_log[t].phi
        u = psi_in + psi_out
        g_phi_ip = (-np.conj(c) * s[..., None]) * (u.conj()[:, None, :] @ phi_ip) \
            - c * u[..., None] * (s.conj()[:, None, :] @ phi_ip)
        g_delta = np.real(np.conj(-s * np.conj(psi_out)) * c) \
            + np.real(np.conj(s * np.conj(psi_in)) * (-c))

        # undo the interaction-picture row phases on phi
        phase_row = np.exp(1j * lam * (t * dt))
        phi_raw = np.conj(phase_row)[:, None] * phi_ip
        g_phi_raw = np.conj(phase_row)[:, None] * g_phi_ip
        g_phase_row = np.sum(np.conj(phi_raw) * g_phi_ip, axis=(0, 2))
        g_lam += (t * dt) * np.real(np.conj(g_phase_row) * 1j * phase_row)

        # generator network, on the activations of the forward pass
        g_out = merge_factor_grads(g_phi_raw, g_delta)
        gw, gb, g_x_in = mlp_backward(model.mlp, mlp_inputs[t], g_out)
        for layer in range(len(g_w)):
            g_w[layer] += gw[layer]
            g_b[layer] += gb[layer]
        # np.add.at accumulates rows of sequences that share a token
        np.add.at(g_embed, tokens[:, t], g_x_in[:, :d])
        g_psi = g_psi_step + (g_x_in[:, d:d + n] + 1j * g_x_in[:, d + n:])

    g_a, g_b_init = _initial_state_vjp(model.init, g_psi.sum(axis=0))
    g_raw = _qr_projection_vjp(model.meas_raw, g_meas)

    bundle = GradientBundle(
        loss=loss, g_a=g_a, g_b=g_b_init, g_frequencies=g_lam, g_embed=g_embed,
        g_mlp_w=g_w, g_mlp_b=g_b, g_meas_raw=g_raw,
    )
    bundle.assert_finite()
    return bundle


def _one_hot_rows(targets, v: int) -> np.ndarray:
    rows = np.zeros((len(targets), v))
    rows[np.arange(len(targets)), list(targets)] = 1.0
    return rows


def backward_full_model(model: FullModelParams, tokens, targets) -> GradientBundle:
    """Adjoint gradients of the summed per-step negative log-likelihood."""
    return _backward_full(model, np.asarray([list(tokens)], dtype=int),
                          _one_hot_rows(list(targets), model.v)[None])


# ---------------------------------------------------------------------------
# flat parameter vector plumbing (shared by the optimizer and the FD oracle)

def flatten_model(model: FullModelParams) -> np.ndarray:
    parts = [model.init.a, model.init.b, model.frequencies, model.embed.vectors.ravel()]
    for w, b in zip(model.mlp.weights, model.mlp.biases):
        parts.extend([w.ravel(), b])
    parts.extend([model.meas_raw.real.ravel(), model.meas_raw.imag.ravel()])
    return np.concatenate(parts)


def unflatten_model(flat: np.ndarray, template: FullModelParams) -> FullModelParams:
    model = copy.deepcopy(template)
    pos = 0

    def take(shape):
        nonlocal pos
        size = int(np.prod(shape))
        out = flat[pos:pos + size].reshape(shape)
        pos += size
        return out.copy()

    model.init.a = take(model.init.a.shape)
    model.init.b = take(model.init.b.shape)
    model.frequencies = take(model.frequencies.shape)
    model.embed.vectors = take(model.embed.vectors.shape)
    model.mlp.weights = [None] * len(template.mlp.weights)
    model.mlp.biases = [None] * len(template.mlp.biases)
    for layer in range(len(template.mlp.weights)):
        model.mlp.weights[layer] = take(template.mlp.weights[layer].shape)
        model.mlp.biases[layer] = take(template.mlp.biases[layer].shape)
    re = take(model.meas_raw.shape)
    im = take(model.meas_raw.shape)
    model.meas_raw = re + 1j * im
    if pos != flat.shape[0]:
        raise ConfigurationError(f"flat vector length {flat.shape[0]}, consumed {pos}")
    return model


def flatten_bundle(bundle: GradientBundle) -> np.ndarray:
    parts = [bundle.g_a, bundle.g_b, bundle.g_frequencies, bundle.g_embed.ravel()]
    for gw, gb in zip(bundle.g_mlp_w, bundle.g_mlp_b):
        parts.extend([gw.ravel(), gb])
    parts.extend([bundle.g_meas_raw.real.ravel(), bundle.g_meas_raw.imag.ravel()])
    return np.concatenate(parts)


def central_difference(fn, x0: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function of a flat real vector."""
    grad = np.empty_like(x0)
    for i in range(x0.shape[0]):
        xp = x0.copy()
        xp[i] += step
        xm = x0.copy()
        xm[i] -= step
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def finite_difference_grad(model: FullModelParams, tokens, targets,
                           step: float = 1e-5) -> GradientBundle:
    """Central-difference gradient oracle; for tiny models only."""
    if not 1e-7 <= step <= 1e-3:
        raise ConfigurationError(f"step {step} outside [1e-7, 1e-3]")
    weights = _one_hot_rows(list(targets), model.v)
    flat0 = flatten_model(model)

    def loss_at(flat):
        return full_model_loss(unflatten_model(flat, model), tokens, weights)

    grad = central_difference(loss_at, flat0, step)
    # reuse the unflatten layout to carve the flat FD gradient into fields
    carved = unflatten_model(grad, model)
    return GradientBundle(
        loss=loss_at(flat0),
        g_a=carved.init.a,
        g_b=carved.init.b,
        g_frequencies=carved.frequencies,
        g_embed=carved.embed.vectors,
        g_mlp_w=carved.mlp.weights,
        g_mlp_b=carved.mlp.biases,
        g_meas_raw=carved.meas_raw,
    )


# ---------------------------------------------------------------------------
# Adam with cosine decay

def adam_cosine(flat0: np.ndarray, grad_fn, config: OptimizerConfig,
                stop_fn=None) -> tuple[np.ndarray, list, str]:
    """Full-batch Adam; grad_fn(flat) -> (loss, flat_grad). Returns the final
    parameters, the loss trace, and why the loop stopped."""
    x = flat0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trace = []
    stopped = "epochs"
    for epoch in range(config.epochs):
        loss, grad = grad_fn(x)
        trace.append(loss)
        if not np.isfinite(loss):
            stopped = "diverged"
            break
        if stop_fn is not None and stop_fn(loss):
            stopped = "early_stop"
            break
        gnorm = np.linalg.norm(grad)
        if gnorm > config.clip_norm:
            grad = grad * (config.clip_norm / gnorm)
        lr = config.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / max(1, config.epochs)))
        m = config.beta1 * m + (1.0 - config.beta1) * grad
        v = config.beta2 * v + (1.0 - config.beta2) * grad * grad
        mhat = m / (1.0 - config.beta1 ** (epoch + 1))
        vhat = v / (1.0 - config.beta2 ** (epoch + 1))
        x = x - lr * mhat / (np.sqrt(vhat) + config.eps)
    return x, trace, stopped


# ---------------------------------------------------------------------------
# trainable unitary model (per-token Cayley of skew-Hermitian generators)

@dataclass
class TrainableCusm:
    a: np.ndarray                 # initial state, real part
    b: np.ndarray                 # initial state, imaginary part
    gens: list                    # token -> (N, N) complex Z; S = Z - Z^dag
    meas_raw: np.ndarray          # (N, V) complex

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def unitary(self, token: int) -> np.ndarray:
        z = self.gens[token]
        s = z - z.conj().T
        eye = np.eye(self.dim, dtype=complex)
        return np.linalg.solve(eye + s, eye - s)


def init_trainable_cusm(n: int, v: int, alphabet: int, seed: int) -> TrainableCusm:
    rng = make_rng(seed, stream=200)
    scale = 0.1
    return TrainableCusm(
        a=rng.standard_normal(n),
        b=rng.standard_normal(n),
        gens=[scale * ginibre(rng, n, n) for _ in range(alphabet)],
        meas_raw=ginibre(rng, n, v),
    )


def _cusm_flatten(p: TrainableCusm) -> np.ndarray:
    parts = [p.a, p.b]
    for z in p.gens:
        parts.extend([z.real.ravel(), z.imag.ravel()])
    parts.extend([p.meas_raw.real.ravel(), p.meas_raw.imag.ravel()])
    return np.concatenate(parts)


def _cusm_unflatten(flat: np.ndarray, template: TrainableCusm) -> TrainableCusm:
    n = template.dim
    pos = 0

    def take(size):
        nonlocal pos
        out = flat[pos:pos + size]
        pos += size
        return out.copy()

    a = take(n)
    b = take(n)
    gens = []
    for _ in template.gens:
        re = take(n * n).reshape(n, n)
        im = take(n * n).reshape(n, n)
        gens.append(re + 1j * im)
    v = template.meas_raw.shape[1]
    re = take(n * v).reshape(n, v)
    im = take(n * v).reshape(n, v)
    return TrainableCusm(a=a, b=b, gens=gens, meas_raw=re + 1j * im)


def _cayley_generator_vjp(s: np.ndarray, w: np.ndarray, g_w: np.ndarray) -> np.ndarray:
    """Backward through W = (I + S)^{-1}(I - S): g_S = -(I+S)^{-dag} g_W (I+W)^dag."""
    eye = np.eye(s.shape[0], dtype=complex)
    lhs = np.linalg.solve((eye + s).conj().T, g_w)
    return -lhs @ (eye + w).conj().T


def _cusm_batch_grad(params: TrainableCusm, batch) -> tuple[float, TrainableCusm]:
    """Mean loss and gradients over (tokens, target_row) pairs; gradients are
    returned in a parameter-shaped container."""
    n = params.dim
    psi0 = initial_state(InitialStateParams(a=params.a, b=params.b))
    meas = project_measurement(params.meas_raw)
    unitaries = {tok: params.unitary(tok) for tok in range(len(params.gens))}

    loss = 0.0
    g_psi0 = np.zeros(n, dtype=complex)
    g_meas = np.zeros_like(meas)
    g_u = {tok: np.zeros((n, n), dtype=complex) for tok in unitaries}
    for tokens, target_row in batch:
        traj = evolve_fixed_unitaries(unitaries, psi0, tokens)
        step_loss, g_psi, g_m = _born_readout_vjp(meas, traj[-1][:, None], target_row[:, None])
        g_psi = g_psi[:, 0]
        loss += step_loss
        g_meas += g_m
        for t in range(len(tokens) - 1, -1, -1):
            g_u[tokens[t]] += np.outer(g_psi, traj[t].conj())
            g_psi = unitaries[tokens[t]].conj().T @ g_psi
        g_psi0 += g_psi

    scale = 1.0 / len(batch)
    g_a, g_b = _initial_state_vjp(InitialStateParams(a=params.a, b=params.b), scale * g_psi0)
    g_gens = []
    eye = np.eye(n, dtype=complex)
    for tok, z in enumerate(params.gens):
        s = z - z.conj().T
        g_s = _cayley_generator_vjp(s, unitaries[tok], scale * g_u[tok])
        g_gens.append(g_s - g_s.conj().T)
    g_raw = _qr_projection_vjp(params.meas_raw, scale * g_meas)
    grads = TrainableCusm(a=g_a, b=g_b, gens=g_gens, meas_raw=g_raw)
    return loss * scale, grads


def cusm_batch_loss(params: TrainableCusm, batch) -> float:
    psi0 = initial_state(InitialStateParams(a=params.a, b=params.b))
    meas = project_measurement(params.meas_raw)
    unitaries = {tok: params.unitary(tok) for tok in range(len(params.gens))}
    loss = 0.0
    for tokens, target_row in batch:
        traj = evolve_fixed_unitaries(unitaries, psi0, tokens)
        logs, _ = floored_log(born_probabilities(meas, traj[-1]))
        loss -= float(target_row @ logs)
    return loss / len(batch)


# ---------------------------------------------------------------------------
# trainable real orthogonal baseline

@dataclass
class TrainableRosm:
    h0_raw: np.ndarray           # (d,), normalized on use
    gens: list                   # token -> (d, d) real Z; S = Z - Z^T
    out_weights: np.ndarray      # (V, d)
    bias: np.ndarray             # (V,)

    @property
    def dim(self) -> int:
        return self.h0_raw.shape[0]

    def transition(self, token: int) -> np.ndarray:
        z = self.gens[token]
        s = z - z.T
        eye = np.eye(self.dim)
        return np.linalg.solve(eye + s, eye - s)


def init_trainable_rosm(d: int, v: int, alphabet: int, seed: int) -> TrainableRosm:
    rng = make_rng(seed, stream=201)
    return TrainableRosm(
        h0_raw=rng.standard_normal(d),
        gens=[0.1 * rng.standard_normal((d, d)) for _ in range(alphabet)],
        out_weights=rng.standard_normal((v, d)) / np.sqrt(d),
        bias=np.zeros(v),
    )


def _rosm_flatten(p: TrainableRosm) -> np.ndarray:
    parts = [p.h0_raw]
    parts.extend(z.ravel() for z in p.gens)
    parts.extend([p.out_weights.ravel(), p.bias])
    return np.concatenate(parts)


def _rosm_unflatten(flat: np.ndarray, template: TrainableRosm) -> TrainableRosm:
    d = template.dim
    v = template.bias.shape[0]
    pos = 0

    def take(size):
        nonlocal pos
        out = flat[pos:pos + size]
        pos += size
        return out.copy()

    h0 = take(d)
    gens = [take(d * d).reshape(d, d) for _ in template.gens]
    out_w = take(v * d).reshape(v, d)
    bias = take(v)
    return TrainableRosm(h0_raw=h0, gens=gens, out_weights=out_w, bias=bias)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    expz = np.exp(shifted)
    return expz / expz.sum()


def rosm_batch_loss(params: TrainableRosm, batch) -> float:
    h0 = params.h0_raw / np.linalg.norm(params.h0_raw)
    transitions = {tok: params.transition(tok) for tok in range(len(params.gens))}
    loss = 0.0
    for tokens, target_row in batch:
        h = h0
        for tok in tokens:
            h = transitions[tok] @ h
        q = _softmax(params.out_weights @ h + params.bias)
        logs, _ = floored_log(q)
        loss -= float(target_row @ logs)
    return loss / len(batch)


def _rosm_batch_grad(params: TrainableRosm, batch) -> tuple[float, TrainableRosm]:
    d = params.dim
    norm = np.linalg.norm(params.h0_raw)
    h0 = params.h0_raw / norm
    transitions = {tok: params.transition(tok) for tok in range(len(params.gens))}

    loss = 0.0
    g_h0 = np.zeros(d)
    g_q = {tok: np.zeros((d, d)) for tok in transitions}
    g_out = np.zeros_like(params.out_weights)
    g_bias = np.zeros_like(params.bias)
    for tokens, target_row in batch:
        states = [h0]
        for tok in tokens:
            states.append(transitions[tok] @ states[-1])
        q = _softmax(params.out_weights @ states[-1] + params.bias)
        logs, _ = floored_log(q)
        loss -= float(target_row @ logs)
        g_logits = q * target_row.sum() - target_row
        g_out += np.outer(g_logits, states[-1])
        g_bias += g_logits
        g_h = params.out_weights.T @ g_logits
        for t in range(len(tokens) - 1, -1, -1):
            g_q[tokens[t]] += np.outer(g_h, states[t])
            g_h = transitions[tokens[t]].T @ g_h
        g_h0 += g_h

    scale = 1.0 / len(batch)
    g_h0 *= scale
    g_raw = (g_h0 - h0 * float(h0 @ g_h0)) / norm
    g_gens = []
    eye = np.eye(d)
    for tok, z in enumerate(params.gens):
        s = z - z.T
        lhs = np.linalg.solve((eye + s).T, scale * g_q[tok])
        g_s = -lhs @ (eye + transitions[tok]).T
        g_gens.append(g_s - g_s.T)
    grads = TrainableRosm(h0_raw=g_raw, gens=g_gens,
                          out_weights=scale * g_out, bias=scale * g_bias)
    return loss * scale, grads


# ---------------------------------------------------------------------------
# experiment drivers

def _task_batch(task: TaskInstance, table: TargetTable) -> list:
    batch = []
    for i in range(task.n):
        for j in range(task.n):
            batch.append((task.sequence(i, j), table.pstar[i * task.n + j]))
    return batch


def exact_cusm_report(task: TaskInstance) -> TrainReport:
    """Evaluate the constructed exact solver; no training. The gap is rounding."""
    table = target_table(task)
    floor = entropy_floor(table)
    cusm = build_exact_cusm(task)
    start = time.perf_counter()
    loss = 0.0
    for tokens, target_row in _task_batch(task, table):
        traj = evolve_fixed_unitaries(cusm.unitaries, cusm.psi0, tokens)
        logs, _ = floored_log(born_probabilities(cusm.measurement, traj[-1]))
        loss -= float(target_row @ logs)
    loss /= task.n * task.n
    gap = loss - floor
    return TrainReport(
        seed=task.seed, model_kind="cusm-exact", dim=task.n, loss_trace=[loss],
        final_nll=loss, entropy_floor=floor, gap=gap,
        gap_zero=bool(abs(gap) < GAP_ZERO_THRESHOLD), stopped="epochs",
        wall_clock=time.perf_counter() - start,
    )


def train_on_task(task: TaskInstance, model_kind: str, dim: int | None = None,
                  config: OptimizerConfig | None = None, seeds=(0, 1, 2, 3, 4),
                  full_dims: dict | None = None) -> list[TrainReport]:
    """Per-seed training runs on a separation task.

    model_kind: "cusm-trainable" (unitary transitions, Born readout),
    "rosm" (orthogonal transitions, affine softmax), or "full" (generated
    Hamiltonians). The gap is final mean NLL minus the entropy floor and is
    declared zero below 1e-3 nats; convergence is reported, never asserted.
    """
    if config is None:
        config = OptimizerConfig()
    table = target_table(task)
    floor = entropy_floor(table)
    batch = _task_batch(task, table)
    alphabet = 2 * task.n + 1
    reports = []
    for seed in seeds:
        start = time.perf_counter()
        warning_count = 0
        extra = {}
        if model_kind == "cusm-trainable":
            n = dim if dim is not None else task.n
            template = init_trainable_cusm(n, task.v, alphabet, seed)

            def grad_fn(flat, _tmpl=template):
                loss, grads = _cusm_batch_grad(_cusm_unflatten(flat, _tmpl), batch)
                return loss, _cusm_flatten(grads)

            flat, trace, stopped = adam_cosine(
                _cusm_flatten(template), grad_fn, config,
                stop_fn=lambda loss: loss - floor < config.early_stop_gap,
            )
            final = cusm_batch_loss(_cusm_unflatten(flat, template), batch)
            report_dim = n
        elif model_kind == "rosm":
            if dim is None:
                raise ConfigurationError("rosm training needs an explicit dimension")
            template = init_trainable_rosm(dim, task.v, alphabet, seed)

            def grad_fn(flat, _tmpl=template):
                loss, grads = _rosm_batch_grad(_rosm_unflatten(flat, _tmpl), batch)
                return loss, _rosm_flatten(grads)

            flat, trace, stopped = adam_cosine(
                _rosm_flatten(template), grad_fn, config,
                stop_fn=lambda loss: loss - floor < config.early_stop_gap,
            )
            final = rosm_batch_loss(_rosm_unflatten(flat, template), batch)
            report_dim = dim
        elif model_kind == "full":
            dims = dict(full_dims or {})
            n = dims.get("n", task.n)
            template = init_full_model(
                n=n, r=dims.get("r", 1), d=dims.get("d", 2 * task.n),
                v=task.v, v_in=alphabet, dt=dims.get("dt", 1.0), seed=seed,
                hidden=dims.get("hidden"),
            )
            tokens = np.array([seq for seq, _ in batch])
            weights = np.zeros((*tokens.shape, task.v))
            weights[:, -1] = [row for _, row in batch]

            def grad_fn(flat, _tmpl=template):
                bundle = _backward_full(unflatten_model(flat, _tmpl), tokens, weights)
                return bundle.loss / len(batch), flatten_bundle(bundle) / len(batch)

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                flat, trace, stopped = adam_cosine(
                    flatten_model(template), grad_fn, config,
                    stop_fn=lambda loss: loss - floor < config.early_stop_gap,
                )
                warning_count = len(caught)
            final = _loss_full(unflatten_model(flat, template), tokens, weights) / len(batch)
            report_dim = n
        else:
            raise ConfigurationError(f"unknown model_kind {model_kind!r}")

        gap = final - floor
        if model_kind == "rosm":
            from .septask import RosmParams, softmax_rank_audit
            trained = _rosm_unflatten(flat, template)
            audit_params = RosmParams(
                h0=trained.h0_raw / np.linalg.norm(trained.h0_raw),
                generators={tok: z - z.T for tok, z in enumerate(trained.gens)},
                out_weights=trained.out_weights, bias=trained.bias,
            )
            extra["softmax_rank_audit"] = softmax_rank_audit(audit_params, task)
        reports.append(TrainReport(
            seed=seed, model_kind=model_kind, dim=report_dim, loss_trace=trace,
            final_nll=float(final), entropy_floor=floor, gap=float(gap),
            gap_zero=bool(gap < GAP_ZERO_THRESHOLD and np.isfinite(gap)),
            stopped=stopped, wall_clock=time.perf_counter() - start,
            warning_count=warning_count, extra=extra,
        ))
    return reports


def readout_ablation(model, eval_set) -> dict:
    """Mean NLL of the same trajectories under the full quadratic readout and
    the magnitude-only readout; eval_set is (tokens, target_row) pairs."""
    nll_born = 0.0
    nll_diag = 0.0
    for tokens, target_row in eval_set:
        if isinstance(model, CusmParams):
            traj = evolve_fixed_unitaries(model.unitaries, model.psi0, tokens)
            psi = traj[-1]
            meas = model.measurement
        elif isinstance(model, FullModelParams):
            trajectory, _, _ = evolve_full_model(model, tokens)
            psi = schrodinger_state(trajectory[-1], model.frequencies,
                                    len(tokens), model.dt)
            meas = project_measurement(model.meas_raw)
        else:
            raise ConfigurationError(f"unsupported model type {type(model).__name__}")
        logs_b, _ = floored_log(born_probabilities(meas, psi))
        logs_d, _ = floored_log(diagonal_only_probabilities(meas, psi))
        nll_born -= float(target_row @ logs_b)
        nll_diag -= float(target_row @ logs_d)
    return {"nll_born": nll_born / len(eval_set), "nll_diagonal": nll_diag / len(eval_set)}
