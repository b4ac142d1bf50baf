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

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    InteractionFactors,
    _apply_cayley_side,
    _lowrank_solve,
    cayley_map,
    evolve_fixed_batch,
    evolve_full_batch,
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
from .septask import (
    CusmParams,
    RosmParams,
    TaskInstance,
    TargetTable,
    build_exact_cusm,
    softmax_rank_audit,
    target_table,
)

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

    def arrays(self) -> list:
        """The gradients in the order of FullModelParams.arrays()."""
        layers = [arr for pair in zip(self.g_mlp_w, self.g_mlp_b) for arr in pair]
        return [self.g_a, self.g_b, self.g_frequencies, self.g_embed, *layers, self.g_meas_raw]

    def assert_finite(self) -> None:
        if not all(np.isfinite(arr).all() for arr in self.arrays()):
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


def _normalize_vjp(vec: np.ndarray, g_unit: np.ndarray) -> np.ndarray:
    """Backward through unit = vec / ||vec||, complex or real."""
    norm = np.linalg.norm(vec)
    unit = vec / norm
    beta = float(np.real(np.vdot(g_unit, unit)))
    return (g_unit - beta * unit) / norm


def _cayley_generator_vjp(z: np.ndarray, w: np.ndarray, g_w: np.ndarray) -> np.ndarray:
    """Backward through W = cayley_map(Z), stacked, complex or real: with
    S = Z - Z^dag, g_S = -(I+S)^{-dag} g_W (I+W)^dag and g_Z = g_S - g_S^dag."""
    eye = np.eye(z.shape[-1])
    s = z - z.conj().swapaxes(-1, -2)
    lhs = np.linalg.solve((eye + s).conj().swapaxes(-1, -2), g_w)
    g_s = -lhs @ (eye + w).conj().swapaxes(-1, -2)
    return g_s - g_s.conj().swapaxes(-1, -2)


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

    g_v = _normalize_vjp(model.init.a + 1j * model.init.b, g_psi.sum(axis=0))
    g_raw = _qr_projection_vjp(model.meas_raw, g_meas)

    bundle = GradientBundle(
        loss=loss, g_a=g_v.real, g_b=g_v.imag, g_frequencies=g_lam, g_embed=g_embed,
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

def flatten_model(params) -> np.ndarray:
    """Concatenate params.arrays() into one real vector; a complex array
    contributes its real block, then its imaginary block."""
    parts = []
    for arr in params.arrays():
        parts += [arr.real.ravel(), arr.imag.ravel()] if np.iscomplexobj(arr) else [arr.ravel()]
    return np.concatenate(parts)


def unflatten_model(flat: np.ndarray, template):
    """Inverse of flatten_model: template.with_arrays() of the arrays carved from flat."""
    arrays, pos = [], 0
    for arr in template.arrays():
        blocks = 2 if np.iscomplexobj(arr) else 1
        chunk = flat[pos:pos + blocks * arr.size].reshape(blocks, *arr.shape)
        arrays.append(chunk[0] + 1j * chunk[1] if blocks == 2 else chunk[0].copy())
        pos += blocks * arr.size
    if pos != flat.shape[0]:
        raise ConfigurationError(f"flat vector length {flat.shape[0]}, consumed {pos}")
    return template.with_arrays(arrays)


# every model kind goes through the one pair; tests and the benchmark's
# tracer still call it under these per-kind names
flatten_bundle = _cusm_flatten = _rosm_flatten = flatten_model
_cusm_unflatten = _rosm_unflatten = unflatten_model


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
# fixed-transition models: trainable unitary model and real orthogonal baseline

@dataclass
class TrainableCusm:
    a: np.ndarray                 # initial state, real part
    b: np.ndarray                 # initial state, imaginary part
    gens: np.ndarray              # (A, N, N) complex Z, row k for token k; S = Z - Z^dag
    meas_raw: np.ndarray          # (N, V) complex

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def as_cusm(self) -> CusmParams:
        """The fixed-transition model these unconstrained parameters describe."""
        return CusmParams(psi0=initial_state(InitialStateParams(a=self.a, b=self.b)),
                          unitaries=cayley_map(self.gens),
                          measurement=project_measurement(self.meas_raw))

    def arrays(self) -> list:
        """The arrays in the order of the flat parameter vector."""
        return [self.a, self.b, self.gens, self.meas_raw]

    def with_arrays(self, arrays: list) -> TrainableCusm:
        return TrainableCusm(*arrays)


def init_trainable_cusm(n: int, v: int, alphabet: int, seed: int) -> TrainableCusm:
    rng = make_rng(seed, stream=200)
    scale = 0.1
    return TrainableCusm(
        a=rng.standard_normal(n),
        b=rng.standard_normal(n),
        gens=np.array([scale * ginibre(rng, n, n) for _ in range(alphabet)]),
        meas_raw=ginibre(rng, n, v),
    )


def init_trainable_rosm(d: int, v: int, alphabet: int, seed: int) -> RosmParams:
    rng = make_rng(seed, stream=201)
    return RosmParams(
        h0=rng.standard_normal(d),
        gens=np.array([0.1 * rng.standard_normal((d, d)) for _ in range(alphabet)]),
        out_weights=rng.standard_normal((v, d)) / np.sqrt(d),
        bias=np.zeros(v),
    )


def _stack_batch(batch) -> tuple[np.ndarray, np.ndarray]:
    """(tokens, target_row) pairs of one length as (B, T) token ids and (B, V) targets."""
    return np.array([seq for seq, _ in batch]), np.array([row for _, row in batch])


def _fixed_transition_vjp(transitions: np.ndarray, states: list, tokens: np.ndarray,
                          g_final: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull final-state gradients (B, d) back through evolve_fixed_batch. Returns
    the gradient of the shared initial state and of every token's matrix, both
    summed over the batch; np.add.at sums the rows of sequences that share a
    token, and the filler token is in every sequence."""
    g = g_final
    g_w = np.zeros_like(transitions)
    for t in range(tokens.shape[1] - 1, -1, -1):
        np.add.at(g_w, tokens[:, t], g[:, :, None] * states[t].conj()[:, None, :])
        g = (transitions[tokens[:, t]].conj().swapaxes(-1, -2) @ g[..., None])[..., 0]
    return g.sum(axis=0), g_w


def _cusm_batch_grad(params: TrainableCusm, batch) -> tuple[float, TrainableCusm]:
    """Mean loss and gradients over (tokens, target_row) pairs of one length, in
    one stacked forward and adjoint pass; gradients come in a parameter-shaped
    container."""
    tokens, targets = _stack_batch(batch)
    cusm = params.as_cusm()
    states = evolve_fixed_batch(cusm.unitaries, cusm.psi0, tokens)
    loss, g_psi, g_meas = _born_readout_vjp(cusm.measurement, states[-1].T, targets.T)
    g_psi0, g_u = _fixed_transition_vjp(cusm.unitaries, states, tokens, g_psi.T)
    scale = 1.0 / len(tokens)
    g_v = _normalize_vjp(params.a + 1j * params.b, scale * g_psi0)
    g_gens = _cayley_generator_vjp(params.gens, cusm.unitaries, scale * g_u)
    grads = TrainableCusm(a=g_v.real, b=g_v.imag, gens=g_gens,
                          meas_raw=_qr_projection_vjp(params.meas_raw, scale * g_meas))
    return loss * scale, grads


def _rosm_batch_grad(params: RosmParams, batch) -> tuple[float, RosmParams]:
    """As _cusm_batch_grad, for the real orthogonal baseline."""
    tokens, targets = _stack_batch(batch)
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


# ---------------------------------------------------------------------------
# experiment drivers

def exact_cusm_report(task: TaskInstance) -> TrainReport:
    """Evaluate the constructed exact solver; no training. The gap is rounding."""
    table = target_table(task)
    floor = entropy_floor(table)
    cusm = build_exact_cusm(task)
    start = time.perf_counter()
    states = evolve_fixed_batch(cusm.unitaries, cusm.psi0, task.sequences())
    loss, _, _ = _born_readout_vjp(cusm.measurement, states[-1].T, table.pstar.T)
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
    if model_kind not in ("cusm-trainable", "rosm", "full"):
        raise ConfigurationError(f"unknown model_kind {model_kind!r}")
    if model_kind == "rosm" and dim is None:
        raise ConfigurationError("rosm training needs an explicit dimension")
    if dim is not None and dim < 1:
        raise ConfigurationError(f"model dimension must be >= 1, got {dim}")
    if config is None:
        config = OptimizerConfig()
    table = target_table(task)
    floor = entropy_floor(table)
    batch = list(zip(task.sequences(), table.pstar))
    tokens = task.sequences()
    weights = np.zeros((*tokens.shape, task.v))
    weights[:, -1] = table.pstar
    alphabet = 2 * task.n + 1
    dims = dict(full_dims or {})
    reports = []
    for seed in seeds:
        start = time.perf_counter()
        if model_kind == "full":
            template = init_full_model(
                n=dims.get("n", task.n), r=dims.get("r", 1), d=dims.get("d", 2 * task.n),
                v=task.v, v_in=alphabet, dt=dims.get("dt", 1.0), seed=seed,
                hidden=dims.get("hidden"),
            )
            report_dim = template.n

            def loss_grad(params):
                bundle = _backward_full(params, tokens, weights)
                return bundle.loss / len(tokens), flatten_bundle(bundle) / len(tokens)

            def mean_loss(params):
                return _loss_full(params, tokens, weights) / len(tokens)
        else:
            if model_kind == "cusm-trainable":
                template = init_trainable_cusm(dim or task.n, task.v, alphabet, seed)
                batch_grad = _cusm_batch_grad
            else:
                template = init_trainable_rosm(dim, task.v, alphabet, seed)
                batch_grad = _rosm_batch_grad
            report_dim = template.dim

            def loss_grad(params):
                loss, grads = batch_grad(params, batch)
                return loss, flatten_model(grads)

            def mean_loss(params):
                return batch_grad(params, batch)[0]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flat, trace, stopped = adam_cosine(
                flatten_model(template), lambda x: loss_grad(unflatten_model(x, template)),
                config, stop_fn=lambda loss: loss - floor < config.early_stop_gap,
            )
        trained = unflatten_model(flat, template)
        final = mean_loss(trained)
        gap = final - floor
        extra = {}
        if model_kind == "rosm":
            extra["softmax_rank_audit"] = softmax_rank_audit(trained, task)
        reports.append(TrainReport(
            seed=seed, model_kind=model_kind, dim=report_dim, loss_trace=trace,
            final_nll=float(final), entropy_floor=floor, gap=float(gap),
            gap_zero=bool(gap < GAP_ZERO_THRESHOLD and np.isfinite(gap)),
            stopped=stopped, wall_clock=time.perf_counter() - start,
            warning_count=len(caught), extra=extra,
        ))
    return reports


def readout_ablation(model, eval_set) -> dict:
    """Mean NLL of the same final states under the full quadratic readout and
    the magnitude-only readout; eval_set is (tokens, target_row) pairs of one
    length."""
    tokens, targets = _stack_batch(eval_set)
    if isinstance(model, CusmParams):
        psi = evolve_fixed_batch(model.unitaries, model.psi0, tokens)[-1]
        meas = model.measurement
    elif isinstance(model, FullModelParams):
        states, _, _, _ = evolve_full_batch(model, tokens)
        psi = schrodinger_state(states[-1], model.frequencies, tokens.shape[1], model.dt)
        meas = project_measurement(model.meas_raw)
    else:
        raise ConfigurationError(f"unsupported model type {type(model).__name__}")
    logs_b, _ = floored_log(born_probabilities(meas, psi.T))
    logs_d, _ = floored_log(diagonal_only_probabilities(meas, psi.T))
    return {"nll_born": -float(np.vdot(targets.T, logs_b)) / len(tokens),
            "nll_diagonal": -float(np.vdot(targets.T, logs_d)) / len(tokens)}
