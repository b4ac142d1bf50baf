"""Desk-scale optimization.

Losses, the analytic adjoint backward pass through the Cayley solves, a
central-difference gradient oracle, Adam with cosine decay (only the learning
rate, epoch count and early-stop gap are settable), and drivers for the
separation-task experiments (trainable unitary model, real orthogonal
baseline, and the full generated-Hamiltonian model). The adjoints are checked
against central differences and, at rank 4 over 80 steps, against directional
derivatives.

Every trainer runs all task sequences as one stacked batch, so an epoch is one
forward and one adjoint pass: the full model's steps through one stacked
Woodbury solve, the fixed-transition kinds (cusm-trainable and rosm) through
evolve_fixed_batch's time loop and one batch gradient, _fixed_batch_grad, in which
each kind supplies only its readout's VJP. A fixed-kind epoch builds each piece of
its Cayley system once: S = Z - Z^dag and I + S, which the transitions W and their
VJP share (the identity is cached per d), and the transitions' conjugate
transposes, whose rows each adjoint step gathers. A run checks its task's tokens
once, not every epoch. Every kind trains through one flat parameter vector and
one Adam loop. A non-finite gradient of any kind, or a start vector whose norm
the updates drive to overflow, raises FloatingPointError: the CLI's exit 3.

Gradient convention for complex parameters: the gradient g of a real loss
with respect to a complex quantity z is defined by dL = Re(conj(g) . dz),
so g.real and g.imag are the ordinary partials with respect to the real and
imaginary parts. All vector-Jacobian rules below follow this convention; the
gradient of a complex array, the raw start vector h0 among them, is one complex array.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (InteractionFactors, _cayley_system, _checked_tokens, _fixed_states,
                       _identity, _lowrank_solve, evolve_fixed_batch, evolve_full_batch,
                       linalg_solve)
from .exceptions import NUMERICAL_FAILURES, ConfigurationError
from .hamgen import (FullModelParams, init_full_model, mlp_backward, mlp_weight_grads,
                     split_factor_output)
from .numerics import (_MIN_NORM, _UNDERFLOW_SCALE, check_allocation, ginibre, initial_state,
                       make_rng, row_norms)
# kept: unused here; perfbench's tracer binds it under train (perfbench/spantrace.py)
from .numerics import thin_qr_unique  # noqa: F401
from .readout import (
    PROB_FLOOR,
    born_probabilities,
    diagonal_only_probabilities,
    floored_log,
    project_measurement,
)
from .septask import (
    RosmParams,
    TaskInstance,
    TargetTable,
    build_exact_cusm,
    rank_bound_verdict,
    softmax_rank_audit,
    target_table,
)

GAP_ZERO_THRESHOLD = 1e-3
MODEL_KINDS = ("cusm-trainable", "rosm", "full")


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
    warning_count: int
    extra: dict


@dataclass
class OptimizerConfig:
    """The settable Adam values; its defaults are the CLI's."""
    lr: float = 1e-3
    epochs: int = 2000
    early_stop_gap: float = 1e-4


def entropy_floor(table: TargetTable) -> float:
    """Mean Shannon entropy of the target rows: the minimum achievable mean NLL."""
    p = table.pstar
    terms = np.where(p > 0.0, p * floored_log(p), 0.0)
    return float(-terms.sum(axis=1).mean())


# ---------------------------------------------------------------------------
# adjoint building blocks

def adjoint_state_step(factors: InteractionFactors, dt: float, g: np.ndarray,
                       pieces: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Pull a state adjoint g (..., N) back through one Cayley step, factors held fixed.

    The map is the conjugate transpose A+ A-^{-1} of the step unitary, so the adjoint norm is
    exactly preserved: solve A- s = g (A- = A+^dag), and then A+ s = 2s - g because A+ + A- = 2I.
    Returns 2s - g and s, both shaped like g. A- takes the conjugates of the forward step's
    1/(1 + c delta) and G+, the `pieces` that evolve_full_batch stores, so the adjoint builds
    no Gram system and checks no condition: the forward step checked it.
    """
    phi, inv_d = factors.phi, np.conj(pieces[0])
    s = _lowrank_solve(phi.swapaxes(-1, -2).conj(), phi * inv_d[..., None], inv_d,
                       pieces[1].conj().swapaxes(-1, -2), -0.5j * dt, g[..., None])[..., 0]
    back = 2.0 * s  # 2s - g in one array of its own: s is returned too
    return np.subtract(back, g, out=back), s


# per size n: the masks of np.triu(b, 1) and of the diagonal
_vjp_masks = functools.cache(lambda n: (~np.tri(n, dtype=bool), np.eye(n, dtype=bool)))


def _qr_projection_vjp(meas: np.ndarray, r: np.ndarray, g_meas: np.ndarray) -> np.ndarray:
    """Backward through meas = project_measurement(raw), given the R factor of
    its thin QR raw^dag = Q R, meas = Q^dag."""
    b = meas @ g_meas.conj().T
    strict_upper, diagonal = _vjp_masks(len(b))
    upper = np.where(strict_upper, b, 0j)
    w = upper + upper.conj().T + np.where(diagonal, b.real, 0.0)  # a real diagonal, as np.diag's
    # the conjugate transpose of (g_Q - Q w) R^{-dag}, with Q = meas^dag and w Hermitian
    return linalg_solve(r, g_meas - w @ meas)


def _normalize_vjp(vec: np.ndarray, g_unit: np.ndarray) -> np.ndarray:
    """Backward through unit = initial_state(vec), complex or real, which first
    scales a vector of norm below _MIN_NORM by the exact _UNDERFLOW_SCALE."""
    norm = row_norms(vec)
    if norm < _MIN_NORM:
        return _UNDERFLOW_SCALE * _normalize_vjp(vec * _UNDERFLOW_SCALE, g_unit)
    unit = vec / norm
    beta = float(np.real(np.vdot(g_unit, unit)))
    return (g_unit - beta * unit) / norm


def _cayley_generator_vjp(i_plus_s: np.ndarray, w: np.ndarray, g_w: np.ndarray) -> np.ndarray:
    """Backward through (I + S, W) = _cayley_system(Z), stacked, complex or real: with
    S = Z - Z^dag, g_S = -(I+S)^{-dag} g_W (I+W)^dag and g_Z = g_S - g_S^dag."""
    lhs = linalg_solve(i_plus_s.conj().swapaxes(-1, -2), g_w)
    g_s = -lhs @ (_identity(w.shape[-1]) + w).conj().swapaxes(-1, -2)
    return g_s - g_s.conj().swapaxes(-1, -2)


def _born_readout_vjp(meas: np.ndarray, psi: np.ndarray, weights: np.ndarray):
    """The Born-rule loss -sum_k w_k log p_k at p = |M^dag psi|^2 and its
    gradients, for state columns psi (N, B) and weight columns (V, B); loss and
    g_meas are summed over columns. Every Born NLL in the package is this one."""
    z = meas.conj().T @ psi
    p = np.abs(z) ** 2
    g_p = -weights / np.maximum(p, PROB_FLOOR)
    g_z = 2.0 * g_p * z
    g_psi = meas @ g_z
    g_meas = psi @ g_z.conj().T
    logs = floored_log(p)
    loss = float(-np.vdot(weights, logs))
    return loss, g_psi, g_meas


# ---------------------------------------------------------------------------
# full model: forward loss and the adjoint backward pass

def _full_readout(model: FullModelParams, tokens: np.ndarray, target_weights: np.ndarray):
    """evolve_full_batch of a (B, T) token batch, then the Born readout of each weighted
    step, last step first as the adjoint sums; entry [b, t] of the (B, T, V) target_weights
    weights readout b after step t. Returns the loss, summed over the batch, and its
    gradients with respect to the interaction-picture states ({t: (B, N)}, weighted states
    t only), the measurement and the frequencies; the phases (T+1, N) that undo the
    interaction picture; the measurement and its R; and evolve_full_batch's results."""
    forward = evolve_full_batch(model, tokens)
    states, dt = forward[0], model.dt
    meas, r_meas = project_measurement(model.meas_raw)
    # row t undoes the interaction picture at time t*dt: the bits of exp(-ix) at any x != 0;
    # at x = +-0 the two may differ in the sign of a zero imaginary part
    phases = forward[-1].conj()
    loss, g_states, g_meas, g_lam = 0.0, {}, np.zeros_like(meas), np.zeros(model.n)
    for t in np.flatnonzero(target_weights.any(axis=(0, 2)))[::-1].tolist():
        psi_s = phases[t + 1] * states[t + 1]
        step_loss, g_psis, g_m = _born_readout_vjp(meas, psi_s.T, target_weights[:, t].T)
        loss += step_loss
        g_meas += g_m
        g_states[t + 1] = np.conj(phases[t + 1]) * g_psis.T
        g_lam += ((t + 1) * dt) * np.imag(np.sum(psi_s * g_psis.T.conj(), axis=0))
    return loss, g_states, g_meas, g_lam, phases, (meas, r_meas), forward


def _loss_full(model: FullModelParams, tokens: np.ndarray, target_weights: np.ndarray) -> float:
    """The loss alone of _full_readout, which is forward-only."""
    return _full_readout(model, tokens, target_weights)[0]


def full_model_loss(model: FullModelParams, tokens, target_weights: np.ndarray) -> float:
    """Forward-only loss; row t of target_weights weights the readout after step t."""
    return _loss_full(model, np.asarray([list(tokens)], dtype=int),
                      np.asarray(target_weights)[None])


def _assert_finite(flat: np.ndarray) -> None:
    """Raise FloatingPointError if the flat gradient has a non-finite entry."""
    if not np.isfinite(flat).all():
        raise FloatingPointError("non-finite gradient entry")


def _backward_full(model: FullModelParams, tokens: np.ndarray,
                   target_weights: np.ndarray) -> tuple[float, FullModelParams]:
    """Loss and parameter-shaped gradients of a (B, T) token batch (weights as
    in _full_readout, which gives the loss and its gradients at the readouts), both
    summed over the batch. One stacked reverse traversal holds the adjoint recurrence:
    each Cayley solve via its adjoint system on its forward step's pieces,
    interaction-picture phases, and the generator network's input gradients on the
    forward pass's activations. After it come the frequencies' factor term, one product
    per layer for the network's weights, one np.add.at for the embeddings, the initial
    state and the QR measurement projection."""
    n, d, dt, steps = model.n, model.d, model.dt, tokens.shape[1]
    (loss, g_states, g_meas, g_lam, phases, (meas, r_meas),
     (states, factors, _, acts, (inv_d, gram), _)) = _full_readout(model, tokens, target_weights)
    g_psi = np.zeros_like(states[0])
    # per step, the network's input gradient, each layer's pre-activation gradient
    # and its output gradient, whose rows take dL/dPhi and dL/ddelta through views
    g_acts = [np.empty_like(a) for a in acts]
    raw_phi = split_factor_output(acts[-1], n, model.r)[0]
    g_phi, g_delta = split_factor_output(g_acts[-1], n, model.r)
    c = 0.5j * dt
    # both sides of each solve touch X = phi phi^dag and delta; with u = psi_in +
    # psi_out, dL/dX = -conj(c) s u^dag - c u s^dag: us[t] holds the rows u, s
    us = np.empty((steps, len(tokens), 2, n), dtype=complex)
    np.add(states[:-1], states[1:], out=us[:, :, 0])
    coef = np.array([[-np.conj(c)], [-c]])

    for t in range(steps - 1, -1, -1):
        if t + 1 in g_states:
            g_psi += g_states[t + 1]
        # state adjoint through the step itself (norm-preserving)
        g_psi_step, s = adjoint_state_step(factors[t], dt, g_psi, (inv_d[t], gram[t]))
        us[t, :, 1] = s
        # [-conj(c) s, -c u] @ [u^dag phi; s^dag phi], its rows' phases exp(i lam t dt) undone
        g_phi_ip = (coef * us[t, :, ::-1]).swapaxes(-1, -2) @ (us[t].conj() @ factors.phi[t])
        np.multiply(phases[t][:, None], g_phi_ip, out=g_phi[t])
        np.negative(np.real(c * s.conj() * us[t, :, 0]), out=g_delta[t])

        # generator network, on the activations of the forward pass
        g_x_in = mlp_backward(model.mlp, [h[t] for h in acts[:-1]], [g[t] for g in g_acts])
        g_psi = g_psi_step + (g_x_in[:, d:d + n] + 1j * g_x_in[:, d + n:])

    # d phi_ip / d lam = i t dt phi_ip, and phi_ip conj(g_phi_ip) = phi conj(g_phi)
    g_lam -= (np.arange(steps) * dt) @ np.vecdot(g_phi, raw_phi).imag.sum(axis=1)
    # the sums over steps run in sweep order, last step first
    g_w, g_b = mlp_weight_grads([h[::-1] for h in acts[:-1]], [g[::-1] for g in g_acts[1:]])
    g_embed = np.zeros_like(model.embed)
    # np.add.at accumulates the rows of every step and sequence that share a token
    np.add.at(g_embed, tokens.T[::-1], g_acts[0][::-1, :, :d])
    g_h0 = _normalize_vjp(model.h0, g_psi.sum(axis=0))
    g_meas_raw = _qr_projection_vjp(meas, r_meas, g_meas)

    layers = [arr for pair in zip(g_w, g_b) for arr in pair]
    return loss, model.with_arrays([g_h0, g_lam, g_embed, *layers, g_meas_raw])


def _one_hot_rows(targets, v: int) -> np.ndarray:
    rows = np.zeros((len(targets), v))
    rows[np.arange(len(targets)), list(targets)] = 1.0
    return rows


def backward_full_model(model: FullModelParams, tokens, targets) -> FullModelParams:
    """Adjoint gradients of the summed per-step negative log-likelihood."""
    return _backward_full(model, np.asarray([list(tokens)], dtype=int),
                          _one_hot_rows(list(targets), model.v)[None])[1]


# ---------------------------------------------------------------------------
# flat parameter vector plumbing (shared by the optimizer and the FD oracle)

def flatten_model(params) -> np.ndarray:
    """Concatenate params.arrays() into one real vector; a complex array
    contributes its real block, then its imaginary block."""
    parts = []
    for arr in params.arrays():
        parts += [arr.real.ravel(), arr.imag.ravel()] if arr.dtype.kind == "c" else [arr.ravel()]
    return np.concatenate(parts)


def unflatten_model(flat: np.ndarray, template):
    """Inverse of flatten_model: template.with_arrays() of the arrays carved from
    flat. The real arrays are views of flat, so flat must not change after."""
    arrays, pos = [], 0
    for arr in template.arrays():
        blocks = 2 if arr.dtype.kind == "c" else 1
        chunk = flat[pos:pos + blocks * arr.size].reshape(blocks, *arr.shape)
        arrays.append(chunk[0] + 1j * chunk[1] if blocks == 2 else chunk[0])
        pos += blocks * arr.size
    if pos != flat.shape[0]:
        raise ConfigurationError(f"flat vector length {flat.shape[0]}, consumed {pos}")
    return template.with_arrays(arrays)


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
                           step: float = 1e-5) -> FullModelParams:
    """Central-difference gradient oracle; for tiny models only."""
    if not 1e-7 <= step <= 1e-3:
        raise ConfigurationError(f"step {step} outside [1e-7, 1e-3]")
    weights = _one_hot_rows(list(targets), model.v)

    def loss_at(flat):
        return full_model_loss(unflatten_model(flat, model), tokens, weights)

    return unflatten_model(central_difference(loss_at, flatten_model(model), step), model)


# ---------------------------------------------------------------------------
# Adam with cosine decay

ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CLIP_NORM = 0.9, 0.999, 1e-8, 10.0


def adam_cosine(flat0: np.ndarray, grad_fn, config: OptimizerConfig,
                stop_fn=None) -> tuple[np.ndarray, list, str]:
    """Full-batch Adam; grad_fn(flat) -> (loss, flat_grad). Returns the final
    parameters, the loss trace, and why the loop stopped. A numerical failure that
    grad_fn raises carries the epoch as its `epoch` attribute."""
    x = flat0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trace = []
    stopped = "epochs"
    for epoch in range(config.epochs):
        try:
            loss, grad = grad_fn(x)
        except NUMERICAL_FAILURES as exc:  # the CLI's failure.json reads the epoch
            exc.epoch = epoch
            raise
        trace.append(loss)
        if not np.isfinite(loss):
            stopped = "diverged"
            break
        if stop_fn is not None and stop_fn(loss):
            stopped = "early_stop"
            break
        gnorm = np.sqrt(grad.dot(grad))  # np.linalg.norm of a 1-D float vector
        if gnorm > CLIP_NORM:
            grad = grad * (CLIP_NORM / gnorm)
        lr = config.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / max(1, config.epochs)))
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        mhat = m / (1.0 - ADAM_BETA1 ** (epoch + 1))
        vhat = v / (1.0 - ADAM_BETA2 ** (epoch + 1))
        x = x - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return x, trace, stopped


# ---------------------------------------------------------------------------
# fixed-transition models: trainable unitary model and real orthogonal baseline

@dataclass
class TrainableCusm:
    h0: np.ndarray                # (N,) complex, normalised on use
    gens: np.ndarray              # (A, N, N) complex Z, row k for token k; S = Z - Z^dag
    meas_raw: np.ndarray          # (N, V) complex

    def arrays(self) -> list:
        """The arrays in the order of the flat parameter vector."""
        return [self.h0, self.gens, self.meas_raw]

    def with_arrays(self, arrays: list) -> TrainableCusm:
        return TrainableCusm(*arrays)


def init_trainable_cusm(n: int, v: int, alphabet: int, seed: int) -> TrainableCusm:
    check_allocation(16 * (alphabet * n * n + n * v + n), f"a unitary model with dimension {n}")
    rng = make_rng(seed, stream=200)
    scale = 0.1
    return TrainableCusm(
        h0=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        gens=np.array([scale * ginibre(rng, n, n) for _ in range(alphabet)]),
        meas_raw=ginibre(rng, n, v),
    )


def init_trainable_rosm(d: int, v: int, alphabet: int, seed: int) -> RosmParams:
    check_allocation(8 * (alphabet * d * d + v * d + d + v), f"a baseline with dimension {d}")
    rng = make_rng(seed, stream=201)
    return RosmParams(
        h0=rng.standard_normal(d),
        gens=np.array([0.1 * rng.standard_normal((d, d)) for _ in range(alphabet)]),
        out_weights=rng.standard_normal((v, d)) / np.sqrt(d),
        bias=np.zeros(v),
    )


def _fixed_transition_vjp(transitions: np.ndarray, states: list, tokens: np.ndarray,
                          g_final: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull final-state gradients (B, d) back through evolve_fixed_batch. Returns
    the gradient of the shared initial state and of every token's matrix, both
    summed over the batch; np.add.at sums the rows of sequences that share a
    token, and the filler token is in every sequence. Each step gathers rows of
    the A matrices' conjugate transposes, formed once."""
    g = g_final
    g_w = np.zeros_like(transitions)
    adjoints = transitions.conj().swapaxes(-1, -2)
    for t in range(tokens.shape[1] - 1, -1, -1):
        # kept: one np.add.at per step; one call over all steps, with the same bits, cut the
        # gradient by 4% and 8% where this cuts it by 12% and 10% (BENCH_c4721c6.json)
        np.add.at(g_w, tokens[:, t], g[:, :, None] * states[t].conj()[:, None, :])
        g = (adjoints[tokens[:, t]] @ g[..., None])[..., 0]
    return g.sum(axis=0), g_w


def _born_batch_vjp(params: TrainableCusm, final: np.ndarray, targets: np.ndarray,
                    scale: float) -> tuple[float, np.ndarray, list]:
    """The Born readout's summed loss over final state rows (B, N), its gradient
    there, and the measurement's gradient times scale."""
    meas, r_meas = project_measurement(params.meas_raw)
    loss, g_psi, g_meas = _born_readout_vjp(meas, final.T, targets.T)
    return loss, g_psi.T, [_qr_projection_vjp(meas, r_meas, scale * g_meas)]


def _softmax_batch_vjp(params: RosmParams, final: np.ndarray, targets: np.ndarray,
                       scale: float) -> tuple[float, np.ndarray, list]:
    """As _born_batch_vjp, for the affine-softmax readout and its weights and bias."""
    q = params.readout(final)
    logs = floored_log(q)
    g_logits = q * targets.sum(axis=1, keepdims=True) - targets
    return (-float(np.vdot(targets, logs)), g_logits @ params.out_weights,
            [scale * (g_logits.T @ final), scale * g_logits.sum(axis=0)])


# per fixed-transition kind: its readout's VJP
_FIXED_KINDS = {TrainableCusm: _born_batch_vjp, RosmParams: _softmax_batch_vjp}


def _fixed_batch_grad(params: TrainableCusm | RosmParams, tokens: np.ndarray,
                      targets: np.ndarray) -> tuple[float, TrainableCusm | RosmParams]:
    """Mean loss and gradients over a (B, T) int array of token ids in [0, A), checked
    once by the caller, with (B, V) target rows, in one stacked forward and adjoint pass;
    gradients come in the parameters' own type."""
    i_plus_s, transitions = _cayley_system(params.gens)
    states = _fixed_states(transitions, initial_state(params.h0), tokens)
    scale = 1.0 / len(tokens)
    loss, g_final, g_readout = _FIXED_KINDS[type(params)](params, states[-1], targets, scale)
    g_start, g_w = _fixed_transition_vjp(transitions, states, tokens, g_final)
    g_h0 = _normalize_vjp(params.h0, scale * g_start)
    g_gens = _cayley_generator_vjp(i_plus_s, transitions, scale * g_w)
    return loss * scale, params.with_arrays([g_h0, g_gens, *g_readout])


# every model kind goes through the one flatten pair, and both fixed-transition
# kinds through the one batch gradient
# kept: per-kind names that the acceptance suite imports and perfbench's tracer binds
# (tests/test_acceptance.py::test_criterion_08_gradient_correctness, perfbench/spantrace.py)
flatten_bundle = _cusm_flatten = _rosm_flatten = flatten_model
_cusm_unflatten = _rosm_unflatten = unflatten_model
_cusm_batch_grad = _rosm_batch_grad = _fixed_batch_grad


# ---------------------------------------------------------------------------
# experiment drivers

def exact_cusm_report(task: TaskInstance, table: TargetTable) -> dict:
    """The constructed exact solver, untrained, on the task's target table: max
    |p - p*| as cusm_max_error, the entropy floor, the gap of its mean NLL over
    that floor as exact_cusm_gap, which is rounding, and as ablation the mean NLL
    of its final states under the Born readout and under the magnitude-only one."""
    floor = entropy_floor(table)
    cusm = build_exact_cusm(task)
    final = evolve_fixed_batch(cusm.unitaries, cusm.psi0, task.sequences())[-1].T
    count = len(table.pstar)
    loss, _, _ = _born_readout_vjp(cusm.measurement, final, table.pstar.T)
    logs_d = floored_log(diagonal_only_probabilities(cusm.measurement, final))
    ablation = {"nll_born": loss / count,
                "nll_diagonal": -float(np.vdot(table.pstar.T, logs_d)) / count}
    max_err = float(np.abs(born_probabilities(cusm.measurement, final).T - table.pstar).max())
    return {"cusm_max_error": max_err, "entropy_floor": floor,
            "exact_cusm_gap": ablation["nll_born"] - floor, "ablation": ablation}


def train_on_task(task: TaskInstance, model_kind: str, config: OptimizerConfig,
                  dim: int | None = None, seeds=(0, 1, 2, 3, 4)) -> list[TrainReport]:
    """Per-seed training runs on a separation task.

    model_kind: "cusm-trainable" (unitary transitions, Born readout),
    "rosm" (orthogonal transitions, affine softmax), or "full" (generated
    Hamiltonians). dim is the state dimension; it defaults to the task's n
    except for rosm, which needs it. The gap is final mean NLL minus the
    entropy floor and is declared zero below 1e-3 nats; convergence is
    reported, never asserted. A rosm report's extra holds the trained
    baseline's softmax_rank_audit and the task's rank_bound_verdict at dim.
    A numerical failure raised while a seed trains carries model_kind and seed,
    and adam_cosine's epoch if it was raised in the loop.
    """
    if model_kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model_kind {model_kind!r}")
    if model_kind == "rosm" and dim is None:
        raise ConfigurationError("rosm training needs an explicit dimension")
    dim = task.n if dim is None else dim
    if dim < 1:
        raise ConfigurationError(f"model dimension must be >= 1, got {dim}")
    table = target_table(task)
    verdict = rank_bound_verdict(table, dim) if model_kind == "rosm" else {}
    floor = entropy_floor(table)
    tokens = _checked_tokens(task.sequences(), task.alphabet)  # once per run
    weights = np.zeros((*tokens.shape, task.v))
    weights[:, -1] = table.pstar

    def init_full(n, v, v_in, seed):
        return init_full_model(n=n, r=1, d=2 * task.n, v=v, v_in=v_in, seed=seed)

    # per kind, in MODEL_KINDS' order: init(dim, v, alphabet, seed); batch_grad(params,
    # tokens, targets) -> (loss, grads in the params' own type); the final loss; the
    # targets; and the count that the losses and gradients are summed over (the fixed-
    # transition gradients are means). The full model's final loss is the
    # forward-only pass, under half the cost of its backward pass.
    fixed = (_fixed_batch_grad, lambda *batch: _fixed_batch_grad(*batch)[0], table.pstar, 1)
    init, batch_grad, final_loss, targets, count = dict(zip(MODEL_KINDS, (
        (init_trainable_cusm, *fixed),
        (init_trainable_rosm, *fixed),
        (init_full, _backward_full, _loss_full, weights, len(tokens)),
    )))[model_kind]

    def loss_grad(params):
        loss, grads = batch_grad(params, tokens, targets)
        # flatten, then divide: numpy's complex / real multiplies by a
        # reciprocal, which rounds the complex arrays differently
        flat = flatten_model(grads) / count
        _assert_finite(flat)
        return loss / count, flat

    reports = []
    for seed in seeds:
        start = time.perf_counter()
        template = init(dim, task.v, task.alphabet, seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                flat, trace, stopped = adam_cosine(
                    flatten_model(template), lambda x: loss_grad(unflatten_model(x, template)),
                    config, stop_fn=lambda loss: loss - floor < config.early_stop_gap,
                )
                trained = unflatten_model(flat, template)
                final = final_loss(trained, tokens, targets) / count
                extra = ({"softmax_rank_audit": softmax_rank_audit(trained, task), **verdict}
                         if model_kind == "rosm" else {})
            except NUMERICAL_FAILURES as exc:  # read, with adam_cosine's epoch, by failure.json
                exc.model_kind, exc.seed = model_kind, seed
                raise
        gap = final - floor
        reports.append(TrainReport(
            seed=seed, model_kind=model_kind, dim=dim, loss_trace=trace,
            final_nll=float(final), entropy_floor=floor, gap=float(gap),
            gap_zero=bool(gap < GAP_ZERO_THRESHOLD and np.isfinite(gap)),
            stopped=stopped, wall_clock=time.perf_counter() - start,
            warning_count=len(caught), extra=extra,
        ))
    return reports

