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
evolve_fixed_batch's time loop and one batch gradient, _fixed_batch_grad, to which
each kind passes only its readout's VJP. One table in train_on_task holds, per kind,
all that differs between kinds: its init, batch gradient, final loss, what a seed's
run derives for its epochs, whether it needs a dimension, its readout's verdict and
its audit of a trained model; no other line compares a kind's name. Every final loss
is a forward pass and its readout, never a gradient. The central-difference oracle derives
one FullRun for its sequence and scores each perturbed model on that run with the full
kind's final-loss expression, _full_readout(model, run)[0].

A run checks its task's tokens once, not every epoch, and derives once what its epochs
share. For the full model that is a FullRun: the network's checked layer widths, the
step times t*dt, the weighted steps, the ids in the adjoint's step order and the factor
term's coefficients. Its epochs call _full_states: evolve_full_batch without its input
checks and without the residual and norm-change report, which no epoch reads; the Gram check
stays in every step.
A full-model epoch's adjoint reads from the forward pass each step's states, factors,
1/(1 + c delta) and Gram matrix, the network's activations and the phase table; it
conjugates the stored solve pieces once for all steps (adjoint_pieces) and forms the
hidden layers' tanh' factors 1 - h^2 once for all steps, so no step rebuilds either. A
fixed-kind epoch builds each piece of its Cayley system once: S = Z - Z^dag and I + S,
which the transitions W and their VJP share (the identity is cached per d), and the
transitions' conjugate transposes, whose rows each adjoint step gathers. Every kind
trains through one flat parameter vector and one Adam loop, which updates its moments
and parameters in place. A non-finite gradient of any kind, or a start vector whose
norm the updates drive to overflow, raises FloatingPointError: the CLI's exit 3.

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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dynamics import (_cayley_system, _checked_tokens, _fixed_states, _full_states, _identity,
                       _lowrank_solve, cayley_map, evolve_fixed_batch, linalg_solve)
from .exceptions import NUMERICAL_FAILURES, ConfigurationError
from .hamgen import (FullModelParams, init_full_model, mlp_backward, mlp_weight_grads,
                     mlp_widths, split_factor_output)
from .numerics import check_allocation, ginibre, initial_state, initial_state_vjp, make_rng
# kept: unused here; perfbench's tracer binds it under train (perfbench/spantrace.py)
from .numerics import thin_qr_unique  # noqa: F401
from .readout import (
    PROB_FLOOR,
    born_probabilities,
    diagonal_only_probabilities,
    nll,
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
    return float(-np.where(table.pstar > 0.0, table.pstar * table.lstar, 0.0).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# adjoint building blocks

def adjoint_pieces(phi: np.ndarray, inv_d: np.ndarray, gram: np.ndarray) -> tuple:
    """The pieces of A- = A+^dag that adjoint_state_step solves with, from the pieces of its
    forward steps A+, stacked alike: of phi (..., N, r), of the 1/(1 + c delta) (..., N) and
    of the Gram matrices G+ (..., r, r) that evolve_full_batch stores, phi^dag, conj(1/(1 +
    c delta)), phi conj(1/(1 + c delta)) and G+^dag, in _lowrank_solve's order. A pass over
    T steps conjugates them once for all of its steps."""
    inv_d = inv_d.conj()
    return phi.swapaxes(-1, -2).conj(), phi * inv_d[..., None], inv_d, gram.conj().swapaxes(-1, -2)


def adjoint_state_step(pieces: tuple, dt: float, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull a state adjoint g (..., N) back through one Cayley step, factors held fixed.

    The map is the conjugate transpose A+ A-^{-1} of the step unitary, so the adjoint norm is
    exactly preserved: solve A- s = g (A- = A+^dag), and then A+ s = 2s - g because A+ + A- = 2I.
    Returns 2s - g and s, both shaped like g. A- comes as adjoint_pieces of the forward step,
    so the adjoint builds no Gram system and checks no condition: the forward step checked it.
    """
    s = _lowrank_solve(*pieces, -0.5j * dt, g[..., None])[..., 0]
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


def _cayley_generator_vjp(i_plus_s: np.ndarray, w: np.ndarray, g_w: np.ndarray) -> np.ndarray:
    """Backward through (I + S, W) = _cayley_system(Z), stacked, complex or real: with
    S = Z - Z^dag, g_S = -(I+S)^{-dag} g_W (I+W)^dag and g_Z = g_S - g_S^dag."""
    lhs = linalg_solve(i_plus_s.conj().swapaxes(-1, -2), g_w)
    g_s = -lhs @ (_identity(w.shape[-1]) + w).conj().swapaxes(-1, -2)
    return g_s - g_s.conj().swapaxes(-1, -2)


def _born_readout_vjp(meas: np.ndarray, psi: np.ndarray, weights: np.ndarray):
    """The Born-rule loss -sum_k w_k log p_k at p = |M^dag psi|^2 and its
    gradients, for state columns psi (N, B) and weight columns (V, B); loss and
    g_meas are summed over columns. Every readout's NLL in the package is readout.nll."""
    z = meas.conj().T @ psi
    p = np.abs(z) ** 2
    g_p = -weights / np.maximum(p, PROB_FLOOR)
    g_z = 2.0 * g_p * z
    g_psi = meas @ g_z
    g_meas = psi @ g_z.conj().T
    return nll(weights, p), g_psi, g_meas


# ---------------------------------------------------------------------------
# full model: forward loss and the adjoint backward pass

# What a full-model run derives once, for its model's dt and network, from (B, T) token ids
# that its caller checked and (B, T, V) target weights, entry [b, t] weighting readout b after
# step t: the network's checked mlp_widths; the step times t*dt, t = 0..T; the weighted steps
# t, last first, as the adjoint sums them; the ids in the adjoint's step order, tokens.T[::-1];
# and the factor term's coefficients [[-conj(c)], [-c]], c = i dt / 2.
FullRun = namedtuple("FullRun", "tokens weights widths times readouts sweep_tokens coef")


def _full_run(model: FullModelParams, tokens: np.ndarray, target_weights: np.ndarray) -> FullRun:
    """The FullRun of a model's run over (B, T) token ids already in [0, V_in)."""
    c = 0.5j * model.dt
    return FullRun(tokens, target_weights, mlp_widths(model.mlp, model.d + 2 * model.n),
                   np.arange(tokens.shape[1] + 1) * model.dt,
                   np.flatnonzero(target_weights.any(axis=(0, 2)))[::-1].tolist(),
                   tokens.T[::-1], np.array([[-np.conj(c)], [-c]]))


def _full_readout(model: FullModelParams, run: FullRun):
    """_full_states of the run, then the Born readout of each weighted step, last step first
    as the adjoint sums. Returns the loss, summed over the batch, and its gradients with
    respect to the interaction-picture states ({t: (B, N)}, weighted states t only), the
    measurement and the frequencies; the phases (T+1, N) that undo the interaction picture;
    the measurement and its R; and _full_states' FullPass."""
    forward = _full_states(model, run.tokens, run.widths, run.times)
    states, ip_phases = forward.states, forward.phases
    meas, r_meas = project_measurement(model.meas_raw)
    # row t undoes the interaction picture at time t*dt: the bits of exp(-ix) at any x != 0;
    # at x = +-0 the two may differ in the sign of a zero imaginary part
    phases = ip_phases.conj()
    loss, g_states, g_meas, g_lam = 0.0, {}, np.zeros_like(meas), np.zeros(model.n)
    for t in run.readouts:
        psi_s = phases[t + 1] * states[t + 1]
        step_loss, g_psis, g_m = _born_readout_vjp(meas, psi_s.T, run.weights[:, t].T)
        loss += step_loss
        g_meas += g_m
        g_states[t + 1] = ip_phases[t + 1] * g_psis.T
        g_lam += run.times[t + 1] * np.imag(np.sum(psi_s * g_psis.T.conj(), axis=0))
    return loss, g_states, g_meas, g_lam, phases, (meas, r_meas), forward


def _assert_finite(flat: np.ndarray) -> None:
    """Raise FloatingPointError if the flat gradient has a non-finite entry."""
    if not np.isfinite(flat).all():
        raise FloatingPointError("non-finite gradient entry")


def _backward_full(model: FullModelParams, run: FullRun) -> tuple[float, FullModelParams]:
    """Loss and parameter-shaped gradients of a run's (B, T) token batch (weights as in
    FullRun; _full_readout gives the loss and its gradients at the readouts), both summed
    over the batch. One stacked reverse traversal holds the adjoint recurrence: each Cayley
    solve via its adjoint system on its forward step's pieces, conjugated by adjoint_pieces
    once for all steps, interaction-picture phases, and the generator network's input
    gradients on the tanh' factors of the forward pass's activations, formed once. After it
    come the frequencies' factor term, one product per layer for the network's weights, one
    np.add.at for the embeddings, the initial state and the QR measurement projection."""
    n, d, dt, steps = model.n, model.d, model.dt, run.tokens.shape[1]
    loss, g_states, g_meas, g_lam, phases, (meas, r_meas), forward = _full_readout(model, run)
    states, acts, (inv_d, gram) = forward.states, forward.acts, forward.pieces
    g_psi = np.zeros_like(states[0])
    # per step, the network's input gradient, each layer's pre-activation gradient
    # and its output gradient, whose rows take dL/dPhi and dL/ddelta through views
    g_acts = [np.empty_like(a) for a in acts]
    raw_phi = split_factor_output(acts[-1], n, model.r)[0]
    g_phi, g_delta = split_factor_output(g_acts[-1], n, model.r)
    c, phi = 0.5j * dt, forward.factors.phi
    # both sides of each solve touch X = phi phi^dag and delta; with u = psi_in +
    # psi_out, dL/dX = -conj(c) s u^dag - c u s^dag: us[t] holds the rows u, s
    us = np.empty((steps, len(run.tokens), 2, n), dtype=complex)
    np.add(states[:-1], states[1:], out=us[:, :, 0])
    # per step, its adjoint pieces and its gradient rows; the hidden layers' tanh' factors
    pieces, g_rows = list(zip(*adjoint_pieces(phi, inv_d, gram))), [list(r) for r in zip(*g_acts)]
    slopes = [1.0 - h ** 2 for h in acts[1:-1]]

    for t in range(steps - 1, -1, -1):
        if t + 1 in g_states:
            g_psi += g_states[t + 1]
        # state adjoint through the step itself (norm-preserving)
        g_psi_step, s = adjoint_state_step(pieces[t], dt, g_psi)
        us[t, :, 1] = s
        # [-conj(c) s, -c u] @ [u^dag phi; s^dag phi], its rows' phases exp(i lam t dt) undone
        g_phi_ip = (run.coef * us[t, :, ::-1]).swapaxes(-1, -2) @ (us[t].conj() @ phi[t])
        np.multiply(phases[t][:, None], g_phi_ip, out=g_phi[t])
        np.negative(np.real(c * s.conj() * us[t, :, 0]), out=g_delta[t])

        # generator network, on the tanh' factors of the forward pass
        g_x_in = mlp_backward(model.mlp, [h[t] for h in slopes], g_rows[t])
        g_psi = g_psi_step + (g_x_in[:, d:d + n] + 1j * g_x_in[:, d + n:])

    # d phi_ip / d lam = i t dt phi_ip, and phi_ip conj(g_phi_ip) = phi conj(g_phi)
    g_lam -= run.times[:-1] @ np.vecdot(g_phi, raw_phi).imag.sum(axis=1)
    # the sums over steps run in sweep order, last step first
    g_w, g_b = mlp_weight_grads([h[::-1] for h in acts[:-1]], [g[::-1] for g in g_acts[1:]])
    g_embed = np.zeros_like(model.embed)
    # np.add.at accumulates the rows of every step and sequence that share a token
    np.add.at(g_embed, run.sweep_tokens, g_acts[0][::-1, :, :d])
    g_h0 = initial_state_vjp(model.h0, states[0, 0], g_psi.sum(axis=0))
    g_meas_raw = _qr_projection_vjp(meas, r_meas, g_meas)

    layers = [arr for pair in zip(g_w, g_b) for arr in pair]
    return loss, model.with_arrays([g_h0, g_lam, g_embed, *layers, g_meas_raw])


def _one_hot_rows(targets, v: int) -> np.ndarray:
    return np.eye(v)[list(targets)]


def backward_full_model(model: FullModelParams, tokens, targets) -> FullModelParams:
    """Adjoint gradients of the summed per-step negative log-likelihood."""
    ids = _checked_tokens([list(tokens)], model.v_in)
    return _backward_full(model, _full_run(model, ids, _one_hot_rows(targets, model.v)[None]))[1]


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
        part, pos = flat[pos:pos + arr.size], pos + arr.size
        if arr.dtype.kind == "c":  # and its imaginary block
            part, pos = part + 1j * flat[pos:pos + arr.size], pos + arr.size
        arrays.append(part.reshape(arr.shape))
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
    ids = _checked_tokens([list(tokens)], model.v_in)
    run = _full_run(model, ids, _one_hot_rows(targets, model.v)[None])

    def loss_at(flat):
        return _full_readout(unflatten_model(flat, model), run)[0]

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
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and x = x - lr mhat / (sqrt(vhat)
        # + eps), each in place and in that order
        np.add(np.multiply(m, ADAM_BETA1, out=m), (1.0 - ADAM_BETA1) * grad, out=m)
        np.add(np.multiply(v, ADAM_BETA2, out=v), (1.0 - ADAM_BETA2) * grad * grad, out=v)
        x -= lr * (m / (1.0 - ADAM_BETA1 ** (epoch + 1))) / (
            np.sqrt(v / (1.0 - ADAM_BETA2 ** (epoch + 1))) + ADAM_EPS)
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
    g_logits = q * targets.sum(axis=1, keepdims=True) - targets
    return (nll(targets, q), g_logits @ params.out_weights,
            [scale * (g_logits.T @ final), scale * g_logits.sum(axis=0)])


def _fixed_batch_grad(params: TrainableCusm | RosmParams, tokens: np.ndarray,
                      targets: np.ndarray, readout_vjp) -> tuple[float, TrainableCusm | RosmParams]:
    """Mean loss and gradients over a (B, T) int array of token ids in [0, A), checked
    once by the caller, with (B, V) target rows, in one stacked forward and adjoint pass
    whose readout is readout_vjp (_born_batch_vjp or _softmax_batch_vjp); gradients come
    in the parameters' own type."""
    i_plus_s, transitions = _cayley_system(params.gens)
    unit = initial_state(params.h0)
    states = _fixed_states(transitions, unit, tokens)
    scale = 1.0 / len(tokens)
    loss, g_final, g_readout = readout_vjp(params, states[-1], targets, scale)
    g_start, g_w = _fixed_transition_vjp(transitions, states, tokens, g_final)
    g_h0 = initial_state_vjp(params.h0, unit, scale * g_start)
    g_gens = _cayley_generator_vjp(i_plus_s, transitions, scale * g_w)
    return loss * scale, params.with_arrays([g_h0, g_gens, *g_readout])


def _fixed_loss(params, tokens: np.ndarray, targets: np.ndarray, readout_vjp) -> float:
    """The mean loss alone of _fixed_batch_grad, from its forward pass and its readout, scaled
    by the product with 1 / B, as _fixed_batch_grad's: a division rounds otherwise."""
    final = _fixed_states(cayley_map(params.gens), initial_state(params.h0), tokens)[-1]
    return readout_vjp(params, final, targets, 1.0)[0] * (1.0 / len(tokens))


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
    of its final states under the Born readout and under the magnitude-only one.
    One born_probabilities p gives both cusm_max_error and the Born NLL."""
    floor = entropy_floor(table)
    cusm = build_exact_cusm(task)
    final = evolve_fixed_batch(cusm.unitaries, cusm.psi0, task.sequences())[-1].T
    count, weights = len(table.pstar), table.pstar.T
    p = born_probabilities(cusm.measurement, final)
    p_diagonal = diagonal_only_probabilities(cusm.measurement, final)
    ablation = {"nll_born": nll(weights, p) / count,
                "nll_diagonal": nll(weights, p_diagonal) / count}
    max_err = float(np.abs(p.T - table.pstar).max())
    return {"cusm_max_error": max_err, "entropy_floor": floor,
            "exact_cusm_gap": ablation["nll_born"] - floor, "ablation": ablation}


def train_on_task(task: TaskInstance, model_kind: str, config: OptimizerConfig,
                  dim: int | None = None, seeds=(0, 1, 2, 3, 4)) -> list[TrainReport]:
    """Per-seed training runs on a separation task.

    model_kind: "cusm-trainable" (unitary transitions, Born readout),
    "rosm" (orthogonal transitions, affine softmax), or "full" (generated
    Hamiltonians); its row of the kind table below is all that this function
    knows of it. dim is the state dimension; it defaults to the task's n
    except for rosm, which needs it. The gap is final mean NLL minus the
    entropy floor and is declared zero below 1e-3 nats; convergence is
    reported, never asserted. A report's extra holds the kind's audit of the
    trained model and its readout's verdict at dim, the same for every seed:
    for rosm the baseline's softmax_rank_audit and the task's rank_bound_verdict;
    the Born readout, exact at N = n, has neither.
    A numerical failure raised while a seed trains carries model_kind and seed,
    and adam_cosine's epoch if it was raised in the loop.
    """
    if model_kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model_kind {model_kind!r}")
    table = target_table(task)
    floor = entropy_floor(table)
    tokens = _checked_tokens(task.sequences(), task.alphabet)  # once per run
    weights = np.zeros((*tokens.shape, task.v))
    weights[:, -1] = table.pstar

    def init_full(n, v, v_in, seed):
        return init_full_model(n=n, r=1, d=2 * task.n, v=v, v_in=v_in, seed=seed)

    def fixed(readout_vjp):  # a fixed-transition kind's gradient, final loss, prepare, count
        return (functools.partial(_fixed_batch_grad, readout_vjp=readout_vjp),
                lambda *batch: _fixed_loss(*batch, readout_vjp), lambda _: (tokens, table.pstar), 1)

    def none(*_):
        return {}

    # per kind, in MODEL_KINDS' order: init(dim, v, alphabet, seed); batch_grad(params,
    # *batch) -> (loss, grads in the params' own type); the final loss(params, *batch);
    # prepare(template) -> batch, the arguments that a seed's run derives once for its
    # epochs; the count that the losses and gradients are summed over (the fixed-transition
    # gradients are means); whether dim must be given; the readout's verdict bound(table,
    # dim); and audit(trained). Each final loss is a forward-only pass. The rows are built
    # on each call from the module's names, so a function that perfbench's tracer or a
    # test patches there is the one that runs; only the chosen row's bound and audit run.
    init, batch_grad, final_loss, prepare, count, needs_dim, bound, audit = dict(zip(MODEL_KINDS, (
        (init_trainable_cusm, *fixed(_born_batch_vjp), False, none, none),
        (init_trainable_rosm, *fixed(_softmax_batch_vjp), True, rank_bound_verdict,
         lambda trained: {"softmax_rank_audit": softmax_rank_audit(trained, task)}),
        (init_full, _backward_full, lambda *batch: _full_readout(*batch)[0], lambda template: (
            _full_run(template, tokens, weights),), len(tokens), False, none, none),
    )))[model_kind]
    if needs_dim and dim is None:
        raise ConfigurationError(f"{model_kind} training needs an explicit dimension")
    dim = task.n if dim is None else dim
    if dim < 1:
        raise ConfigurationError(f"model dimension must be >= 1, got {dim}")
    verdict = bound(table, dim)

    def loss_grad(x, template, batch):
        loss, grads = batch_grad(unflatten_model(x, template), *batch)
        # flatten, then divide: numpy's complex / real multiplies by a
        # reciprocal, which rounds the complex arrays differently
        flat = flatten_model(grads) / count
        _assert_finite(flat)
        return loss / count, flat

    reports = []
    for seed in seeds:
        start = time.perf_counter()
        template = init(dim, task.v, task.alphabet, seed)
        batch = prepare(template)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                flat, trace, stopped = adam_cosine(
                    flatten_model(template), lambda x: loss_grad(x, template, batch),
                    config, stop_fn=lambda loss: loss - floor < config.early_stop_gap,
                )
                trained = unflatten_model(flat, template)
                final = final_loss(trained, *batch) / count
                extra = {**audit(trained), **verdict}
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

