"""State evolution under learned Hermitian generators.

The state is a unit-norm complex vector. One step applies the Cayley
transform of the interaction Hamiltonian H = Phi Phi^dag + diag(delta):

    (I + i*dt/2 * H) psi_next = (I - i*dt/2 * H) psi

Unitarity of this update holds for any Hermitian H and any dt > 0, so the
norm is preserved to rounding. Two solvers are provided: a dense O(N^3)
reference and the O(N r^2) Woodbury fast path; the dense one exists so the
Woodbury algebra can always be cross-checked against it. Models with one fixed
unitary or orthogonal matrix per token advance through evolve_fixed_batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import IllConditionedStepError, NonHermitianError, VocabularyError

GRAM_COND_FAIL = 1e12
GRAM_COND_WARN = 1e8
RENORM_INTERVAL = 64
RENORM_TRIGGER = 1e-12


@dataclass
class InteractionFactors:
    """Low-rank factor Phi (N x r) plus real diagonal shift delta (N), or stacks of both."""

    phi: np.ndarray
    delta: np.ndarray
    time_index: int = 0

    @property
    def dim(self) -> int:
        return self.phi.shape[-2]

    @property
    def rank(self) -> int:
        return self.phi.shape[-1]

    def materialize(self) -> np.ndarray:
        """Dense H = Phi Phi^dag + diag(delta); Hermitian by construction."""
        return self.phi @ self.phi.conj().T + np.diag(self.delta.astype(complex))


@dataclass
class CayleyStepReport:
    gram_condition: float
    residual: float
    renorm_delta: float
    warning: bool = False


def check_hermitian(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    dev = np.abs(h - h.conj().T).max()
    if dev > tol:
        raise NonHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    return h


def interaction_picture_factors(
    factors: InteractionFactors, frequencies: np.ndarray, t: int, dt: float
) -> InteractionFactors:
    """Conjugate the low-rank factor into the interaction picture at time t*dt.

    Row j of Phi picks up the phase exp(i * lambda_j * t * dt); delta is
    untouched because diagonal entries are invariant under the conjugation.
    """
    phase = np.exp(1j * np.asarray(frequencies) * (t * dt))
    return InteractionFactors(phase[:, None] * factors.phi, factors.delta, factors.time_index)


def cayley_step_dense(h: np.ndarray, psi: np.ndarray, dt: float) -> np.ndarray:
    """Reference Cayley step: direct dense solve, O(N^3)."""
    h = check_hermitian(h)
    n = h.shape[0]
    k = (0.5j * dt) * h
    rhs = psi - k @ psi
    return np.linalg.solve(np.eye(n) + k, rhs)


def _apply_cayley_side(phi: np.ndarray, delta: np.ndarray, c: complex, x: np.ndarray) -> np.ndarray:
    """(diag(1 + c*delta) + c*phi phi^dag) x, stacked like _lowrank_solve."""
    return (1.0 + c * delta)[..., None] * x + c * (phi @ (phi.swapaxes(-1, -2).conj() @ x))


def _lowrank_solve(phi: np.ndarray, delta: np.ndarray, c: complex, rhs: np.ndarray,
                   step: int | None = None) -> tuple[np.ndarray, float]:
    """Solve (diag(1 + c*delta) + c*phi phi^dag) x = rhs at O(N r^2 + r^3).

    The one Woodbury solve of the forward step and its adjoint, stacked over
    leading axes: phi (..., N, r), delta (..., N), rhs (..., N, k). Returns x
    and the worst r x r Gram condition; fails above GRAM_COND_FAIL at `step`.
    """
    d = (1.0 + c * delta)[..., None]  # diagonal of A; modulus > 0 always
    phi_h = phi.swapaxes(-1, -2).conj()
    y = rhs / d
    p = phi / d
    gram = np.eye(phi.shape[-1]) + c * (phi_h @ p)
    sig = np.linalg.svd(gram, compute_uv=False)
    rcond = float((sig[..., -1] / sig[..., 0]).min())
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    if cond > GRAM_COND_FAIL:
        report = CayleyStepReport(gram_condition=cond, residual=np.nan, renorm_delta=np.nan)
        raise IllConditionedStepError(
            f"Gram matrix condition {cond:.3e} exceeds {GRAM_COND_FAIL:.0e}",
            report=report, step=step,
        )
    w = np.linalg.solve(gram, phi_h @ y)
    return y - c * (p @ w), cond


def _cayley_step(phi: np.ndarray, delta: np.ndarray, psi: np.ndarray, dt: float,
                 step: int | None = None) -> tuple[np.ndarray, CayleyStepReport]:
    """Cayley step of state columns psi (..., N, k), stacked like _lowrank_solve;
    the report holds the worst condition, residual and norm change of the stack."""
    c = 0.5j * dt
    b = _apply_cayley_side(phi, delta, -c, psi)
    out, cond = _lowrank_solve(phi, delta, c, b, step)
    resid = _apply_cayley_side(phi, delta, c, out) - b
    norms = np.linalg.norm(out, axis=-2)
    return out, CayleyStepReport(
        gram_condition=cond,
        residual=float(np.linalg.norm(resid, axis=-2).max()),
        renorm_delta=float(np.abs(norms - np.linalg.norm(psi, axis=-2)).max()),
        warning=cond > GRAM_COND_WARN,
    )


def cayley_step_woodbury(
    factors: InteractionFactors, psi: np.ndarray, dt: float
) -> tuple[np.ndarray, CayleyStepReport]:
    """Low-rank Cayley step at O(N r^2 + r^3) via the Woodbury identity.

    `factors` must already be in the interaction picture. Accepts psi of
    shape (N,) or a batch (N, B) sharing the same factors.
    """
    out, report = _cayley_step(factors.phi, factors.delta,
                               psi.reshape(psi.shape[0], -1), dt)
    return out.reshape(psi.shape), report


def _safeguard(psi: np.ndarray, step: int) -> np.ndarray:
    """Renormalize each state only on the safeguard schedule and only if its drift is visible."""
    if step % RENORM_INTERVAL == 0:
        norm = np.linalg.norm(psi, axis=-1, keepdims=True)
        return np.where(np.abs(norm - 1.0) > RENORM_TRIGGER, psi / norm, psi)
    return psi


def _check_vocabulary(tokens: np.ndarray, size: int) -> None:
    bad = tokens[(tokens < 0) | (tokens >= size)]
    if bad.size:
        raise VocabularyError(f"token id {bad[0]} outside the vocabulary [0, {size})")


def cayley_map(z: np.ndarray) -> np.ndarray:
    """W = (I + S)^{-1}(I - S) with S = Z - Z^dag, for generators Z stacked
    (..., d, d): unitary for complex Z, orthogonal for real Z."""
    s = z - z.conj().swapaxes(-1, -2)
    eye = np.eye(z.shape[-1])
    return np.linalg.solve(eye + s, eye - s)


def evolve_fixed_batch(transitions, state0: np.ndarray, tokens) -> list[np.ndarray]:
    """Forward pass of a fixed-transition model over a (B, T) array of token ids.

    transitions[k] is the (d, d) matrix of token k, complex unitary or real
    orthogonal, as an (A, d, d) stack or a dict keyed 0..A-1. Step t gathers
    transitions[tokens[:, t]] and applies them to the B states in one batched
    product. Returns the T+1 states (B, d).
    """
    if isinstance(transitions, dict):
        transitions = np.array([transitions[tok] for tok in range(len(transitions))])
    tokens = np.asarray(tokens, dtype=int)
    _check_vocabulary(tokens, len(transitions))
    psi = np.tile(state0, (tokens.shape[0], 1))
    states = [psi]
    for step in range(tokens.shape[1]):
        psi = _safeguard((transitions[tokens[:, step]] @ psi[..., None])[..., 0], step + 1)
        states.append(psi)
    return states


def evolve_fixed_unitaries(
    unitaries: dict[int, np.ndarray], psi0: np.ndarray, tokens
) -> list[np.ndarray]:
    """evolve_fixed_batch for one sequence: all T+1 states."""
    states = evolve_fixed_batch(unitaries, np.asarray(psi0, dtype=complex), [list(tokens)])
    return [psi[0] for psi in states]


def evolve_full_batch(model, tokens: np.ndarray):
    """Forward pass of the full model over a (B, T) array of token ids.

    At each step the generator network consumes one row per sequence (token
    embedding, Re/Im of the current interaction-picture state), its output
    factors are phase-conjugated into the interaction picture, and one stacked
    Woodbury Cayley step advances all B states. Returns T+1 states (B, N) and
    per step the stacked factors (phi (B, N, r)), one report over the batch
    and the generator network's layer inputs for the backward pass.
    """
    from .hamgen import initial_state, mlp_forward_cached, split_factor_output

    tokens = np.asarray(tokens)
    _check_vocabulary(tokens, model.embed.vectors.shape[0])
    embeds = model.embed.vectors[tokens]
    psi = np.tile(initial_state(model.init), (tokens.shape[0], 1))
    states, factor_log, reports, mlp_inputs = [psi], [], [], []
    for step in range(tokens.shape[1]):
        x = np.concatenate([embeds[:, step], psi.real, psi.imag], axis=-1)
        out, inputs = mlp_forward_cached(model.mlp, x)
        factors = interaction_picture_factors(
            split_factor_output(out, model.n, model.r), model.frequencies, step, model.dt)
        factors.time_index = step
        psi, report = _cayley_step(factors.phi, factors.delta, psi[..., None], model.dt, step)
        psi = _safeguard(psi[..., 0], step + 1)
        states.append(psi)
        factor_log.append(factors)
        reports.append(report)
        mlp_inputs.append(inputs)
    return states, factor_log, reports, mlp_inputs


def evolve_full_model(model, tokens):
    """evolve_full_batch for one sequence: (trajectory, interaction-picture factors, reports)."""
    states, factor_log, reports, _ = evolve_full_batch(model, np.asarray([list(tokens)], dtype=int))
    factors = [InteractionFactors(phi=f.phi[0], delta=f.delta[0], time_index=f.time_index)
               for f in factor_log]
    return [psi[0] for psi in states], factors, reports


def schrodinger_state(psi_ip: np.ndarray, frequencies: np.ndarray, t: int, dt: float) -> np.ndarray:
    """Undo the interaction picture: psi(t) = exp(-i H0 t) psi_I(t)."""
    return np.exp(-1j * np.asarray(frequencies) * (t * dt)) * psi_ip
