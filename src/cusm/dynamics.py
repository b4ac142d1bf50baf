"""State evolution under learned Hermitian generators.

The state is a unit-norm complex vector. One step applies the Cayley
transform of the interaction Hamiltonian H = Phi Phi^dag + diag(delta):

    (I + i*dt/2 * H) psi_next = (I - i*dt/2 * H) psi

Unitarity of this update holds for any Hermitian H and any dt > 0, so the
norm is preserved to rounding. Two solvers are provided: a dense O(N^3)
reference and the O(N r^2) Woodbury fast path; the dense one exists so the
Woodbury algebra can always be cross-checked against it. With c = i*dt/2,
A+- = I +- cH and A+ + A- = 2I, the fast path solves once: psi_next =
2 A+^{-1} psi - psi. As A+ has no singular value below 1, the r x r Gram
matrix of the solve has condition <= (1 + dt ||Phi||_F^2 / 2)^2 (Hager, SIAM
Rev. 31, 1989), so IllConditionedStepError needs dt ||Phi||^2 / 2 >~ 1e6.
Models with one fixed unitary or orthogonal matrix per token advance through
evolve_fixed_batch.
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
    """Worst values over a step's stack; gram_condition is the a-priori bound of
    the module docstring while that is <= GRAM_COND_WARN, else the SVD condition."""

    gram_condition: float
    residual: float
    renorm_delta: float
    warning: bool = False


def check_hermitian(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """h as a complex array, if H - H^dag is within tol * max(1, max|H|): the
    rounding of a product such as Phi Phi^dag grows with the entries."""
    h = np.asarray(h, dtype=complex)
    dev = np.abs(h - h.conj().T).max()
    if dev > tol * max(1.0, np.abs(h).max()):
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
    return InteractionFactors(phase[:, None] * factors.phi, factors.delta)


def cayley_step_dense(h: np.ndarray, psi: np.ndarray, dt: float) -> np.ndarray:
    """Reference Cayley step: direct dense solve, O(N^3)."""
    h = check_hermitian(h)
    n = h.shape[0]
    k = (0.5j * dt) * h
    rhs = psi - k @ psi
    return np.linalg.solve(np.eye(n) + k, rhs)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """Norms of the columns of x (..., N, k), one pass over x."""
    return np.sqrt(np.vecdot(x, x, axis=-2).real)


def _lowrank_solve(phi: np.ndarray, delta: np.ndarray, c: complex, rhs: np.ndarray,
                   step: int | None = None) -> tuple[np.ndarray, float]:
    """Solve (diag(1 + c*delta) + c*phi phi^dag) x = rhs at O(N r^2 + r^3).

    The one Woodbury solve of the forward step and its adjoint, stacked over
    leading axes: phi (..., N, r), delta (..., N), rhs (..., N, k). Returns x
    and the Gram condition of the stack; fails above GRAM_COND_FAIL at `step`.
    """
    inv_d = (1.0 / (1.0 + c * delta))[..., None]  # |1 + c*delta| >= 1
    phi_h = phi.swapaxes(-1, -2).conj()
    y = rhs * inv_d
    p = phi * inv_d
    gram = np.eye(phi.shape[-1]) + c * (phi_h @ p)
    root = 1.0 + abs(c) * float(np.vecdot(phi, phi, axis=-2).real.sum(-1).max())
    cond = root * root  # a float product overflows to inf, where ** raises
    if not cond <= GRAM_COND_WARN:  # inf and NaN too: the SVD decides
        # the SVD of a non-finite matrix raises; its condition is NaN here
        cond = float(np.linalg.cond(gram).max()) if np.isfinite(gram).all() else np.nan
    if not cond <= GRAM_COND_FAIL:
        report = CayleyStepReport(gram_condition=cond, residual=np.nan, renorm_delta=np.nan)
        reason = (f"condition {cond:.3e} exceeds {GRAM_COND_FAIL:.0e}" if cond > GRAM_COND_FAIL
                  else "has a non-finite entry")
        raise IllConditionedStepError(f"Gram matrix {reason}", report=report, step=step)
    w = np.linalg.solve(gram, phi_h @ y)
    y -= p @ (c * w)
    return y, cond


def _cayley_step(phi: np.ndarray, delta: np.ndarray, psi: np.ndarray, dt: float,
                 step: int | None = None) -> tuple[np.ndarray, CayleyStepReport]:
    """Cayley step psi' = 2 A+^{-1} psi - psi of state columns psi (..., N, k),
    stacked like _lowrank_solve; the report holds the stack's worst values."""
    c = 0.5j * dt
    z, cond = _lowrank_solve(phi, delta, c, psi, step)
    out = 2.0 * z - psi
    # the residual of A+ psi' = A- psi, A+ (psi' + psi) - 2 psi, goes in z's
    # buffer: fresh N x k arrays cost page faults
    resid = np.add(out, psi, out=z)
    applied = phi @ (c * (phi.swapaxes(-1, -2).conj() @ resid))
    resid *= (1.0 + c * delta)[..., None]
    resid += applied
    resid -= 2.0 * psi
    return out, CayleyStepReport(
        gram_condition=cond,
        residual=float(_column_norms(resid).max()),
        renorm_delta=float(np.abs(_column_norms(out) - _column_norms(psi)).max()),
        warning=cond > GRAM_COND_WARN,
    )


def cayley_step_woodbury(factors: InteractionFactors, psi: np.ndarray,
                         dt: float) -> tuple[np.ndarray, CayleyStepReport]:
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


def evolve_fixed_batch(transitions: np.ndarray, state0: np.ndarray, tokens) -> list[np.ndarray]:
    """Forward pass of a fixed-transition model over a (B, T) array of token ids.

    transitions[..., k, :, :] is the (d, d) matrix of token k, complex unitary
    or real orthogonal, in an (..., A, d, d) stack whose leading axes stack
    models, with start states (..., d). Step t gathers the matrices of
    tokens[:, t] and applies them to the B states of every model in one
    batched product. Returns the T+1 states (..., B, d).
    """
    tokens = np.asarray(tokens, dtype=int)
    _check_vocabulary(tokens, transitions.shape[-3])
    psi = np.repeat(state0[..., None, :], tokens.shape[0], axis=-2)
    states = [psi]
    for step in range(tokens.shape[1]):
        psi = _safeguard((transitions[..., tokens[:, step], :, :] @ psi[..., None])[..., 0],
                         step + 1)
        states.append(psi)
    return states


def evolve_fixed_unitaries(unitaries: np.ndarray, psi0: np.ndarray, tokens) -> list[np.ndarray]:
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
    factors = [InteractionFactors(phi=f.phi[0], delta=f.delta[0]) for f in factor_log]
    return [psi[0] for psi in states], factors, reports


def schrodinger_state(psi_ip: np.ndarray, frequencies: np.ndarray, t: int, dt: float) -> np.ndarray:
    """Undo the interaction picture: psi(t) = exp(-i H0 t) psi_I(t)."""
    return np.exp(-1j * np.asarray(frequencies) * (t * dt)) * psi_ip
