"""State evolution under learned Hermitian generators.

The state is a unit-norm complex vector. One step applies the Cayley
transform of the interaction Hamiltonian H = Phi Phi^dag + diag(delta):

    (I + i*dt/2 * H) psi_next = (I - i*dt/2 * H) psi

which is unitary for any Hermitian H and dt > 0, so the norm is preserved to rounding and no
state is ever renormalized: over 10^5 steps at N=64, r=4 the norm drifted by 7e-13. A dense
O(N^3) reference solve, whose H must pass numerics.check_hermitian, cross-checks the O(N r^2)
Woodbury path to 1e-10. With c = i*dt/2, A+- = I +- cH and A+ + A- = 2I, that path solves once,
psi_next = 2 A+^{-1} psi - psi, in three calls: _woodbury_system builds A+'s pieces,
_gram_conditions checks their r x r Gram matrix and _lowrank_solve solves; the adjoint solve
(A- = A+^dag) takes the conjugated pieces. As A+ has no singular value below 1, the Gram matrix
has condition <= (1 + dt ||Phi||_F^2 / 2)^2 (Hager, SIAM Rev. 31, 1989), so
IllConditionedStepError needs dt ||Phi||^2 / 2 >~ 1e6; an r = 1 Gram system is a division. A
step of k state columns makes only the (N, k) arrays its arithmetic needs, each laid out like
the columns: two in the solve, psi_next in place on the first or in its trajectory row, and two
in its report; its factors of two ride exactly on N-vectors, not on passes over the columns:
the solve's scale 2/(1 + c delta) and the report's halved residual. A lone step returns a batch
state-major (column-contiguous), so a loop of steps reads contiguous columns after its first.
evolve_full_batch checks a batch's token ids and the network's layer widths; then its time
loop, _full_states, which a trainer that checked its run once calls directly, writes the
trajectory into arrays allocated once and checks each step's Gram condition after the loop;
then evolve_full_batch adds each step's residual and norm change, which no trainer reads, into
one CayleyStepReport of (T,) arrays. Both return one FullPass, whose comment names its fields;
evolve_full_model is the one-sequence view. Models with one fixed unitary or orthogonal matrix
per token advance through evolve_fixed_batch: the token check, then _fixed_states, the one time
loop, which a trainer that checked its tokens once calls directly. Their matrices W =
cayley_map(Z) come from _cayley_system, which also returns the I + S that W's VJP solves with;
inverse_cayley recovers the Hermitian generators of such unitaries.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
# kept: np.linalg.solve's gufunc, its bits 7 us a call faster; a singular system gives NaN,
# not LinAlgError, except under the error state that linalg_solve sets
# (tests/test_properties.py::test_gufunc_solve_equals_numpy_solve_bit_for_bit)
from numpy.linalg._umath_linalg import solve as _solve

from .exceptions import IllConditionedStepError, VocabularyError
from .hamgen import mlp_forward_cached, mlp_widths, split_factor_output
from .numerics import check_hermitian, initial_state, lapack_errstate

GRAM_COND_FAIL = 1e12
GRAM_COND_WARN = 1e8
# steps per stacked check; at N=64, T=256, r=4: 7.9, 1.7, 0.9, 1.7 ms for 1, 8, 64, 256
CHECK_CHUNK_STEPS = 64
_gram_identity = functools.cache(lambda r: np.where(np.eye(r, dtype=bool), 1.0, -0j))
_identity = functools.cache(np.eye)  # np.eye(d), per d; read-only by convention
REPRODUCTION_TOL = 1e-10  # max |cayley_map((i dt / 4) H) - W| of a recovered generator


@dataclass
class InteractionFactors:
    """Low-rank factor Phi (N x r) plus real diagonal shift delta (N), or stacks of both."""

    phi: np.ndarray
    delta: np.ndarray

    def __getitem__(self, index) -> InteractionFactors:
        """The factors at `index` of the leading stack axes."""
        return InteractionFactors(self.phi[index], self.delta[index])

    def materialize(self) -> np.ndarray:
        """Dense H = Phi Phi^dag + diag(delta), (..., N, N); Hermitian by construction."""
        diag = np.where(np.eye(self.phi.shape[-2], dtype=bool),
                        self.delta[..., None].astype(complex), 0j)
        return self.phi @ self.phi.conj().swapaxes(-1, -2) + diag


@dataclass
class CayleyStepReport:
    """Worst values over a step's stack, or (T,) arrays of them for a trajectory's steps;
    gram_condition takes per factor the a-priori bound of the module docstring while that
    is <= GRAM_COND_WARN, else its SVD condition. A step is flagged above GRAM_COND_WARN.
    Row t of a trajectory's report is, to the bit, the worst of the lone steps' reports
    over its batch's step t."""

    gram_condition: float | np.ndarray
    residual: float | np.ndarray
    norm_change: float | np.ndarray


# One full-model pass over a (B, T) batch of token ids: the states (T+1, B, N); the factors,
# interaction-picture InteractionFactors stacked (phi (T, B, N, r), delta (T, B, N), a view of
# the network's output); the checks, _full_states' (T,) Gram conditions, which
# evolve_full_batch replaces by a CayleyStepReport of (T,) arrays; the network's layer inputs
# and output acts (T, B, width); the solves' pieces for their adjoints, 1/(1 + c delta)
# (T, B, N) and the Gram matrices (T, B, r, r); and the phases exp(i lambda t dt) (T+1, N).
FullPass = namedtuple("FullPass", "states factors checks acts pieces phases")


def interaction_picture_factors(factors: InteractionFactors, frequencies: np.ndarray, t: int,
                                dt: float) -> InteractionFactors:
    """Conjugate the low-rank factor into the interaction picture at time t*dt.

    Row j of Phi picks up the phase exp(i * lambda_j * t * dt); delta is
    untouched because diagonal entries are invariant under the conjugation.
    """
    # kept: Phi in the caller's layout; channel-major factors read 359 against 361 us per step
    # at N = 512, r = 4, k = 32, with changed bits (perfbench/workloads.py, woodbury-batch)
    phase = np.exp(1j * np.asarray(frequencies) * (t * dt))
    return InteractionFactors(phase[:, None] * factors.phi, factors.delta)


def linalg_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of float64 or complex128 stacks a (..., d, d), b (..., d, k), with its
    bits and its LinAlgError("Singular matrix"): its gufunc under its error state, without
    the wrapper's Python-level checks."""
    # kept: np.linalg's error state; the bare gufunc gives NaN for the singular rosm Cayley
    # system at --lr 1e300, which then fails on the start-state norm instead
    # (tests/test_cli.py::TestTrain::test_singular_cayley_system_is_numerical_failure)
    with lapack_errstate("Singular matrix"):
        return _solve(a, b)


def cayley_step_dense(h: np.ndarray, psi: np.ndarray, dt: float) -> np.ndarray:
    """Reference Cayley step: direct dense solve, O(N^3)."""
    k = (0.5j * dt) * check_hermitian(h)
    # kept: np.linalg.solve, wrapper and all: the reference, off every hot path
    # (tests/test_dynamics.py::TestCayleyStepWoodbury::test_matches_dense)
    return np.linalg.solve(np.eye(len(k)) + k, psi - k @ psi)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """Norms of the columns of x (..., N, k), one pass over x."""
    # kept: not numerics.row_norms of the transposed columns, which read 18.6 against 8.5 us on a
    # state-major (512, 32) batch (best of 2,000 calls) and differs by up to 3.1e-16 relative
    # (perfbench/workloads.py, woodbury-batch)
    return np.sqrt(np.vecdot(x, x, axis=-2).real)


def _gram_conditions(phi: np.ndarray, c: complex, gram: np.ndarray, first=None) -> list:
    """The gram_condition of CayleyStepReport for steps stacked on the leading axis of phi
    (S, ..., N, r) and gram (S, ..., r, r); fails at the first bad one, as step first + s.
    A step's bound is its stack's largest; only a step flagged by it runs an SVD."""
    squares = np.vecdot(phi, phi, axis=-2).real.sum(-1)
    conds = squares.max(axis=tuple(range(1, squares.ndim))).tolist()
    for s, (square, g) in enumerate(zip(conds, gram)):
        root = 1.0 + abs(c) * square
        # kept: a float product overflows to inf quietly, where ** raises and a numpy bound
        # warns; under np.errstate a numpy bound made each lone step 5-14 us slower
        # (tests/test_cli.py::TestSimulate::test_overflowing_gram_bound_warns_nothing)
        conds[s] = cond = root * root
        if not cond <= GRAM_COND_WARN:  # inf and NaN too; a non-finite G, whose SVD raises, is NaN
            # per factor, its own bound where that is <= GRAM_COND_WARN, else its SVD condition
            roots = [1.0 + abs(c) * x for x in np.ravel(squares[s]).tolist()]
            bounds = np.array([x * x for x in roots])
            svds = np.linalg.cond(g).ravel() if np.isfinite(g).all() else np.nan
            conds[s] = cond = float(np.where(bounds <= GRAM_COND_WARN, bounds, svds).max())
        if not cond <= GRAM_COND_FAIL:
            reason = (f"condition {cond:.3e} exceeds {GRAM_COND_FAIL:.0e}"
                      if cond > GRAM_COND_FAIL else "has a non-finite entry")
            raise IllConditionedStepError(f"Gram matrix {reason}", report=CayleyStepReport(
                cond, np.nan, np.nan), step=None if first is None else first + s)
    return conds


def _woodbury_system(phi: np.ndarray, delta: np.ndarray, c: complex, inv_d=None, gram=None):
    """The pieces of A+ = diag(1 + c*delta) + c*phi phi^dag for phi (..., N, r) and delta
    (..., N): phi^dag, p = phi * inv_d, inv_d = 1/(1 + c*delta) and the Gram matrix
    G = I + c*phi^dag p (..., r, r), the last two written into `inv_d` and `gram` if given."""
    inv_d = np.divide(1.0, 1.0 + c * delta, out=inv_d)  # |1 + c*delta| >= 1
    phi_h, p = phi.swapaxes(-1, -2).conj(), phi * inv_d[..., None]
    gram = np.matmul(phi_h, p, out=gram)
    # kept: in place keeps the bits at r = 1 only while c = i dt/2 has no real part; go out
    # of place if c gains one
    # (tests/test_dynamics.py::TestEvolveFullModel::test_stacked_reports_equal_single_steps)
    gram *= c
    gram += _gram_identity(phi.shape[-1])  # I + c phi^dag p in place; adding -0.0 changes no bits
    return phi_h, p, inv_d, gram


def _lowrank_solve(phi_h: np.ndarray, p: np.ndarray, inv_d: np.ndarray, gram: np.ndarray,
                   c: complex, rhs: np.ndarray) -> np.ndarray:
    """The one Woodbury solve, unchecked, of rhs (..., N, k) on _woodbury_system's pieces at
    O(N r^2 + r^3): of the forward step, or of its adjoint on their conjugates and conj(c)."""
    # kept: fresh arrays per call; module-level buffers and a lazy report, which would hold
    # the caller's psi, showed no resolved gain (BENCH_51173f5.json)
    y = rhs * inv_d[..., None]
    w = phi_h @ y / gram if gram.shape[-1] == 1 else _solve(gram, phi_h @ y, signature="DD->D")
    # kept: rhs * inv_d first, then the correction in y's layout; another allocation order
    # read woodbury-batch -15.7% scaled (BENCH_122848e.json)
    # (tests/test_properties.py::test_state_major_steps_equal_fresh_temporaries_in_their_layout)
    # kept: c * w in place keeps the bits at r = k = 1 only while c has no real part
    # (tests/test_dynamics.py::TestEvolveFullModel::test_stacked_reports_equal_single_steps)
    y -= np.matmul(p, np.multiply(c, w, out=w), out=np.empty_like(y))
    return y


def _cayley_step(system: tuple, psi: np.ndarray, dt: float, out=None) -> np.ndarray:
    """psi' = 2 A+^{-1} psi - psi of columns psi (..., N, k) on A+'s _woodbury_system, into
    `out` or the solve's fresh 2 A+^{-1} psi, exact from the linear solve's scale 2 inv_d."""
    phi_h, p, inv_d, gram = system
    z = _lowrank_solve(phi_h, p, 2.0 * inv_d, gram, 0.5j * dt, psi)
    return np.subtract(z, psi, out=z if out is None else out)


def _step_residuals(phi: np.ndarray, delta: np.ndarray, psi: np.ndarray, out: np.ndarray,
                    dt: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(steps,) arrays of the worst residual ||A+ (out + psi) - 2 psi|| and norm change of
    Cayley steps psi -> out of columns (..., N, k) under phi and delta, stacked on a leading
    axis (or one step), as for each step alone: the scaling is out of place, as a one-element
    in-place complex multiply rounds without the vector loop's fused multiply-add. It forms the
    residual halved, at c/2 = i dt/4, and doubles its norms: exact, barring subnormals."""
    half_c = 0.25j * dt
    summed = out + psi
    # kept: out of place; at N = k = 1 in place rounds 1,784 of 4,096 products differently
    # (tests/test_dynamics.py::TestEvolveFullModel::test_stacked_reports_equal_single_steps)
    resid = summed * (0.5 + half_c * delta)[..., None]
    resid += np.matmul(phi, half_c * (phi.swapaxes(-1, -2).conj() @ summed), out=summed)
    resid -= psi
    return tuple(x.reshape(steps, -1).max(axis=1) for x in (
        2.0 * _column_norms(resid), np.abs(_column_norms(out) - _column_norms(psi))))


def cayley_step_woodbury(factors: InteractionFactors, psi: np.ndarray,
                         dt: float) -> tuple[np.ndarray, CayleyStepReport]:
    """Low-rank Cayley step at O(N r^2 + r^3) via the Woodbury identity.

    `factors` must already be in the interaction picture. Accepts psi of
    shape (N,) or a batch (N, B) sharing the same factors. A batch comes back
    state-major; a row-major one is solved and reported in its own layout (whose
    rank-r products round differently) and pays one transposing copy at the end.
    """
    cols, c = psi.reshape(psi.shape[0], -1), 0.5j * dt
    system = _woodbury_system(factors.phi, factors.delta, c)
    cond = _gram_conditions(factors.phi[None], c, system[3][None])[0]
    out = _cayley_step(system, cols, dt)
    del system  # its (N, r) pieces, before the report's (N, k) arrays
    # kept: the residual and norm change that only tests read; without them a state-major step
    # at N = 512, r = 4, k = 32 read 183 against 293 us, which pushes the Woodbury 64 -> 128
    # ratio below its 1.6 floor (tests/test_acceptance.py::test_criterion_11_scaling_trend)
    residual, norm_change = _step_residuals(factors.phi, factors.delta, cols, out, dt, 1)
    # kept: reshaped in C order; order="A" misplaces a state-major (N, 6) result reshaped to
    # (N, 2, 3) (tests/test_dynamics.py::TestCayleyStepWoodbury::
    # test_batch_comes_back_state_major_with_its_elements_in_place)
    return (np.asfortranarray(out).reshape(psi.shape),
            CayleyStepReport(cond, residual.item(), norm_change.item()))


def _checked_tokens(tokens, size: int) -> np.ndarray:
    """tokens as an int array, once each id is in [0, size). An id outside is
    reported as given: ids beyond int64 are checked as Python ints, not floats."""
    arr = np.asarray(tokens)
    if arr.dtype.kind not in "iu":
        arr = np.asarray(tokens, dtype=object)
    bad = arr[(arr < 0) | (arr >= size)]
    if bad.size:
        raise VocabularyError(f"token id {bad[0]} outside the vocabulary [0, {size})")
    return arr.astype(int, copy=False)


def _cayley_system(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I + S and W = (I + S)^{-1}(I - S) with S = Z - Z^dag, for generators Z stacked
    (..., d, d): W is unitary for complex Z, orthogonal for real Z, and W's VJP
    solves with the same I + S."""
    s = z - z.conj().swapaxes(-1, -2)
    eye = _identity(z.shape[-1])
    i_plus_s = eye + s
    return i_plus_s, linalg_solve(i_plus_s, eye - s)


def cayley_map(z: np.ndarray) -> np.ndarray:
    """W of _cayley_system."""
    return _cayley_system(z)[1]


def inverse_cayley(w: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian generators H = -(2i/dt) (I - W)(I + W)^{-1} of unitaries W
    stacked (..., N, N), and per matrix whether cayley_map((i dt / 4) H) gives W
    back within REPRODUCTION_TOL: a W with an eigenvalue at -1 has no generator.
    An overflow, as of a dt near zero, raises FloatingPointError."""
    eye = np.eye(w.shape[-1])
    with np.errstate(over="raise", invalid="raise"):
        k = linalg_solve((eye + w).conj().swapaxes(-1, -2),
                         (eye - w).conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
        h = (-2j / dt) * k
        h = 0.5 * (h + h.conj().swapaxes(-1, -2))  # symmetrize away rounding
        # Z = (i dt / 4) H has S = Z - Z^dag = (i dt / 2) H
        miss = np.abs(cayley_map(0.25j * dt * h) - w).max(axis=(-2, -1))
    return h, miss <= REPRODUCTION_TOL


def evolve_fixed_batch(transitions: np.ndarray, state0: np.ndarray, tokens) -> list[np.ndarray]:
    """Forward pass of a fixed-transition model over a (B, T) array of token ids.

    transitions[..., k, :, :] is the (d, d) matrix of token k, complex unitary
    or real orthogonal, in an (..., A, d, d) stack whose leading axes stack
    models, with start states (..., d). Step t gathers the matrices of
    tokens[:, t] and applies them to the B states of every model in one
    batched product. Returns the T+1 states (..., B, d).
    """
    return _fixed_states(transitions, state0, _checked_tokens(tokens, transitions.shape[-3]))


def _fixed_states(transitions: np.ndarray, state0: np.ndarray, tokens: np.ndarray) -> list:
    """evolve_fixed_batch's time loop over an int array of ids already in [0, A)."""
    psi = np.repeat(state0[..., None, :], tokens.shape[0], axis=-2)
    states = [psi]
    for step in range(tokens.shape[1]):
        psi = (transitions[..., tokens[:, step], :, :] @ psi[..., None])[..., 0]
        states.append(psi)
    return states


def evolve_fixed_unitaries(unitaries: np.ndarray, psi0: np.ndarray, tokens) -> list[np.ndarray]:
    """evolve_fixed_batch for one sequence: all T+1 states."""
    states = evolve_fixed_batch(unitaries, np.asarray(psi0, dtype=complex), [list(tokens)])
    return [psi[0] for psi in states]


def evolve_full_batch(model, tokens: np.ndarray) -> FullPass:
    """Forward pass of the full model over a (B, T) array of token ids: the checks of the ids
    and of the network's layer widths, _full_states at the step times t*dt, and then each
    step's residual and norm change, stacked over CHECK_CHUNK_STEPS steps. Returns
    _full_states' FullPass with its checks a CayleyStepReport of (T,) arrays."""
    tokens = _checked_tokens(tokens, model.embed.shape[0])
    forward = _full_states(model, tokens, mlp_widths(model.mlp, model.d + 2 * model.n),
                           np.arange(tokens.shape[1] + 1) * model.dt)
    states, factors, conds = forward.states, forward.factors, forward.checks
    checks = CayleyStepReport(conds, np.empty(len(conds)), np.empty(len(conds)))
    for start in range(0, len(conds), CHECK_CHUNK_STEPS):
        chunk = slice(start, start + CHECK_CHUNK_STEPS)  # the last may be shorter
        checks.residual[chunk], checks.norm_change[chunk] = _step_residuals(
            factors.phi[chunk], factors.delta[chunk], states[:-1][chunk, ..., None],
            states[1:][chunk, ..., None], model.dt, len(factors.phi[chunk]))
    return forward._replace(checks=checks)


def _full_states(model, tokens: np.ndarray, widths: list, times: np.ndarray) -> FullPass:
    """evolve_full_batch's time loop and Gram check over an int array of ids already in
    [0, V_in), with the network's checked mlp_widths and the T+1 step times t*dt, which a
    trainer that checked its run and derived them once passes directly; a trainer reads no
    residual, so it makes none.

    The trajectory is allocated once and the time loop, which holds only the recurrence,
    writes into it: at each step the generator network consumes one row per sequence
    (token embedding, Re/Im of the current interaction-picture state), its output factors
    are phase-conjugated into the interaction picture, and one stacked Woodbury solve
    advances all B states. The stacked Gram check follows, raising at the first
    ill-conditioned step. Returns a FullPass whose checks are the (T,) Gram conditions.
    """
    n, r, dt, c, (batch, steps) = model.n, model.r, model.dt, 0.5j * model.dt, tokens.shape
    acts = [np.empty((steps, batch, k)) for k in widths]
    x, (raw_phi, delta) = acts[0], split_factor_output(acts[-1], n, r)
    x[..., :model.d] = model.embed[tokens.T]
    phases = np.exp(1j * np.outer(times, model.frequencies))
    # kept: channel-major phi, as the network writes it; row-major changes 0.36% of the
    # states' bits at rollout-full's shape
    # (tests/test_properties.py::test_gram_check_after_the_loop_equals_the_check_in_it_bit_for_bit)
    phi = np.empty((steps, batch, r, n), dtype=complex).swapaxes(-1, -2)
    inv_d, gram = np.empty((steps, batch, n), complex), np.empty((steps, batch, r, r), complex)
    cols = np.empty((steps + 1, batch, n, 1), dtype=complex)  # states as columns
    cols[0] = initial_state(model.h0)[:, None]
    x_re, x_im, psi = x[..., -2 * n:-n], x[..., -n:], cols[..., 0]
    layer_rows = [list(rows) for rows in zip(*acts[1:])]  # step t: each layer's output rows

    def advance(step):  # the network's row, the phases and the Woodbury system of one step
        x_re[step], x_im[step] = psi[step].real, psi[step].imag
        mlp_forward_cached(model.mlp, x[step], layer_rows[step])
        np.multiply(phases[step, :, None], raw_phi[step], out=phi[step])
        # kept: delta read in place, a strided view of the network's output: 1.5-1.8% faster
        # than a contiguous copy, with the same bits (BENCH_1159da8.json)
        return _woodbury_system(phi[step], delta[step], c, inv_d[step], gram[step])
    conds = np.empty(steps)
    # kept: checks after the loop, which reruns checked at the first floating-point event, so a
    # failing run warns as a per-step check does; in process, one loop checking each step
    # before its solve read +2.6%, +10.0% and +12.3% at rollout-full's shape and +4.9% to
    # +6.8% at train-full's, with the same bits, and a per-step isfinite guard cost 3.1% and
    # missed singular Gram matrices (BENCH_655c506.json,
    # tests/test_properties.py::test_first_ill_conditioned_step_fails_as_in_the_loop_check)
    try:  # unchecked until a floating-point event, which a failing step may raise
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for step in range(steps):
                _cayley_step(advance(step), cols[step], dt, cols[step + 1])
    except FloatingPointError:  # rerun checked, so that no step past a failing one warns
        for step in range(steps):
            system = advance(step)
            conds[step] = _gram_conditions(phi[step:step + 1], c, gram[step:step + 1], step)[0]
            _cayley_step(system, cols[step], dt, cols[step + 1])
    else:
        conds = np.array(_gram_conditions(phi, c, gram, first=0))
    return FullPass(psi, InteractionFactors(phi, delta), conds, acts, (inv_d, gram), phases)


def evolve_full_model(model, tokens):
    """evolve_full_batch for one sequence: (trajectory (T+1, N), interaction-picture
    factors stacked (T, N, r) and (T, N), the checks of (T,) arrays)."""
    forward = evolve_full_batch(model, [list(tokens)])
    return forward.states[:, 0], forward.factors[:, 0], forward.checks
