"""The dimensional-separation apparatus.

A task instance of size N pairs N context states with N query unitaries in
general position (the N^2 projectors rho_ij = W_j psi_i psi_i^dag W_j^dag
are linearly independent) and an informationally complete measurement with
V = N^2 outcomes. The target table p*(k|i,j) = |<m_k|W_j psi_i>|^2 then has
full rank N^2, which is what forces any real orthogonal model with an
affine-softmax readout up to dimension N^2 - 2, while a complex unitary
model of dimension N reproduces the table exactly by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .codec import complex_array, read_json, write_json
from .dynamics import cayley_map, evolve_fixed_batch
from .exceptions import CusmError, InvalidDimensionError
from .numerics import (
    ginibre,
    hermitian_basis,
    make_rng,
    numerical_rank,
    sample_haar_unitary,
    thin_qr_unique,
    vec_hermitian,
)
from .readout import born_probabilities, floored_log

NEAR_ORTHO_WARN = 1e-14
_MAX_RETRIES = 16


@dataclass
class TaskInstance:
    n: int
    v: int
    context_states: np.ndarray    # (n, N) complex, rows are psi_i
    query_unitaries: np.ndarray   # (n, N, N) complex
    measurement: np.ndarray       # (N, V) complex, MM^dag = I
    filler_length: int
    seed: int
    certificate_rank: int
    measurement_rank: int

    # token ids: context a_i -> i, filler sigma -> n, query b_j -> n + 1 + j
    @property
    def filler_token(self) -> int:
        return self.n

    def query_token(self, j: int) -> int:
        return self.n + 1 + j

    def sequence(self, i: int, j: int) -> list[int]:
        return [i] + [self.filler_token] * self.filler_length + [self.query_token(j)]

    def sequences(self) -> np.ndarray:
        """All n^2 sequences as a (n^2, T) token array, rows (i, j) lexicographic."""
        return np.array([self.sequence(i, j) for i in range(self.n) for j in range(self.n)])


@dataclass
class TargetTable:
    pstar: np.ndarray    # (n^2, V), rows indexed (i, j) lexicographic
    lstar: np.ndarray    # entrywise log
    logodds: np.ndarray  # (n^2, V-1), relative to reference token k0 = 0
    min_entry: float


@dataclass
class RosmParams:
    """Real orthogonal baseline: unit state, per-token orthogonal transitions
    from the real Cayley map, and an affine-softmax readout. The parameters are
    unconstrained: h0 is normalised on use, and token k's transition is the
    Cayley map of S = Z - Z^T for Z = gens[k]."""

    h0: np.ndarray            # (d,)
    gens: np.ndarray          # (A, d, d) real, row k for token k
    out_weights: np.ndarray   # (V, d)
    bias: np.ndarray          # (V,)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def state0(self) -> np.ndarray:
        return self.h0 / np.linalg.norm(self.h0)

    def transitions(self) -> np.ndarray:
        """(A, d, d) orthogonal transitions, row k for token k."""
        return cayley_map(self.gens)

    def readout(self, states: np.ndarray) -> np.ndarray:
        """Affine-softmax probabilities (B, V) of state rows (B, d)."""
        logits = states @ self.out_weights.T + self.bias
        expz = np.exp(logits - logits.max(axis=1, keepdims=True))
        return expz / expz.sum(axis=1, keepdims=True)

    def arrays(self) -> list:
        """The arrays in the order of the flat parameter vector."""
        return [self.h0, self.gens, self.out_weights, self.bias]

    def with_arrays(self, arrays: list) -> RosmParams:
        return RosmParams(*arrays)


def _density_rows(context_states: np.ndarray, query_unitaries: np.ndarray) -> np.ndarray:
    """Stack vec(rho_ij) as rows, (i, j) lexicographic."""
    n = context_states.shape[0]
    dim = context_states.shape[1]
    basis = hermitian_basis(dim)
    rows = np.empty((n * n, dim * dim))
    for i in range(n):
        for j in range(n):
            state = query_unitaries[j] @ context_states[i]
            rho = np.outer(state, state.conj())
            rows[i * n + j] = vec_hermitian(rho, basis)
    return rows


def certificate_rank(context_states: np.ndarray, query_unitaries: np.ndarray) -> int:
    """Numerical rank of the stacked vec(rho_ij) matrix; N^2 means general position."""
    return numerical_rank(_density_rows(context_states, query_unitaries))


def _projector_frame(n: int) -> np.ndarray:
    """The n^2 spanning unit vectors: e_j, (e_j+e_k)/sqrt2, (e_j+i e_k)/sqrt2."""
    cols = []
    eye = np.eye(n, dtype=complex)
    for j in range(n):
        cols.append(eye[:, j])
    for j in range(n):
        for k in range(j + 1, n):
            cols.append((eye[:, j] + eye[:, k]) / np.sqrt(2.0))
    for j in range(n):
        for k in range(j + 1, n):
            cols.append((eye[:, j] + 1j * eye[:, k]) / np.sqrt(2.0))
    return np.stack(cols, axis=1)  # (n, n^2)


def build_ic_measurement(n: int, seed: int) -> np.ndarray:
    """Informationally complete measurement with V = n^2 outcomes.

    Take the spanning projector frame, whiten it with the inverse square root
    of the frame operator S = sum v v^dag so that the outer products resolve
    the identity; whitening is invertible, so the span (informational
    completeness) survives.
    """
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    rng = make_rng(seed, stream=7)
    frame = _projector_frame(n)
    basis = hermitian_basis(n)
    for attempt in range(_MAX_RETRIES):
        s = frame @ frame.conj().T
        evals, evecs = np.linalg.eigh(s)
        inv_sqrt = (evecs * (1.0 / np.sqrt(evals))[None, :]) @ evecs.conj().T
        meas = inv_sqrt @ frame
        rows = np.stack(
            [vec_hermitian(np.outer(meas[:, k], meas[:, k].conj()), basis) for k in range(n * n)]
        )
        if numerical_rank(rows) == n * n:
            return meas
        frame = frame + 1e-3 * ginibre(rng, n, n * n)
    raise CusmError("informationally complete construction failed after retries")


def sample_general_position(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Random context states (normalized complex Gaussians) and Haar query
    unitaries; resamples on the measure-zero rank failure and logs it."""
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    for attempt in range(_MAX_RETRIES):
        rng = make_rng(seed, stream=11 + attempt)
        states = ginibre(rng, n, n)
        states = states / np.linalg.norm(states, axis=1)[:, None]
        unitaries = np.stack(
            [sample_haar_unitary(n, seed, stream=23 + 31 * attempt + j) for j in range(n)]
        )
        rank = certificate_rank(states, unitaries)
        if rank == n * n:
            return states, unitaries, rank
        warnings.warn(
            f"general-position resample (seed={seed}, attempt={attempt}): rank {rank} < {n * n}"
        )
    raise CusmError("could not sample a general-position configuration")


def n2_reference_config() -> dict:
    """The explicit N=2 witness: W0 = I, W1 Hadamard-like, psi0 = e0,
    psi1 = (1, i)/sqrt2. Returns the four projectors, the 4x4 coordinate
    matrix R in (alpha, u, v, gamma) coordinates with rows stacked in
    (i, j) lexicographic order, and det(R) = -1/4."""
    w0 = np.eye(2, dtype=complex)
    w1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi1 = np.array([1.0, 1j]) / np.sqrt(2.0)
    states = np.stack([psi0, psi1])
    unitaries = np.stack([w0, w1])

    def rho(i, j):
        vec = unitaries[j] @ states[i]
        return np.outer(vec, vec.conj())

    # coordinates of [[alpha, u+iv], [u-iv, gamma]]; row order rho00, rho01, rho10, rho11
    def coords(mat):
        return np.array([mat[0, 0].real, mat[0, 1].real, mat[0, 1].imag, mat[1, 1].real])

    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    r_mat = np.stack([coords(rho(i, j)) for (i, j) in order])
    return {
        "context_states": states,
        "query_unitaries": unitaries,
        "rho": {f"rho{i}{j}": rho(i, j) for (i, j) in order},
        "coordinate_matrix": r_mat,
        "detR": float(np.linalg.det(r_mat)),
    }


def make_task(n: int, seed: int, filler_length: int = 1, reference: bool = False) -> TaskInstance:
    """Assemble a full task instance (states, unitaries, IC measurement, certificates)."""
    if reference:
        if n != 2:
            raise InvalidDimensionError("the reference witness is defined for n = 2 only")
        ref = n2_reference_config()
        states, unitaries = ref["context_states"], ref["query_unitaries"]
        cert = certificate_rank(states, unitaries)
    else:
        states, unitaries, cert = sample_general_position(n, seed)
    meas = build_ic_measurement(n, seed)
    basis = hermitian_basis(n)
    meas_rank = numerical_rank(
        np.stack(
            [vec_hermitian(np.outer(meas[:, k], meas[:, k].conj()), basis) for k in range(n * n)]
        )
    )
    return TaskInstance(
        n=n,
        v=n * n,
        context_states=states,
        query_unitaries=unitaries,
        measurement=meas,
        filler_length=filler_length,
        seed=seed,
        certificate_rank=cert,
        measurement_rank=meas_rank,
    )


def target_table(task: TaskInstance) -> TargetTable:
    """p*(k|i,j) = |<m_k|W_j psi_i>|^2, rows (i, j) lexicographic."""
    n = task.n
    pstar = np.empty((n * n, task.v))
    for i in range(n):
        for j in range(n):
            state = task.query_unitaries[j] @ task.context_states[i]
            pstar[i * n + j] = born_probabilities(task.measurement, state)
    min_entry = float(pstar.min())
    if min_entry < NEAR_ORTHO_WARN:
        warnings.warn(
            f"target table entry {min_entry:.3e} is near zero; genericity premise at risk"
        )
    lstar, _ = floored_log(pstar)
    logodds = lstar[:, 1:] - lstar[:, :1]
    return TargetTable(pstar=pstar, lstar=lstar, logodds=logodds, min_entry=min_entry)


def check_separation_ranks(table: TargetTable, n: int) -> dict:
    """Ranks of P*, L*, and the log-odds matrix. Full rank of L* is reported
    as an observation, never asserted; it is an assumption, not a theorem."""
    rank_p = numerical_rank(table.pstar)
    rank_l = numerical_rank(table.lstar)
    rank_lo = numerical_rank(table.logodds)
    return {
        "rank_P": rank_p,
        "rank_L": rank_l,
        "rank_logodds": rank_lo,
        "lstar_full_rank": bool(rank_l == n * n),
    }


def basis_change_unitary(src: np.ndarray, dst: np.ndarray, seed: int = 0) -> np.ndarray:
    """A unitary mapping one unit vector onto another.

    Completes each vector to a unitary basis by QR against fixed seeded
    Ginibre columns and composes the two; returns I when src and dst already
    coincide.
    """
    n = src.shape[0]
    if np.linalg.norm(src - dst) < 1e-12:
        return np.eye(n, dtype=complex)

    def complete(vec, stream):
        if n == 1:
            return vec[:, None] / np.linalg.norm(vec)
        pad = ginibre(make_rng(seed, stream), n, n - 1)
        q, _ = thin_qr_unique(np.concatenate([vec[:, None], pad], axis=1))
        return q

    return complete(dst, 41) @ complete(src, 42).conj().T


@dataclass
class CusmParams:
    """Fixed-transition complex model: one unitary per token, Born readout."""

    psi0: np.ndarray
    unitaries: np.ndarray     # (A, N, N), row k for token k; or a dict token -> (N, N)
    measurement: np.ndarray


def build_exact_cusm(task: TaskInstance) -> CusmParams:
    """Exact solver for the task: context tokens rotate psi_0 onto psi_i,
    the filler is the identity, query tokens apply W_j, and the readout is
    the task's own measurement. Rows follow the token ids of TaskInstance."""
    psi0 = task.context_states[0]
    unitaries = [basis_change_unitary(psi0, state, seed=task.seed)
                 for state in task.context_states]
    unitaries.append(np.eye(task.n, dtype=complex))
    return CusmParams(psi0=psi0, unitaries=np.concatenate([unitaries, task.query_unitaries]),
                      measurement=task.measurement)


def random_rosm(d: int, task: TaskInstance, seed: int, scale: float = 1.0) -> RosmParams:
    """Random baseline over the task's alphabet (2n + 1 tokens) and vocabulary."""
    rng = make_rng(seed, stream=55)
    h0 = rng.standard_normal(d)
    h0 /= np.linalg.norm(h0)
    return RosmParams(
        h0=h0,
        gens=np.array([rng.standard_normal((d, d)) * scale for _ in range(2 * task.n + 1)]),
        out_weights=rng.standard_normal((task.v, d)) * scale,
        bias=rng.standard_normal(task.v) * scale,
    )


def softmax_rank_audit(rosm: RosmParams, task: TaskInstance) -> dict:
    """Rank of the final-step log-probability matrix over all n^2 sequences.

    The affine-softmax bound rank <= d + 2 is a theorem; a violation here
    means the implementation is wrong, not the mathematics.
    """
    states = evolve_fixed_batch(rosm.transitions(), rosm.state0(), task.sequences())
    logp, _ = floored_log(rosm.readout(states[-1]))
    rank = numerical_rank(logp, rel_tol=1e-8)
    bound = rosm.dim + 2
    return {"rank_Lbar": rank, "bound": bound, "satisfied": bool(rank <= bound)}


def save_task(task: TaskInstance, path: str) -> None:
    """JSON serialization with complex numbers as [re, im]; reload is bit-exact."""
    write_json(path, {
        "n": task.n,
        "v": task.v,
        "seed": task.seed,
        "filler_length": task.filler_length,
        "certificate_rank": task.certificate_rank,
        "measurement_rank": task.measurement_rank,
        "context_states": task.context_states,
        "query_unitaries": task.query_unitaries,
        "measurement": task.measurement,
        "rank_tolerance": 1e-10,
    })


def load_task(path: str) -> TaskInstance:
    doc = read_json(path)
    return TaskInstance(
        n=int(doc["n"]),
        v=int(doc["v"]),
        context_states=complex_array(doc["context_states"]),
        query_unitaries=complex_array(doc["query_unitaries"]),
        measurement=complex_array(doc["measurement"]),
        filler_length=int(doc["filler_length"]),
        seed=int(doc["seed"]),
        certificate_rank=int(doc["certificate_rank"]),
        measurement_rank=int(doc["measurement_rank"]),
    )
