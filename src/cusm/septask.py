"""The dimensional-separation apparatus.

A task instance of size N pairs N context states with N query unitaries in
general position (the N^2 projectors rho_ij = W_j psi_i psi_i^dag W_j^dag
are linearly independent) and an informationally complete measurement with
V = N^2 outcomes. Both conditions are one rank certificate (lifted_rank): the
Born-rule lift psi -> psi psi^dag (readout.density_matrix) of the N^2 query
states W_j psi_i, or of the N^2 measurement vectors, taken to real coordinates
in R^{N^2} (numerics.vec_hermitian), must have rank N^2; the N=2 witness reads
its coordinate matrix off the same lifted query states. The target
table p*(k|i,j) = |<m_k|W_j psi_i>|^2 then has full rank N^2, which is what
forces any real orthogonal model with an affine-softmax readout up to
dimension N^2 - 2, while a complex unitary model of dimension N reproduces
the table exactly by construction. The random baselines that audit that
bound run stacked, one batch per baseline dimension (softmax_rank_audits), and
rank_bound_verdict states what the bound leaves a trained baseline of dimension d.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .codec import read_json, write_json
from .dynamics import REPRODUCTION_TOL, cayley_map, evolve_fixed_batch
from .exceptions import ConfigurationError, CusmError, InvalidDimensionError
from .numerics import (
    DEFAULT_RANK_TOL,
    _rank_of_singular_values,
    check_allocation,
    ginibre,
    initial_state,
    make_rng,
    numerical_rank,
    sample_haar_unitary,
    thin_qr_unique,
    vec_hermitian,
)
from .readout import born_probabilities, density_matrix, floored_log

NEAR_ORTHO_WARN = 1e-14
AUDIT_RANK_TOL = 1e-8  # log-probabilities round more than the vec(rho) certificates
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

    def __post_init__(self):
        # made or loaded, a task must fit the int64 token array of sequences()
        check_allocation(8 * self.n ** 2 * (self.filler_length + 2),
                         f"a task with n={self.n} and filler_length={self.filler_length}")

    # token ids: context a_i -> i, filler sigma -> n, query b_j -> n + 1 + j
    @property
    def filler_token(self) -> int:
        return self.n

    def query_token(self, j: int) -> int:
        return self.n + 1 + j

    @property
    def alphabet(self) -> int:
        """The number of token ids, 2n + 1."""
        return self.query_token(self.n)

    def sequence(self, i: int, j: int) -> list[int]:
        return self.sequences()[i * self.n + j].tolist()

    def sequences(self) -> np.ndarray:
        """All n^2 sequences as a (n^2, T) token array, rows (i, j) lexicographic."""
        n = self.n
        tokens = np.full((n * n, self.filler_length + 2), self.filler_token)
        tokens[:, 0] = np.repeat(np.arange(n), n)
        tokens[:, -1] = self.query_token(0) + np.tile(np.arange(n), n)
        return tokens


@dataclass
class TargetTable:
    pstar: np.ndarray    # (n^2, V), rows indexed (i, j) lexicographic
    lstar: np.ndarray    # entrywise log
    min_entry: float


@dataclass
class RosmParams:
    """Real orthogonal baseline: unit state, per-token orthogonal transitions
    from the real Cayley map, and an affine-softmax readout. The parameters are
    unconstrained: the raw h0 is normalised on use by numerics.initial_state, and
    token k's transition is dynamics.cayley_map of S = Z - Z^T for Z = gens[k].
    Every array may carry the same leading axes, which stack models of one
    dimension."""

    h0: np.ndarray            # (..., d)
    gens: np.ndarray          # (..., A, d, d) real, row k for token k
    out_weights: np.ndarray   # (..., V, d)
    bias: np.ndarray          # (..., V)

    @property
    def dim(self) -> int:
        return self.h0.shape[-1]

    def readout(self, states: np.ndarray) -> np.ndarray:
        """Affine-softmax probabilities (..., B, V) of state rows (..., B, d)."""
        logits = states @ self.out_weights.swapaxes(-1, -2) + self.bias[..., None, :]
        expz = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return expz / expz.sum(axis=-1, keepdims=True)

    def arrays(self) -> list:
        """The arrays in the order of the flat parameter vector."""
        return [self.h0, self.gens, self.out_weights, self.bias]

    def with_arrays(self, arrays: list) -> RosmParams:
        return RosmParams(*arrays)


def query_states(context_states: np.ndarray, query_unitaries: np.ndarray) -> np.ndarray:
    """The n^2 states W_j psi_i as rows (n^2, N), (i, j) lexicographic."""
    n, dim = context_states.shape
    return (query_unitaries @ context_states[:, None, :, None]).reshape(n * n, dim)


def lifted_rank(states: np.ndarray) -> int:
    """Numerical rank of the state rows (M, N) lifted to vec(psi psi^dag)."""
    return numerical_rank(vec_hermitian(density_matrix(states)))


def certificate_rank(context_states: np.ndarray, query_unitaries: np.ndarray) -> int:
    """lifted_rank of the n^2 query states; N^2 means general position."""
    return lifted_rank(query_states(context_states, query_unitaries))


def _projector_frame(n: int) -> np.ndarray:
    """The n^2 spanning unit vectors (n, n^2): e_j, then (e_j+e_k)/sqrt2 and
    (e_j+i e_k)/sqrt2 over j < k in lexicographic order, as vec_hermitian."""
    eye = np.eye(n, dtype=complex)
    j, k = np.triu_indices(n, 1)
    return np.concatenate([eye, (eye[:, j] + eye[:, k]) / np.sqrt(2.0),
                           (eye[:, j] + 1j * eye[:, k]) / np.sqrt(2.0)], axis=1)


def build_ic_measurement(n: int) -> tuple[np.ndarray, int]:
    """Informationally complete measurement with V = n^2 outcomes, and the
    lifted_rank of its vectors, which is n^2.

    Take the spanning projector frame and whiten it with the inverse square
    root of the frame operator S = sum v v^dag, so that the outer products
    resolve the identity. Whitening is a congruence, so the span of the lifted
    frame, its informational completeness, survives; the rank is still checked.
    """
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got {n}")
    frame = _projector_frame(n)
    evals, evecs = np.linalg.eigh(frame @ frame.conj().T)
    meas = ((evecs * (1.0 / np.sqrt(evals))[None, :]) @ evecs.conj().T) @ frame
    rank = lifted_rank(meas.T)
    if rank != n * n:
        raise CusmError(f"measurement frame lifts to rank {rank} < {n * n}")
    return meas, rank


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
    rho = density_matrix(query_states(states, unitaries))  # rows rho00, rho01, rho10, rho11
    # coordinates of [[alpha, u+iv], [u-iv, gamma]]
    r_mat = np.stack([rho[:, 0, 0].real, rho[:, 0, 1].real, rho[:, 0, 1].imag,
                      rho[:, 1, 1].real], axis=1)
    return {
        "context_states": states,
        "query_unitaries": unitaries,
        "rho": {f"rho{k // 2}{k % 2}": rho[k] for k in range(4)},
        "coordinate_matrix": r_mat,
        "detR": float(np.linalg.det(r_mat)),
    }


def make_task(n: int, seed: int, filler_length: int = 1, reference: bool = False) -> TaskInstance:
    """Assemble a full task instance (states, unitaries, IC measurement, certificates)."""
    check_allocation(16 * n ** 4, f"a task with n={n}")  # the (n^2, n, n) complex lifts
    if reference:
        if n != 2:
            raise InvalidDimensionError("the reference witness is defined for n = 2 only")
        ref = n2_reference_config()
        states, unitaries = ref["context_states"], ref["query_unitaries"]
        cert = certificate_rank(states, unitaries)
    else:
        states, unitaries, cert = sample_general_position(n, seed)
    meas, meas_rank = build_ic_measurement(n)
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
    # kept: one Born product per state; a stacked product changes about one pstar entry in
    # twelve (tests/test_septask.py::TestTargetTable::test_one_born_product_per_state)
    states = query_states(task.context_states, task.query_unitaries)
    pstar = np.array([born_probabilities(task.measurement, state) for state in states])
    min_entry = float(pstar.min())
    if min_entry < NEAR_ORTHO_WARN:
        warnings.warn(
            f"target table entry {min_entry:.3e} is near zero; genericity premise at risk"
        )
    lstar = floored_log(pstar)
    return TargetTable(pstar=pstar, lstar=lstar, min_entry=min_entry)


def check_separation_ranks(table: TargetTable, n: int) -> dict:
    """Ranks of P* and L*. Full rank of L* is reported as an observation,
    never asserted; it is an assumption, not a theorem."""
    rank_p = numerical_rank(table.pstar)
    rank_l = numerical_rank(table.lstar)
    return {
        "rank_P": rank_p,
        "rank_L": rank_l,
        "lstar_full_rank": bool(rank_l == n * n),
    }


def rank_bound_verdict(table: TargetTable, d: int) -> dict:
    """The affine-softmax bound's verdict on baselines of dimension d: rank_L of
    check_separation_ranks, whether d + 2 < rank_L forbids an exact fit, and the
    Eckart-Young floor sqrt(sum of sigma_i(L*)^2 over i > d + 2), the Frobenius distance
    to L* that no matrix of rank <= d + 2 beats, both from one SVD of L*. Reported, never
    asserted of the NLL gap: the bound limits L-bar, not the mean KL."""
    sigma = np.linalg.svd(table.lstar, compute_uv=False)
    rank_l, tail = int(_rank_of_singular_values(sigma, table.lstar.shape)), sigma[d + 2:]
    return {"rank_L": rank_l, "bound_forbids_exact": d + 2 < rank_l,
            "eckart_young_floor": float(np.sqrt(np.vecdot(tail, tail)))}


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
        pad = ginibre(make_rng(seed, stream), n, n - 1)
        q, _ = thin_qr_unique(np.concatenate([vec[:, None], pad], axis=1))
        return q

    return complete(dst, 41) @ complete(src, 42).conj().T


# kept: apart from train.TrainableCusm: the exact model holds unitaries and the task's own
# measurement, the trainable one Cayley generators and a raw measurement
# (tests/test_septask.py::TestExactCusm::test_reproduces_targets)
@dataclass
class CusmParams:
    """Fixed-transition complex model: one unitary per token, Born readout."""

    psi0: np.ndarray
    unitaries: np.ndarray     # (A, N, N), row k for token k
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


def random_rosm(d: int, task: TaskInstance, seed: int) -> RosmParams:
    """Random baseline over the task's alphabet and vocabulary; h0 is raw."""
    rng = make_rng(seed, stream=55)
    return RosmParams(
        h0=rng.standard_normal(d),
        gens=rng.standard_normal((task.alphabet, d, d)),
        out_weights=rng.standard_normal((task.v, d)),
        bias=rng.standard_normal(task.v),
    )


def softmax_rank_audits(rosms: list, task: TaskInstance) -> list[dict]:
    """Rank of each baseline's final-step log-probability matrix over all n^2
    sequences, in the order of rosms.

    The baselines of one dimension d are stacked and run together: one Cayley
    map, one forward pass, one readout and one stacked SVD per d. The
    affine-softmax bound rank <= d + 2 is a theorem; a violation here means
    the implementation is wrong, not the mathematics.
    """
    tokens = task.sequences()
    by_dim: dict[int, list[int]] = {}
    for k, rosm in enumerate(rosms):
        by_dim.setdefault(rosm.dim, []).append(k)
    audits = [None] * len(rosms)
    for d, members in by_dim.items():
        stack = RosmParams(*map(np.stack, zip(*(rosms[k].arrays() for k in members))))
        states = evolve_fixed_batch(cayley_map(stack.gens), initial_state(stack.h0), tokens)
        logp = floored_log(stack.readout(states[-1]))
        for k, rank in zip(members, numerical_rank(logp, rel_tol=AUDIT_RANK_TOL)):
            audits[k] = {"rank_Lbar": int(rank), "bound": d + 2, "satisfied": bool(rank <= d + 2)}
    return audits


def softmax_rank_audit(rosm: RosmParams, task: TaskInstance) -> dict:
    """softmax_rank_audits of one baseline."""
    return softmax_rank_audits([rosm], task)[0]


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
        "rank_tolerance": DEFAULT_RANK_TOL,
    })


def load_task(path: str) -> TaskInstance:
    """Inverse of save_task; a field of the wrong type or shape, n < 2, v other
    than n^2, a negative filler_length or seed, or a context state, query matrix
    or measurement that misses its unit norm, W^dag W = I or MM^dag = I by more
    than REPRODUCTION_TOL in its largest entry is a ConfigurationError."""
    doc = read_json(path)
    n, v = doc.integer("n", 2), doc.integer("v")
    if v != n * n:
        raise ConfigurationError(f"{path}: field 'v' must be n^2 = {n * n}, got {v}")
    task = TaskInstance(
        n=n,
        v=v,
        context_states=doc.array("context_states", (n, n), complex_=True),
        query_unitaries=doc.array("query_unitaries", (n, n, n), complex_=True),
        measurement=doc.array("measurement", (n, v), complex_=True),
        filler_length=doc.integer("filler_length", 0),
        seed=doc.integer("seed", 0),
        certificate_rank=doc.integer("certificate_rank"),
        measurement_rank=doc.integer("measurement_rank"),
    )
    c, w, m, eye = task.context_states, task.query_unitaries, task.measurement, np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow misses by inf
        for field, what, miss in (
                ("context_states", "a norm misses 1", np.linalg.norm(c, axis=1) - 1),
                ("query_unitaries", "W^dag W misses I", w.conj().swapaxes(-1, -2) @ w - eye),
                ("measurement", "MM^dag misses I", m @ m.conj().T - eye)):
            worst = np.abs(miss).max()
            if not worst <= REPRODUCTION_TOL:
                raise ConfigurationError(f"{path}: field {field!r}: {what} by {worst:.3e}")
    return task
