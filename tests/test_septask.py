import warnings

import numpy as np
import pytest

from cusm import septask
from cusm.dynamics import cayley_map, evolve_fixed_batch, evolve_fixed_unitaries
from cusm.exceptions import CusmError, InvalidDimensionError
from cusm.numerics import ginibre, initial_state, make_rng, numerical_rank, vec_hermitian
from cusm.readout import born_probabilities
from cusm.septask import (
    RosmParams,
    basis_change_unitary,
    build_exact_cusm,
    build_ic_measurement,
    certificate_rank,
    check_separation_ranks,
    load_task,
    make_task,
    n2_reference_config,
    random_rosm,
    rank_bound_verdict,
    sample_general_position,
    save_task,
    softmax_rank_audit,
    softmax_rank_audits,
    target_table,
)


def loop_projector_frame(n: int) -> np.ndarray:
    """septask._projector_frame's loop form: e_j, (e_j+e_k)/sqrt2, (e_j+i e_k)/sqrt2."""
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


class TestIcMeasurement:
    def test_closed_form_frame_equals_the_loop_form_bit_for_bit(self):
        for n in range(1, 10):
            frame, want = septask._projector_frame(n), loop_projector_frame(n)
            assert (frame.dtype, frame.shape) == (want.dtype, want.shape) == (complex, (n, n * n))
            assert frame.tobytes() == want.tobytes()

    def test_measurement_bits_as_from_the_loop_frame(self, monkeypatch):
        closed = {n: build_ic_measurement(n) for n in (2, 3, 4)}
        monkeypatch.setattr(septask, "_projector_frame", loop_projector_frame)
        for n, (meas, rank) in closed.items():
            want, want_rank = build_ic_measurement(n)
            assert meas.tobytes() == want.tobytes() and rank == want_rank

    def test_rank_and_identity(self):
        for n in (2, 3, 4):
            m, rank = build_ic_measurement(n)
            assert rank == n * n
            assert m.shape == (n, n * n)
            assert np.abs(m @ m.conj().T - np.eye(n)).max() < 1e-10
            rows = np.stack([
                vec_hermitian(np.outer(m[:, k], m[:, k].conj()))
                for k in range(n * n)
            ])
            assert numerical_rank(rows) == n * n

    def test_born_normalization(self):
        rng = make_rng(2)
        for n in (2, 3, 4):
            m, _ = build_ic_measurement(n)
            psi = ginibre(rng, n, 1)[:, 0]
            psi /= np.linalg.norm(psi)
            assert abs(born_probabilities(m, psi).sum() - 1.0) < 1e-12

    def test_linear_inversion(self):
        # informational completeness: a Hermitian matrix is recoverable from
        # its outcome functionals by least squares
        n = 2
        m, _ = build_ic_measurement(n)
        rng = make_rng(5)
        z = ginibre(rng, n, n)
        rho = z + z.conj().T
        design = np.stack([
            vec_hermitian(np.outer(m[:, k], m[:, k].conj()))
            for k in range(n * n)
        ])
        outcomes = np.array([
            np.trace(np.outer(m[:, k], m[:, k].conj()) @ rho).real
            for k in range(n * n)
        ])
        coeffs, *_ = np.linalg.lstsq(design, outcomes, rcond=None)
        assert np.abs(coeffs - vec_hermitian(rho)).max() < 1e-10

    def test_small_n_rejected(self):
        with pytest.raises(InvalidDimensionError):
            build_ic_measurement(1)

    def test_rank_deficient_lift_is_rejected(self, monkeypatch):
        monkeypatch.setattr(septask, "lifted_rank", lambda vectors: 3)
        with pytest.raises(CusmError, match="lifts to rank 3 < 4"):
            build_ic_measurement(2)


class TestGeneralPosition:
    def test_certificate_ranks(self):
        for n in (2, 3):
            for seed in range(5):
                states, unitaries, rank = sample_general_position(n, seed)
                assert rank == n * n
                assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12

    def test_orthonormal_contexts_degenerate(self):
        # standard-basis context states cannot reach full rank: for each
        # query the n projected states sum to the identity, and the identity
        # is shared across queries, leaving n - 1 independent relations
        for n in (2, 3):
            states = np.eye(n, dtype=complex)
            _, unitaries, _ = sample_general_position(n, seed=1)
            rank = certificate_rank(states, unitaries)
            assert rank <= n * n - (n - 1)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidDimensionError):
            sample_general_position(1, seed=0)

    @pytest.mark.parametrize("failures", [1, septask._MAX_RETRIES])
    def test_each_resample_warns(self, failures, monkeypatch):
        ranks = []

        def deficient_at_first(states, unitaries):
            ranks.append(certificate_rank(states, unitaries) - (len(ranks) < failures))
            return ranks[-1]

        monkeypatch.setattr(septask, "certificate_rank", deficient_at_first)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if failures == septask._MAX_RETRIES:
                with pytest.raises(CusmError, match="general-position"):
                    sample_general_position(2, seed=0)
            else:
                _, _, rank = sample_general_position(2, seed=0)
                assert rank == 4
        assert [str(w.message) for w in caught] == [
            f"general-position resample (seed=0, attempt={k}): rank 3 < 4"
            for k in range(failures)]


class TestN2Reference:
    def test_determinant(self):
        assert abs(n2_reference_config()["detR"] - (-0.25)) < 1e-12

    def test_density_matrices(self):
        ref = n2_reference_config()
        assert np.abs(ref["rho"]["rho00"] - np.diag([1.0, 0.0])).max() < 1e-14
        assert np.abs(ref["rho"]["rho10"] - 0.5 * np.array([[1, -1j], [1j, 1]])).max() < 1e-14
        assert np.abs(ref["rho"]["rho01"] - 0.5 * np.array([[1, 1], [1, 1]])).max() < 1e-14
        assert np.abs(ref["rho"]["rho11"] - 0.5 * np.array([[1, 1j], [-1j, 1]])).max() < 1e-14

    def test_reference_task(self):
        task = make_task(2, seed=0, reference=True)
        assert task.certificate_rank == 4
        with pytest.raises(InvalidDimensionError):
            make_task(3, seed=0, reference=True)


class TestTargetTable:
    def test_row_sums(self):
        task = make_task(2, seed=6)
        table = target_table(task)
        assert np.abs(table.pstar.sum(axis=1) - 1.0).max() < 1e-12

    def test_trace_formula_cross_check(self):
        task = make_task(3, seed=7)
        table = target_table(task)
        for i in range(3):
            for j in range(3):
                state = task.query_unitaries[j] @ task.context_states[i]
                rho = np.outer(state, state.conj())
                for k in range(task.v):
                    mk = np.outer(task.measurement[:, k], task.measurement[:, k].conj())
                    assert abs(table.pstar[i * 3 + j, k] - np.trace(mk @ rho).real) < 1e-13

    def test_one_born_product_per_state(self):
        # born_probabilities of all n^2 states as one (N, n^2) product rounds about
        # one entry in twelve differently
        for n in (2, 3, 4):
            task = make_task(n, seed=n)
            states = septask.query_states(task.context_states, task.query_unitaries)
            rows = [born_probabilities(task.measurement, state) for state in states]
            assert np.array_equal(target_table(task).pstar, rows)

    def test_ranks(self):
        for n in (2, 3):
            task = make_task(n, seed=8)
            report = check_separation_ranks(target_table(task), n)
            assert report["rank_P"] == n * n

    def test_near_zero_entry_warns(self):
        # a context state that W_0 maps orthogonal to m_0 gives p*(0|0,0) = 0
        task = make_task(2, seed=6)
        m0 = task.measurement[:, 0]
        orthogonal = np.array([-m0[1].conj(), m0[0].conj()]) / np.linalg.norm(m0)
        task.context_states[0] = task.query_unitaries[0].conj().T @ orthogonal
        with pytest.warns(UserWarning, match="is near zero"):
            table = target_table(task)
        assert table.min_entry < septask.NEAR_ORTHO_WARN

    def test_degenerate_rows_detected(self):
        task = make_task(2, seed=9)
        table = target_table(task)
        table.pstar[1] = table.pstar[0]
        assert numerical_rank(table.pstar) < 4

    @pytest.mark.parametrize("d", [1, 7, 12])
    def test_svd_calls_per_rank_bound_verdict(self, d, monkeypatch):
        # rank_L and the Eckart-Young floor come from one SVD of L*, by numerical_rank's rule
        table = target_table(make_task(3, seed=0))
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
        verdict = rank_bound_verdict(table, d)
        assert calls == [(9, 9)]
        monkeypatch.undo()
        assert verdict["rank_L"] == check_separation_ranks(table, 3)["rank_L"] == 9
        assert verdict["bound_forbids_exact"] is (d + 2 < 9)


class TestBasisChangeUnitary:
    def test_identity_when_equal(self):
        v = np.array([1.0, 0.0], dtype=complex)
        assert np.array_equal(basis_change_unitary(v, v), np.eye(2))

    def test_basis_to_basis(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        u = basis_change_unitary(e0, e1)
        assert np.abs(u @ e0 - e1).max() < 1e-14

    def test_random_pair(self):
        rng = make_rng(10)
        src = ginibre(rng, 5, 1)[:, 0]
        src /= np.linalg.norm(src)
        dst = ginibre(rng, 5, 1)[:, 0]
        dst /= np.linalg.norm(dst)
        u = basis_change_unitary(src, dst)
        assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12
        assert np.abs(u @ src - dst).max() < 1e-12


class TestExactCusm:
    def test_reproduces_targets(self):
        task = make_task(2, seed=0, reference=True)
        table = target_table(task)
        cusm = build_exact_cusm(task)
        for i in range(2):
            for j in range(2):
                probs = born_probabilities(cusm.measurement, evolve_fixed_batch(
                    cusm.unitaries, cusm.psi0, [task.sequence(i, j)])[-1][0])
                assert np.abs(probs - table.pstar[i * 2 + j]).max() < 1e-12

    def test_filler_invariance(self):
        task = make_task(3, seed=11)
        cusm = build_exact_cusm(task)
        short = [0] + [task.filler_token] * 0 + [task.query_token(1)]
        long = [0] + [task.filler_token] * 100 + [task.query_token(1)]
        p_short = born_probabilities(
            cusm.measurement, evolve_fixed_batch(cusm.unitaries, cusm.psi0, [short])[-1][0])
        p_long = born_probabilities(
            cusm.measurement, evolve_fixed_batch(cusm.unitaries, cusm.psi0, [long])[-1][0])
        assert np.abs(p_short - p_long).max() < 1e-12

    def test_context_unitaries_hit_states(self):
        task = make_task(3, seed=12)
        cusm = build_exact_cusm(task)
        for i in range(3):
            assert np.abs(cusm.unitaries[i] @ cusm.psi0 - task.context_states[i]).max() < 1e-12

    def test_per_step_normalization(self):
        task = make_task(2, seed=13)
        cusm = build_exact_cusm(task)
        states = evolve_fixed_batch(cusm.unitaries, cusm.psi0, [task.sequence(1, 0)])
        probs = born_probabilities(cusm.measurement, np.concatenate(states).T).T
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-10

    def test_final_state_composition(self):
        task = make_task(2, seed=14)
        cusm = build_exact_cusm(task)
        tokens = task.sequence(1, 1)
        traj = evolve_fixed_unitaries(cusm.unitaries, cusm.psi0, tokens)
        expected = task.query_unitaries[1] @ task.context_states[1]
        assert np.abs(traj[-1] - expected).max() < 1e-12


class TestRosm:
    def test_uniform_with_zero_readout(self):
        task = make_task(2, seed=15)
        rosm = random_rosm(3, task, seed=1)
        rosm.out_weights = np.zeros_like(rosm.out_weights)
        rosm.bias = np.zeros_like(rosm.bias)
        probs = rosm.readout(np.concatenate(
            evolve_fixed_batch(cayley_map(rosm.gens), initial_state(rosm.h0), [task.sequence(0, 0)])))
        assert np.abs(probs - 0.25).max() < 1e-14

    def test_transitions_orthogonal_unit_state(self):
        task = make_task(2, seed=16)
        rosm = random_rosm(4, task, seed=2)
        h = initial_state(rosm.h0)
        assert abs(np.linalg.norm(h) - 1.0) < 1e-12
        for tok in range(5):
            q = cayley_map(rosm.gens)[tok]
            assert np.abs(q.T @ q - np.eye(4)).max() < 1e-10
            h = q @ h
            assert abs(np.linalg.norm(h) - 1.0) < 1e-10

    def test_scalar_softmax(self):
        task = make_task(2, seed=17)
        rosm = RosmParams(
            h0=np.array([1.0]),
            gens=np.zeros((5, 1, 1)),
            out_weights=np.array([[1.0], [-1.0], [0.0], [0.5]]),
            bias=np.zeros(4),
        )
        probs = rosm.readout(evolve_fixed_batch(
            cayley_map(rosm.gens), initial_state(rosm.h0), [task.sequence(0, 0)])[-1])[0]
        logits = np.array([1.0, -1.0, 0.0, 0.5])
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.abs(probs - expected).max() < 1e-14

    def test_rank_audit_fuzz(self):
        task = make_task(2, seed=18)
        for k in range(100):
            d = [1, 2, 4][k % 3]
            rosm = random_rosm(d, task, seed=k)
            audit = softmax_rank_audit(rosm, task)
            assert audit["satisfied"]
            assert audit["bound"] == d + 2

    def test_large_d_trivially_satisfied(self):
        task = make_task(2, seed=19)
        rosm = random_rosm(4, task, seed=5)
        audit = softmax_rank_audit(rosm, task)
        assert audit["rank_Lbar"] <= 6

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_random_rosm_equals_per_token_draws(self, d):
        task = make_task(3, seed=21)
        rng = make_rng(7, stream=55)
        h0 = rng.standard_normal(d)  # raw: initial_state normalises it on use
        gens = np.array([rng.standard_normal((d, d)) for _ in range(2 * task.n + 1)])
        out_weights = rng.standard_normal((task.v, d))
        bias = rng.standard_normal(task.v)
        rosm = random_rosm(d, task, seed=7)
        for got, want in zip(rosm.arrays(), [h0, gens, out_weights, bias]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [3, 6, 9, 16])
    def test_stacked_params_equal_each_model_bit_for_bit(self, d):
        task = make_task(2, seed=22)
        rosms = [random_rosm(d, task, seed=k) for k in range(40)]
        for rosm in rosms:   # unnormalised start vectors, as training holds them
            rosm.h0 = rosm.h0 * (1.0 + rosm.h0[0] ** 2)
        stack = RosmParams(*map(np.stack, zip(*(rosm.arrays() for rosm in rosms))))
        states = initial_state(stack.h0)[:, None, :]
        probs = stack.readout(states)
        for k, rosm in enumerate(rosms):
            # the arithmetic of a vector norm, which training has always used
            unit = rosm.h0 / np.linalg.norm(rosm.h0)
            assert states[k, 0].tobytes() == initial_state(rosm.h0).tobytes() == unit.tobytes()
            assert probs[k].tobytes() == rosm.readout(states[k]).tobytes()
        assert cayley_map(stack.gens).tobytes() == np.stack(
            [cayley_map(rosm.gens) for rosm in rosms]).tobytes()

    def test_audits_keep_the_order_of_the_baselines(self):
        task = make_task(3, seed=23)
        rosms = [random_rosm(d, task, seed=k) for k, d in enumerate([8, 1, 4, 1, 2, 8, 4])]
        rosms[2].out_weights[:] = 0.0   # constant logits: rank 1 beside the other d = 4
        audits = softmax_rank_audits(rosms, task)
        assert audits == [softmax_rank_audit(rosm, task) for rosm in rosms]
        assert audits[2]["rank_Lbar"] < audits[6]["rank_Lbar"]
        assert [a["bound"] for a in audits] == [10, 3, 6, 3, 4, 10, 6]
        assert softmax_rank_audits([], task) == []


class TestSequences:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("filler_length", [0, 1, 2, 3])
    def test_array_equals_the_list_form(self, n, filler_length):
        task = make_task(n, seed=0, filler_length=filler_length)
        tokens = task.sequences()
        want = np.array([task.sequence(i, j) for i in range(n) for j in range(n)])
        assert tokens.dtype == want.dtype == np.int64
        assert tokens.shape == want.shape == (n * n, filler_length + 2)
        assert np.array_equal(tokens, want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("filler_length", [0, 1, 2])
    def test_token_layout(self, n, filler_length):
        task = make_task(n, seed=0, filler_length=filler_length)
        tokens = task.sequences()
        assert (task.alphabet == tokens.max() + 1 == len(build_exact_cusm(task).unitaries)
                == random_rosm(2, task, 0).gens.shape[0] == 2 * n + 1)
        for i in range(n):
            for j in range(n):
                seq = task.sequence(i, j)
                assert seq == tokens[i * n + j].tolist()
                assert seq == [i] + [n] * filler_length + [n + 1 + j]
                assert all(type(tok) is int for tok in seq)


class TestSerialization:
    def test_bit_exact_roundtrip(self, tmp_path):
        task = make_task(3, seed=20, filler_length=4)
        path = str(tmp_path / "task.json")
        save_task(task, path)
        loaded = load_task(path)
        assert np.array_equal(task.context_states, loaded.context_states)
        assert np.array_equal(task.query_unitaries, loaded.query_unitaries)
        assert np.array_equal(task.measurement, loaded.measurement)
        assert (task.n, task.v, task.seed, task.filler_length) == (
            loaded.n, loaded.v, loaded.seed, loaded.filler_length)
        assert task.certificate_rank == loaded.certificate_rank
