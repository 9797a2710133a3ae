"""Equality-test behavior: exact pass laws, thresholds, and the circuit path."""

import tracemalloc

import numpy as np
import pytest

import oracles
from qpuflab import testers
from qpuflab import (
    DimensionMismatch,
    InvalidQuantumObject,
    StateVector,
    TestConfig,
    TestOutcome,
    expected_acceptance,
    fidelity_pure,
    haar_state,
    run_test,
)

SEED = 3111


def basis(dim, i):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return StateVector(v)


HALF = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))  # fidelity 1/2 vs |0>


def swap_test_once(a, b, rng):
    """One explicit-circuit swap test; True means the ancilla came out ``|0>``."""
    # ancilla |0>, Hadamard: equal superposition over control branches
    pair = np.multiply.outer(a.amplitudes, b.amplitudes)
    branches = np.stack([pair, pair]) / np.sqrt(2.0)
    # controlled swap of the two registers on the |1> branch
    branches[1] = branches[1].T
    # final Hadamard on the ancilla
    out0 = (branches[0] + branches[1]) / np.sqrt(2.0)
    p_zero = float(np.sum(np.abs(out0) ** 2))
    return bool(rng.random() < p_zero)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidQuantumObject):
            TestConfig(kind="parity")

    @pytest.mark.parametrize("delta", [None, 0.0, -0.2, 1.5])
    def test_ideal_threshold_range(self, delta):
        with pytest.raises(InvalidQuantumObject):
            TestConfig(kind="ideal", delta=delta)

    def test_ideal_accepts_boundary_threshold(self):
        assert TestConfig(kind="ideal", delta=1.0).delta == 1.0

    def test_swap_rejects_threshold(self):
        with pytest.raises(InvalidQuantumObject):
            TestConfig(kind="swap", delta=0.5)

    @pytest.mark.parametrize("k1,k2", [(0, 1), (1, 0), (-2, 3)])
    def test_copy_counts_positive(self, k1, k2):
        with pytest.raises(InvalidQuantumObject):
            TestConfig(kind="swap", kappa1=k1, kappa2=k2)

    @pytest.mark.parametrize("k1,k2", [(2.0, 1), (1, 1.5)])
    def test_copy_counts_integer(self, k1, k2):
        with pytest.raises(InvalidQuantumObject, match="kappa"):
            TestConfig(kind="swap", kappa1=k1, kappa2=k2)

    def test_pairs_is_smaller_budget(self):
        assert TestConfig(kind="swap", kappa1=3, kappa2=7).pairs == 3

    def test_outcome_counts_must_be_consistent(self):
        with pytest.raises(InvalidQuantumObject):
            TestOutcome(accepted=True, pass_count=3, pairs_run=2, fidelity=1.0)


class TestPassProbability:
    def test_orthogonal_states_pass_half_the_time(self):
        f = fidelity_pure(basis(2, 0), basis(2, 1))
        assert expected_acceptance(f, 1) == pytest.approx(0.5)

    def test_identical_states_always_pass(self):
        f = fidelity_pure(basis(2, 0), basis(2, 0))
        assert expected_acceptance(f, 1) == pytest.approx(1.0)

    def test_global_phase_is_invisible(self):
        rotated = StateVector(np.exp(1.37j) * basis(2, 0).amplitudes)
        f = fidelity_pure(basis(2, 0), rotated)
        assert expected_acceptance(f, 1) == pytest.approx(1.0)

    def test_acceptance_battery_frozen_values(self):
        assert expected_acceptance(0.0, 5) == pytest.approx(0.03125)
        assert expected_acceptance(1.0, 20) == pytest.approx(1.0)
        assert expected_acceptance(0.0, 1) == pytest.approx(0.5)

    def test_worst_case_matches_zero_fidelity_acceptance(self):
        # orthogonal states slip through an all-pass battery with 2**-c
        for c in (1, 3, 10):
            assert expected_acceptance(0.0, c) == pytest.approx(0.5**c)


class TestIdealTest:
    def test_accepts_at_exact_threshold(self):
        # fidelity is exactly 1/2; the comparison must not lose the boundary
        cfg = TestConfig(kind="ideal", delta=0.5)
        out = run_test(cfg, basis(2, 0), HALF, np.random.default_rng(SEED))
        assert out.accepted
        assert out.pairs_run == 1
        # the outcome carries the very fidelity it was judged on
        assert out.fidelity == fidelity_pure(basis(2, 0), HALF)

    def test_rejects_just_above_threshold(self):
        cfg = TestConfig(kind="ideal", delta=0.51)
        out = run_test(cfg, basis(2, 0), HALF, np.random.default_rng(SEED))
        assert not out.accepted
        assert out.pass_count == 0

    def test_is_deterministic(self):
        cfg = TestConfig(kind="ideal", delta=0.9)
        rng = np.random.default_rng(SEED)
        target = haar_state(4, rng)
        results = {
            run_test(cfg, target, target, np.random.default_rng(s)).accepted
            for s in range(10)
        }
        assert results == {True}

    def test_dimension_mismatch(self):
        # fidelity_pure's check is the only one, for either test kind
        for cfg in (TestConfig(kind="ideal", delta=0.5), TestConfig(kind="swap")):
            with pytest.raises(DimensionMismatch, match="state dims differ: 2 vs 4"):
                run_test(cfg, basis(2, 0), basis(4, 0), np.random.default_rng(SEED))


class TestSwapTest:
    def test_equal_states_never_rejected(self):
        cfg = TestConfig(kind="swap", kappa1=20, kappa2=20)
        rng = np.random.default_rng(SEED)
        target = haar_state(4, rng)
        for _ in range(50):
            out = run_test(cfg, target, target, rng)
            assert out.accepted
            assert out.pass_count == 20

    def test_orthogonal_acceptance_rate(self):
        # eight copy pairs leave a 2**-8 false-accept rate
        cfg = TestConfig(kind="swap", kappa1=8, kappa2=8)
        rng = np.random.default_rng(SEED + 1)
        trials = 20000
        hits = sum(
            run_test(cfg, basis(2, 0), basis(2, 1), rng).accepted
            for _ in range(trials)
        )
        p = expected_acceptance(0.0, 8)
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma

    def test_half_fidelity_acceptance_rate(self):
        cfg = TestConfig(kind="swap", kappa1=2, kappa2=2)
        rng = np.random.default_rng(SEED + 2)
        trials = 20000
        hits = sum(
            run_test(cfg, basis(2, 0), HALF, rng).accepted for _ in range(trials)
        )
        p = expected_acceptance(0.5, 2)  # 0.5625
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma

    @pytest.mark.parametrize("pairs", [1, 5, 2**16 + 3])
    @pytest.mark.parametrize("guess", ["orthogonal", "half", "equal"])
    def test_draws_one_uniform_per_pair(self, guess, pairs):
        # the battery consumes exactly rng.random(pairs) and accepts only when
        # every pair's uniform falls below the single-pair pass probability;
        # 2**16 + 3 pairs are drawn in more than one call
        b = {"orthogonal": basis(2, 1), "half": HALF, "equal": basis(2, 0)}[guess]
        cfg = TestConfig(kind="swap", kappa1=pairs, kappa2=pairs)
        p = expected_acceptance(fidelity_pure(basis(2, 0), b), 1)
        for seed in range(20):
            rng = np.random.default_rng(SEED + seed)
            twin = np.random.default_rng(SEED + seed)
            out = run_test(cfg, basis(2, 0), b, rng)
            passes = twin.random(pairs) < p
            assert out.pass_count == int(np.count_nonzero(passes))
            assert out.accepted == bool(passes.all())
            assert out.fidelity == fidelity_pure(basis(2, 0), b)
            assert rng.random() == twin.random()

    def test_large_battery_draws_in_bounded_memory(self):
        # 10**7 uniforms in one array would take 80 MB
        pairs = 10**7
        cfg = TestConfig(kind="swap", kappa1=pairs, kappa2=pairs)
        rng = np.random.default_rng(SEED)
        twin = np.random.default_rng(SEED)
        tracemalloc.start()
        try:
            out = run_test(cfg, basis(2, 0), HALF, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert out.pairs_run == pairs
        # one float64 uniform takes one step of the bit generator
        twin.bit_generator.advance(pairs)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_pass_count_bounded_by_pairs(self):
        cfg = TestConfig(kind="swap", kappa1=5, kappa2=3)
        out = run_test(cfg, basis(2, 0), basis(2, 1), np.random.default_rng(SEED))
        assert out.pairs_run == 3
        assert 0 <= out.pass_count <= 3


class TestChunkVerdict:
    """``testers._accepted``, the accept bits of a chunk of games, against
    ``_verdict`` game by game."""

    @pytest.mark.parametrize("delta", [0.5, 1.0, 1e-12, 0.3])
    def test_ideal_bits_at_the_threshold_edges(self, delta):
        # the threshold as rounded, and one float step either side of it
        edge = delta - 1e-12
        fs = [np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)]
        fs = [float(f) for f in fs] + [0.0, 1.0]
        cfg = TestConfig(kind="ideal", delta=delta)
        rngs = [np.random.default_rng(SEED + i) for i in range(len(fs))]
        bits = testers._accepted(cfg, fs, rngs)
        assert bits == [testers._verdict(cfg, f, None).accepted for f in fs]
        assert bits[:3] == [False, True, True]
        # an ideal test draws nothing
        fresh = [np.random.default_rng(SEED + i) for i in range(len(fs))]
        assert [r.random() for r in rngs] == [r.random() for r in fresh]

    @pytest.mark.parametrize("piece", [None, 4, 2])
    @pytest.mark.parametrize("kappas", [(1, 1), (2, 2), (3, 5), (5, 5)])
    def test_swap_bits_and_streams_match_the_verdict(self, kappas, piece, monkeypatch):
        # each game's bit and its stream's state after its draws, against
        # _verdict and the oracle's own pass rule, with the uniforms drawn whole
        # or in pieces: a piece of 4 holds 4 games at c = 1, 2 at c = 2 and 1 at
        # c = 3, and a piece below c leaves each battery to its own tally
        if piece is not None:
            monkeypatch.setattr(testers, "_DRAW_CHUNK", piece)
        cfg = TestConfig(kind="swap", kappa1=kappas[0], kappa2=kappas[1])
        # guesses at F = 0, F = 1, F = 1/2 and 20 more against |0>
        weights = [0.0, 1.0, 0.5, *np.random.default_rng(SEED).random(20).tolist()]
        guesses = [StateVector(np.array([np.sqrt(w), np.sqrt(1.0 - w)])) for w in weights]
        rngs, twins, others = (
            [np.random.default_rng(SEED + i) for i in range(len(guesses))] for _ in range(3)
        )
        outcomes = [oracles.run_test(cfg, basis(2, 0), g, r) for g, r in zip(guesses, others)]
        fs = [o.fidelity for o in outcomes]
        bits = testers._accepted(cfg, fs, rngs)
        assert bits == [o.accepted for o in outcomes]
        assert bits == [testers._verdict(cfg, f, twin).accepted for f, twin in zip(fs, twins)]
        assert len(set(bits)) == 2  # both verdicts occur
        for rng, twin, other in zip(rngs, twins, others):
            assert rng.bit_generator.state == twin.bit_generator.state
            assert rng.bit_generator.state == other.bit_generator.state

    def test_a_stack_of_long_batteries_holds_one_piece(self, monkeypatch):
        # 1000 games at c = _DRAW_CHUNK: one game's row at a time, no per-game
        # tally, and a peak of about one piece's uniforms (512 KiB)
        def tally(*args):
            raise AssertionError("a battery within one piece was tallied alone")

        monkeypatch.setattr(testers, "_swap_tally", tally)
        c = testers._DRAW_CHUNK
        cfg = TestConfig(kind="swap", kappa1=c, kappa2=c)
        rngs = [np.random.default_rng(SEED + i) for i in range(1000)]
        fs = [1.0, 0.0] * 500
        tracemalloc.start()
        try:
            bits = testers._accepted(cfg, fs, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert bits == [True, False] * 500
        for i, rng in enumerate(rngs):
            twin = np.random.default_rng(SEED + i)
            twin.bit_generator.advance(c)
            assert rng.bit_generator.state == twin.bit_generator.state


class TestCircuitCrossCheck:
    """The explicit Hadamard / controlled-swap circuit matches the shortcut."""

    @pytest.mark.parametrize("fidelity", [0.0, 0.5, 1.0])
    def test_circuit_rate_matches_analytic_law(self, fidelity):
        a = basis(2, 0)
        if fidelity == 0.0:
            b = basis(2, 1)
        elif fidelity == 1.0:
            b = basis(2, 0)
        else:
            b = HALF
        rng = np.random.default_rng(SEED + 3)
        trials = 20000
        hits = sum(swap_test_once(a, b, rng) for _ in range(trials))
        p = 0.5 * (1.0 + fidelity)
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(hits / trials - p) <= max(3 * sigma, 1e-9)

    def test_circuit_mode_on_random_states(self):
        rng = np.random.default_rng(SEED + 4)
        a, b = haar_state(4, rng), haar_state(4, rng)
        p = expected_acceptance(fidelity_pure(a, b), 1)
        trials = 20000
        hits = sum(swap_test_once(a, b, rng) for _ in range(trials))
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * sigma
