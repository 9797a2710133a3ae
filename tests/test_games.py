"""Game protocol mechanics: sealing, budgets, mu rule, and win-rate estimation.

Adversary behavior itself is covered in test_adversaries; the adversaries
here are minimal probes written for one protocol property each.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qpuflab import games
from qpuflab import (
    AdversaryInterface,
    BudgetExceeded,
    DimensionCapExceeded,
    DimensionMismatch,
    GameConfig,
    InvalidQuantumObject,
    MuViolation,
    PrivilegedReadout,
    QeForger,
    QPufGenParams,
    RandomGuesser,
    SealedOracle,
    StateVector,
    SubspaceAdversary,
    TestConfig,
    TomographyAdversary,
    Transcript,
    UnitaryMatrix,
    estimate_win_rate,
    haar_state,
    mu_check,
    run_game,
    transcript_record,
)
from qpuflab.numerics import span_projector

SEED = 7201


def basis(dim, i):
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return StateVector(v)


def sel_config(qubits=2, budget=0, seed=SEED, delta=0.5, **kw):
    return GameConfig(
        mode="qsel",
        gen=QPufGenParams(qubits=qubits, seed=0),
        test=TestConfig(kind="ideal", delta=delta),
        learning_budget=budget,
        seed=seed,
        **kw,
    )


def ex_config(mu, qubits=2, budget=1, seed=SEED, delta=0.5, **kw):
    return GameConfig(
        mode="qex",
        gen=QPufGenParams(qubits=qubits, seed=0),
        test=TestConfig(kind="ideal", delta=delta),
        learning_budget=budget,
        seed=seed,
        mu=mu,
        **kw,
    )


class EchoProbe:
    """qex probe: queries one basis state, challenges with a chosen state."""

    def __init__(self, challenge_from_query=False):
        self.challenge_from_query = challenge_from_query
        self.dim = None
        self.first = None

    def learn(self, oracle, dim, budget, rng):
        self.dim = dim
        self.first = basis(dim, 0)
        if budget:
            oracle.query(self.first)

    def choose_challenge(self, rng):
        if self.challenge_from_query:
            return self.first  # protocol violation bait
        return basis(self.dim, 1)

    def respond(self, challenge, rng):
        return haar_state(self.dim, rng)


class Glutton:
    """Ignores the stated budget and keeps querying."""

    def learn(self, oracle, dim, budget, rng):
        for i in range(budget + 1):
            oracle.query(basis(dim, i % dim))

    def respond(self, challenge, rng):
        return challenge


class RepeatProbe:
    """Queries the same basis state twice: two queries, one spanned dimension."""

    def learn(self, oracle, dim, budget, rng):
        for _ in range(2):
            oracle.query(basis(dim, 0))

    def respond(self, challenge, rng):
        return challenge


class WrongDimGuess:
    def learn(self, oracle, dim, budget, rng):
        self.dim = dim

    def respond(self, challenge, rng):
        return basis(2 * self.dim, 0)


class LateProbe:
    """Spends nothing in learn; queries ``budget + extra`` fresh Haar states
    in respond, after the challenge has taken its call of the device."""

    def __init__(self, extra=0):
        self.extra = extra

    def learn(self, oracle, dim, budget, rng):
        self.oracle, self.dim, self.budget = oracle, dim, budget

    def respond(self, challenge, rng):
        self.queries = [haar_state(self.dim, rng) for _ in range(self.budget)]
        self.responses = [self.oracle.query(q) for q in self.queries]
        for _ in range(self.extra):
            self.oracle.query(haar_state(self.dim, rng))
        return challenge


class NoisyProbe:
    """Draws from the game's stream in learn and in respond."""

    def learn(self, oracle, dim, budget, rng):
        self.dim = dim
        for _ in range(budget):
            oracle.query(haar_state(dim, rng))

    def respond(self, challenge, rng):
        return haar_state(self.dim, rng)


class NearProbe:
    """Queries a Haar state, then one 1e-7 off it: a short residual that
    still spans a second dimension."""

    def learn(self, oracle, dim, budget, rng):
        first = haar_state(dim, rng)
        near = first.amplitudes + 1e-7 * haar_state(dim, rng).amplitudes
        oracle.query(first)
        oracle.query(StateVector(near / np.linalg.norm(near)))

    def respond(self, challenge, rng):
        return challenge


class TestSealedOracle:
    def test_exposes_only_query(self):
        oracle = SealedOracle(lambda psi: psi)
        assert callable(oracle.query)
        for name in ("instance", "unitary", "device", "matrix"):
            with pytest.raises(AttributeError):
                getattr(oracle, name)

    def test_cannot_grow_new_attributes(self):
        oracle = SealedOracle(lambda psi: psi)
        with pytest.raises(AttributeError):
            oracle.stash = "payload"

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetExceeded):
            run_game(sel_config(budget=2), Glutton())

    def test_zero_budget_refuses_first_query(self):
        with pytest.raises(BudgetExceeded):
            run_game(sel_config(budget=0), Glutton())


class TestGameConfig:
    def test_qex_requires_mu(self):
        with pytest.raises(InvalidQuantumObject):
            ex_config(mu=None)

    @pytest.mark.parametrize("mu", [-0.1, 1.0000001])
    def test_mu_range(self, mu):
        with pytest.raises(InvalidQuantumObject):
            ex_config(mu=mu)

    def test_qsel_takes_no_mu(self):
        with pytest.raises(InvalidQuantumObject):
            sel_config(mu=0.5)

    def test_negative_budget(self):
        with pytest.raises(InvalidQuantumObject):
            sel_config(budget=-1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_outside_uint64_rejected(self, seed):
        # estimate_win_rate used to raise numpy's ValueError on seed -1
        with pytest.raises(InvalidQuantumObject, match="^seed must"):
            sel_config(seed=seed)

    def test_non_integer_budget_rejected(self):
        with pytest.raises(InvalidQuantumObject, match="learning budget"):
            sel_config(budget=1.0)

    def test_default_cap_is_quadratic_in_qubits(self):
        assert sel_config(qubits=3, budget=36).learning_budget == 36
        with pytest.raises(InvalidQuantumObject):
            sel_config(qubits=2, budget=17)  # cap is 16


class TestMuCheck:
    def test_learned_query_fails_the_rule(self):
        assert not mu_check(basis(2, 0), (basis(2, 0),), mu=0.5)

    def test_orthogonal_challenge_passes(self):
        assert mu_check(basis(2, 0), (basis(2, 1),), mu=0.5)

    def test_boundary_fidelity_passes_with_slack(self):
        half = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert mu_check(half, (basis(2, 0),), mu=0.5)

    def test_mu_zero_allows_anything(self):
        assert mu_check(basis(2, 0), (basis(2, 0),), mu=0.0)

    def test_empty_learning_log(self):
        assert mu_check(basis(2, 0), (), mu=1.0)


class TestRunGame:
    def test_random_guesser_full_transcript(self):
        transcript = run_game(sel_config(), RandomGuesser())
        assert isinstance(transcript, Transcript)
        assert transcript.queries == ()
        assert transcript.d_spanned == 0
        assert transcript.outcome_b in (0, 1)
        assert 0.0 <= transcript.fidelity_of_guess <= 1.0 + 1e-12

    def test_same_seed_same_game(self):
        a = run_game(sel_config(), RandomGuesser())
        b = run_game(sel_config(), RandomGuesser())
        assert a.fidelity_of_guess == b.fidelity_of_guess
        np.testing.assert_array_equal(
            a.challenge.amplitudes, b.challenge.amplitudes
        )

    def test_fresh_device_per_game(self):
        # same probe query, two rng streams: the responses must differ
        cfg = sel_config(budget=1, delta=0.99)

        class Prober:
            def learn(self, oracle, dim, budget, rng):
                self.seen = oracle.query(basis(dim, 0))

            def respond(self, challenge, rng):
                return challenge

        first, second = Prober(), Prober()
        run_game(cfg, first, np.random.default_rng(1))
        run_game(cfg, second, np.random.default_rng(2))
        overlap = abs(np.vdot(first.seen.amplitudes, second.seen.amplitudes))
        assert overlap < 1.0 - 1e-6

    @pytest.mark.parametrize("budget", [0, 1, 3, 4, 5])
    def test_queries_after_the_challenge_stay_in_the_block(self, budget):
        # the challenge and ``budget`` queries are all the calls a game makes
        # of its device, so its block of min(budget + 1, D) columns serves
        # them, and at budget >= D its span is the whole space
        probe = LateProbe()
        transcript = run_game(sel_config(qubits=2, budget=budget), probe)
        assert transcript.queries == ()
        assert transcript.d_spanned == 0  # late queries do not count
        assert len(probe.responses) == budget
        if budget:
            gap = gram(probe.responses) - gram(probe.queries)
            assert np.abs(gap).max() <= 1e-12

    @pytest.mark.parametrize("budget", [0, 1, 3, 4, 5])
    def test_one_query_past_the_budget_is_refused(self, budget):
        with pytest.raises(BudgetExceeded):
            run_game(sel_config(qubits=2, budget=budget), LateProbe(extra=1))

    def test_qex_challenge_respecting_mu(self):
        transcript = run_game(ex_config(mu=0.5), EchoProbe())
        assert transcript.d_spanned == 1
        assert transcript.outcome_b in (0, 1)

    def test_qex_replayed_query_raises(self):
        with pytest.raises(MuViolation):
            run_game(ex_config(mu=0.5), EchoProbe(challenge_from_query=True))

    def test_qex_adversary_without_challenge_rejected(self):
        # Glutton overdraws its budget in learn, so reaching learn would
        # raise BudgetExceeded instead: the check comes before learning
        with pytest.raises(InvalidQuantumObject, match="choose_challenge"):
            run_game(ex_config(mu=0.5), Glutton())

    def test_wrong_dimension_guess_rejected(self):
        with pytest.raises(InvalidQuantumObject):
            run_game(sel_config(), WrongDimGuess())

    def test_protocol_satisfied_by_random_guesser(self):
        assert isinstance(RandomGuesser(), AdversaryInterface)


def lazy_devices(cfg, count, seed=SEED):
    """``count`` game devices of ``cfg``, drawn as ``estimate_win_rate`` draws them."""
    children = np.random.SeedSequence(seed).spawn(count)
    return games._devices(cfg, [np.random.default_rng(c) for c in children])


def hoeffding(trials, width, alpha=1e-6):
    """Half-width at two-sided false-alarm rate ``alpha`` of the mean of
    ``trials`` independent draws from an interval of ``width``."""
    return width * math.sqrt(math.log(2.0 / alpha) / (2.0 * trials))


def gram(states):
    rows = np.array([s.amplitudes for s in states])
    return rows.conj() @ rows.T


class TestLazyDevice:
    def test_first_moments_are_haar(self):
        # for Haar U, E<e_j|U|e_j> = 0 and E|<e_1|U|e_0>|^2 = 1/D; a QR
        # without the phase fix reads a mean Re<e_0|U|e_0> of about -0.20
        # here.  Each bound holds at alpha = 1e-6 (t = 0.085 on the diagonal)
        dim, trials = 8, 4000
        first, second = [], []
        for device in lazy_devices(sel_config(qubits=3, budget=1), trials):
            first.append(device(basis(dim, 0)).amplitudes)
            second.append(device(basis(dim, 1)).amplitudes)
        first, second = np.array(first), np.array(second)
        assert abs(first[:, 0].real.mean()) <= hoeffding(trials, 2.0)
        assert abs(second[:, 1].real.mean()) <= hoeffding(trials, 2.0)
        weight = (abs(first[:, 1]) ** 2).mean()
        assert abs(weight - 1.0 / dim) <= hoeffding(trials, 1.0)

    def test_responses_keep_the_gram_matrix(self):
        # a query 1e-7 off the first, whose short residual needs the second
        # Gram-Schmidt pass to keep later queries consistent; an in-span
        # mixture; a basis state
        rng = np.random.default_rng(SEED + 1)
        haar = [haar_state(8, rng) for _ in range(4)]
        mix = 0.6 * haar[0].amplitudes + 0.8j * haar[1].amplitudes
        near = haar[0].amplitudes + 1e-7 * haar_state(8, rng).amplitudes
        queries = [haar[0], StateVector(near / np.linalg.norm(near))] + haar[1:]
        queries += [StateVector(mix / np.linalg.norm(mix)), basis(8, 3)]
        (device,) = lazy_devices(sel_config(qubits=3, budget=6), 1)
        responses = [device(q) for q in queries]
        assert np.abs(gram(responses) - gram(queries)).max() <= 1e-12

    def test_repeated_query_returns_the_same_response(self):
        rng = np.random.default_rng(SEED + 2)
        psi = haar_state(8, rng)
        (device,) = lazy_devices(sel_config(qubits=3, budget=2), 1)
        first = device(psi).amplitudes
        device(haar_state(8, rng))
        assert np.abs(device(psi).amplitudes - first).max() <= 1e-12

    def test_rank_is_the_span_rank_of_near_dependent_pairs(self):
        # the second query is 1e-11 to 1e-7 off the first, around RANK_TOL,
        # so both ranks occur; the device must count what span_projector does
        ranks = set()
        for qubits in (1, 2, 3, 4):
            dim = 2**qubits
            rng = np.random.default_rng(SEED + qubits)
            devices = lazy_devices(sel_config(qubits=qubits, budget=1), 180)
            for device, eps in zip(devices, np.repeat(np.logspace(-11, -7, 9), 20)):
                first = haar_state(dim, rng)
                near = first.amplitudes + eps * haar_state(dim, rng).amplitudes
                queries = (first, StateVector(near / np.linalg.norm(near)))
                for q in queries:
                    device(q)
                assert device.rank == span_projector(queries).rank
                ranks.add(device.rank)
        assert ranks == {1, 2}

    def test_tomography_reads_a_unitary(self):
        # tomography's budget is D, so its block is already square
        (device,) = lazy_devices(sel_config(qubits=2, budget=4), 1)
        cols = [device(basis(4, i)).amplitudes for i in range(4)]
        UnitaryMatrix(np.array(cols).T)

    def test_wrong_dimension_query_rejected(self):
        (device,) = lazy_devices(sel_config(qubits=2, budget=1), 1)
        with pytest.raises(DimensionMismatch):
            device(basis(8, 0))

    def test_device_seed_keeps_the_generator_check(self, monkeypatch):
        monkeypatch.setattr(games, "_device_seed", lambda rng: 2**64)
        with pytest.raises(InvalidQuantumObject):
            lazy_devices(sel_config(), 1)

    def test_device_draw_keeps_the_size_cap(self, monkeypatch):
        cfg = sel_config(qubits=4)
        monkeypatch.setenv("QPUF_MAX_DIM", "8")
        with pytest.raises(DimensionCapExceeded):
            lazy_devices(cfg, 1)


class TestWinRateEstimate:
    def test_deterministic_given_seed(self):
        cfg = sel_config(delta=0.3)
        a = estimate_win_rate(cfg, RandomGuesser, trials=40)
        b = estimate_win_rate(cfg, RandomGuesser, trials=40)
        assert a.win_rate == b.win_rate
        assert a.wins == b.wins

    def test_stderr_is_binomial(self):
        est = estimate_win_rate(sel_config(delta=0.3), RandomGuesser, trials=50)
        want = np.sqrt(est.win_rate * (1 - est.win_rate) / est.trials)
        assert est.stderr == pytest.approx(want, abs=1e-15)
        assert est.wins == round(est.win_rate * est.trials)

    def test_requires_at_least_one_trial(self):
        with pytest.raises(InvalidQuantumObject):
            estimate_win_rate(sel_config(), RandomGuesser, trials=0)

    def test_non_integer_trials_rejected(self):
        with pytest.raises(InvalidQuantumObject, match="trials"):
            estimate_win_rate(sel_config(), RandomGuesser, trials=2.0)

    def test_transcripts_kept_only_on_request(self):
        cfg = sel_config(delta=0.3)
        bare = estimate_win_rate(cfg, RandomGuesser, trials=5)
        full = estimate_win_rate(cfg, RandomGuesser, trials=5, keep_transcripts=True)
        assert bare.transcripts == ()
        assert len(full.transcripts) == 5

    def test_games_take_the_span_from_the_device(self, monkeypatch):
        # a transcript stores its device's rank; no second pass over the queries
        def refuse(states):
            raise AssertionError("games called span_projector")

        monkeypatch.setattr(games, "span_projector", refuse)
        cfg = sel_config(budget=2, delta=0.3)
        assert run_game(cfg, SubspaceAdversary(2)).d_spanned == 2
        est = estimate_win_rate(
            cfg, lambda: SubspaceAdversary(2), trials=3, keep_transcripts=True
        )
        assert [t.d_spanned for t in est.transcripts] == [2, 2, 2]

    @pytest.mark.parametrize(
        "cfg, factory, want",
        [
            (sel_config(budget=2, delta=0.3), lambda: SubspaceAdversary(2), 2),
            (sel_config(budget=2, delta=0.3), RepeatProbe, 1),
            (sel_config(budget=2, delta=0.3), NoisyProbe, 2),
            (sel_config(qubits=3, budget=2, delta=0.3), NearProbe, 2),
            (ex_config(mu=0.75, qubits=3, budget=2), lambda: QeForger(0.75), 2),
        ],
        ids=["subspace", "repeat", "noisy", "near", "forger"],
    )
    def test_kept_transcripts_read_the_span_rank(self, cfg, factory, want):
        est = estimate_win_rate(cfg, factory, trials=4, keep_transcripts=True)
        for t in est.transcripts:
            assert len(t.queries) == 2
            assert t.d_spanned == span_projector(t.queries).rank == want

    @pytest.mark.parametrize(
        "cfg, factory, trials",
        [
            (sel_config(qubits=6, budget=8), lambda: SubspaceAdversary(8), 7),
            (sel_config(qubits=3, delta=0.3), RandomGuesser, 20),
            (
                sel_config(qubits=2, budget=4, delta=0.99),
                lambda readout=PrivilegedReadout(): TomographyAdversary(readout),
                8,
            ),
            (
                GameConfig(
                    mode="qex",
                    gen=QPufGenParams(qubits=3, seed=0),
                    test=TestConfig(kind="swap", kappa1=5, kappa2=5),
                    learning_budget=2,
                    seed=SEED,
                    mu=0.75,
                ),
                lambda: QeForger(0.75),
                8,
            ),
            (sel_config(qubits=3, budget=3, delta=0.3), NoisyProbe, 20),
        ],
        ids=["subspace-d8-n6", "random", "tomography", "forger-swap", "noisy-learn"],
    )
    @pytest.mark.parametrize("chunk", ["default", "3 devices"])
    def test_batch_path_replays_run_game(
        self, monkeypatch, cfg, factory, trials, chunk
    ):
        # the chunked device draw must play exactly the games a loop of
        # run_game over the same child streams plays; 7 trials end in a
        # partial chunk of the 3-device draw
        if chunk != "default":
            dim, k = games._block_shape(cfg)
            monkeypatch.setattr(games, "_DRAW_CHUNK", 3 * dim * k)
        est = estimate_win_rate(cfg, factory, trials, keep_transcripts=True)
        children = np.random.SeedSequence(cfg.seed).spawn(trials)
        loop = [run_game(cfg, factory(), np.random.default_rng(c)) for c in children]
        assert est.wins == sum(t.outcome_b for t in loop)
        for got, want in zip(est.transcripts, loop, strict=True):
            assert got.outcome_b == want.outcome_b
            assert got.fidelity_of_guess == want.fidelity_of_guess
            assert got.challenge.amplitudes.tobytes() == (
                want.challenge.amplitudes.tobytes()
            )
            assert [q.amplitudes.tobytes() for q in got.queries] == [
                q.amplitudes.tobytes() for q in want.queries
            ]

    def test_adversary_errors_surface_unchanged(self):
        with pytest.raises(InvalidQuantumObject, match="choose_challenge"):
            estimate_win_rate(ex_config(mu=0.5), Glutton, trials=3)
        with pytest.raises(BudgetExceeded, match="budget of 2 queries"):
            estimate_win_rate(sel_config(budget=2), Glutton, trials=3)

    def test_spawns_one_chunk_of_children_at_a_time(self, monkeypatch):
        # spawning every trial's child up front held them all at once (a
        # million trials peaked at 352 MB before the first game)
        asked = []

        class SpySeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                asked.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", SpySeedSequence)
        monkeypatch.setattr(games, "_DRAW_CHUNK", 3 * 4)  # 3 blocks of 4 x 1
        estimate_win_rate(sel_config(qubits=2, delta=0.3), RandomGuesser, trials=8)
        assert asked == [3, 3, 2]

    def test_memory_stays_bounded(self):
        # one stacked draw of every device would hold 300 * 64**2 complex
        # entries (about 20 MB) several times over; chunks keep the peak small
        cfg = sel_config(qubits=6, budget=8)
        tracemalloc.start()
        try:
            estimate_win_rate(cfg, lambda: SubspaceAdversary(8), trials=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_random_guesser_rarely_wins_strict_test(self):
        # Haar overlap concentrates near 1/D; delta=0.9 wins should be rare
        est = estimate_win_rate(sel_config(qubits=3, delta=0.9), RandomGuesser, trials=200)
        assert est.win_rate <= 0.05


class TestTranscriptRecord:
    def test_flat_summary_keys_and_values(self):
        cfg = ex_config(mu=0.5, qubits=2, budget=1)
        transcript = run_game(cfg, EchoProbe())
        rec = transcript_record(cfg, transcript)
        assert rec == {
            "mode": "qex",
            "n": 2,
            "k": 1,
            "d_spanned": 1,
            "b": transcript.outcome_b,
            "fidelity_of_guess": transcript.fidelity_of_guess,
        }
