"""Game protocol mechanics: sealing, budgets, mu rule, and win-rate estimation.

Adversary behavior itself is covered in test_adversaries; the adversaries
here are minimal probes written for one protocol property each.
"""

import tracemalloc

import numpy as np
import pytest

from qpuflab import games
from qpuflab import (
    AdversaryInterface,
    BudgetExceeded,
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


class NoisyProbe:
    """Draws from the game's stream in learn and in respond."""

    def learn(self, oracle, dim, budget, rng):
        self.dim = dim
        for _ in range(budget):
            oracle.query(haar_state(dim, rng))

    def respond(self, challenge, rng):
        return haar_state(self.dim, rng)


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

    def test_transcripts_kept_only_on_request(self):
        cfg = sel_config(delta=0.3)
        bare = estimate_win_rate(cfg, RandomGuesser, trials=5)
        full = estimate_win_rate(cfg, RandomGuesser, trials=5, keep_transcripts=True)
        assert bare.transcripts == ()
        assert len(full.transcripts) == 5

    def test_dropped_transcripts_never_span(self, monkeypatch):
        def refuse(states):
            raise AssertionError("span_projector called for a dropped transcript")

        monkeypatch.setattr(games, "span_projector", refuse)
        est = estimate_win_rate(
            sel_config(budget=2, delta=0.3), lambda: SubspaceAdversary(2), trials=5
        )
        assert est.trials == 5
        assert est.transcripts == ()

    def test_kept_transcripts_span_through_games(self, monkeypatch):
        # the traced games.d_spanned phase wraps this module attribute
        calls = []

        def counting(states):
            calls.append(len(states))
            return span_projector(states)

        monkeypatch.setattr(games, "span_projector", counting)
        est = estimate_win_rate(
            sel_config(budget=2, delta=0.3),
            lambda: SubspaceAdversary(2),
            trials=3,
            keep_transcripts=True,
        )
        assert [t.d_spanned for t in est.transcripts] == [2, 2, 2]
        assert calls == [2, 2, 2]

    @pytest.mark.parametrize(
        "factory, want",
        [(lambda: SubspaceAdversary(2), 2), (RepeatProbe, 1)],
        ids=["subspace", "repeat"],
    )
    def test_kept_transcripts_read_the_span_rank(self, factory, want):
        est = estimate_win_rate(
            sel_config(budget=2, delta=0.3), factory, trials=4, keep_transcripts=True
        )
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
            monkeypatch.setattr(games, "_DRAW_CHUNK", 3 * 4**cfg.gen.qubits)
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
        monkeypatch.setattr(games, "_DRAW_CHUNK", 3 * 4**2)
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
