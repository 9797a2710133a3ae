"""Game protocol mechanics: sealing, budgets, mu rule, and win-rate estimation.

Adversary behavior itself is covered in test_adversaries; the adversaries
here are minimal probes written for one protocol property each.
"""

import dataclasses
import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import ForgerOracle, SubspaceOracle, device_block
import qpuflab
from qpuflab import adversaries, emulator, games, numerics
from qpuflab import (
    AdversaryInterface,
    BudgetExceeded,
    DimensionCapExceeded,
    DimensionMismatch,
    GameConfig,
    InvalidQuantumObject,
    MuViolation,
    PostSelectionFailure,
    PreconditionViolation,
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
SWAP5 = TestConfig(kind="swap", kappa1=5, kappa2=5)


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


def forger_config(mu, qubits=3):
    """The forger's qex game: two learning queries, five swap-test copies."""
    return GameConfig(
        mode="qex",
        gen=QPufGenParams(qubits=qubits, seed=0),
        test=SWAP5,
        learning_budget=2,
        seed=SEED,
        mu=mu,
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


def alternating(params, cls=SubspaceAdversary):
    """A factory whose adversaries cycle through ``params``, subspace
    dimensions or forger mus: no chunk shares one chunk form."""
    cycle = itertools.cycle(params)
    return lambda: cls(next(cycle))


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

    def test_games_take_the_fidelity_from_the_test(self, monkeypatch):
        # a transcript stores the fidelity its test judged; no second pass
        def refuse(a, b):
            raise AssertionError("games called fidelity_pure")

        monkeypatch.setattr(games, "fidelity_pure", refuse)
        cfg = sel_config(budget=2, delta=0.3)
        delta = cfg.test.delta
        single = run_game(cfg, SubspaceAdversary(2))
        est = estimate_win_rate(
            cfg, lambda: SubspaceAdversary(2), trials=20, keep_transcripts=True
        )
        assert 0 < est.wins < 20
        for t in (single, *est.transcripts):
            assert t.outcome_b == (t.fidelity_of_guess >= delta - 1e-12)

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
        "cfg, factory, trials, oracle",
        [
            (
                sel_config(qubits=6, budget=8),
                lambda: SubspaceAdversary(8),
                7,
                lambda: SubspaceOracle(8),
            ),
            (sel_config(qubits=3, delta=0.3), RandomGuesser, 20, None),
            (
                sel_config(qubits=2, budget=4, delta=0.99),
                lambda readout=PrivilegedReadout(): TomographyAdversary(readout),
                8,
                None,
            ),
            (forger_config(0.75), lambda: QeForger(0.75), 8, lambda: ForgerOracle(0.75)),
            (sel_config(qubits=3, budget=3, delta=0.3), NoisyProbe, 20, None),
            (
                sel_config(qubits=3, delta=0.3),
                lambda: SubspaceAdversary(0),
                20,
                lambda: SubspaceOracle(0),
            ),
            (
                sel_config(qubits=3, budget=4, delta=0.3),
                lambda: SubspaceAdversary(1),
                20,
                lambda: SubspaceOracle(1),
            ),
            # a spanning basis: the guess draws no complement
            (
                sel_config(qubits=2, budget=4, delta=0.99),
                lambda: SubspaceAdversary(4),
                8,
                lambda: SubspaceOracle(4),
            ),
            (
                dataclasses.replace(sel_config(qubits=3, budget=2), test=SWAP5),
                lambda: SubspaceAdversary(2),
                20,
                lambda: SubspaceOracle(2),
            ),
            # mixed d plays game by game, through the one-game guess; an
            # even trial count keeps the loop's factory calls in step with
            # the estimate's
            (
                sel_config(qubits=3, budget=2, delta=0.3),
                alternating([1, 2]),
                8,
                alternating([1, 2], SubspaceOracle),
            ),
            # stage 2 always passes; about a fifth of the games fail it; D = k
            # = 2, where the challenge lies in the queries' span; an ideal test
            (forger_config(0.5), lambda: QeForger(0.5), 7, lambda: ForgerOracle(0.5)),
            (
                forger_config(0.75, qubits=2),
                lambda: QeForger(0.75),
                20,
                lambda: ForgerOracle(0.75),
            ),
            (
                forger_config(0.75, qubits=1),
                lambda: QeForger(0.75),
                20,
                lambda: ForgerOracle(0.75),
            ),
            (
                ex_config(mu=0.75, qubits=3, budget=2, delta=0.9),
                lambda: QeForger(0.75),
                20,
                lambda: ForgerOracle(0.75),
            ),
        ],
        ids=[
            "subspace-d8-n6", "random", "tomography", "forger-swap", "noisy-learn",
            "subspace-d0-n3", "subspace-budget-over-d", "subspace-spanning",
            "subspace-swap", "subspace-mixed-d", "forger-mu0.5", "forger-mu0.75-n2",
            "forger-n1", "forger-ideal",
        ],
    )
    @pytest.mark.parametrize("chunk", ["default", "3 devices"])
    def test_batch_path_replays_run_game(
        self, monkeypatch, cfg, factory, trials, oracle, chunk
    ):
        # the chunked device draw must play exactly the games a loop of
        # run_game over the same child streams plays; 7 trials end in a
        # partial chunk of the 3-device draw.  Subspace and forger games loop
        # over the per-game oracles, or the chunk kernels would be compared
        # with themselves
        oracle = oracle or factory
        if chunk != "default":
            dim, k = games._block_shape(cfg)
            monkeypatch.setattr(games, "_DRAW_CHUNK", 3 * dim * k)
        est = estimate_win_rate(cfg, factory, trials, keep_transcripts=True)
        children = np.random.SeedSequence(cfg.seed).spawn(trials)
        players = [oracle() for _ in children]
        loop = [run_game(cfg, p, np.random.default_rng(c)) for p, c in zip(players, children)]
        if cfg.mode == "qex":  # every stage-2 branch the plan has is played
            failed = sum(p.last_result.stage2_bit for p in players)
            assert failed == 0 if cfg.mu <= 0.5 else 0 < failed < trials
        assert est.wins == sum(t.outcome_b for t in loop)
        for got, want in zip(est.transcripts, loop, strict=True):
            assert got.outcome_b == want.outcome_b
            assert got.d_spanned == want.d_spanned
            if cfg.test.kind == "ideal":  # the verdict and the record agree
                f, delta = got.fidelity_of_guess, cfg.test.delta
                assert got.outcome_b == (f >= delta - 1e-12)
            assert got.fidelity_of_guess == want.fidelity_of_guess
            assert got.challenge.amplitudes.tobytes() == (
                want.challenge.amplitudes.tobytes()
            )
            assert [q.amplitudes.tobytes() for q in got.queries] == [
                q.amplitudes.tobytes() for q in want.queries
            ]

    def test_subspace_games_play_as_arrays(self, monkeypatch):
        # a chunk of SubspaceAdversary games with one d never reaches _play
        # or the one-game guess; a subclass, which may change learn or
        # respond, still reaches _play
        def refuse(*args):
            raise AssertionError("games went through _play")

        def refuse_respond(*args):
            raise AssertionError("games called the one-game respond")

        monkeypatch.setattr(games, "_play", refuse)
        monkeypatch.setattr(adversaries.SubspaceAdversary, "respond", refuse_respond)
        ideal = sel_config(qubits=3, budget=2)
        for cfg in (ideal, dataclasses.replace(ideal, test=SWAP5)):
            est = estimate_win_rate(cfg, lambda: SubspaceAdversary(2), trials=10)
            assert est.trials == 10

        class Subclass(SubspaceAdversary):
            pass

        with pytest.raises(AssertionError, match="_play"):
            estimate_win_rate(sel_config(budget=2), lambda: Subclass(2), trials=3)

    def test_forger_games_play_as_arrays(self, monkeypatch):
        # a chunk of QeForger games with one mu never reaches _play or the
        # one-run emulator; a subclass, which may change a step, and a
        # factory of mixed mu still reach _play
        def refuse(*args, **kwargs):
            raise AssertionError("games went through _play")

        def refuse_run(*args, **kwargs):
            raise AssertionError("games called run_full")

        monkeypatch.setattr(games, "_play", refuse)
        monkeypatch.setattr(adversaries, "run_full", refuse_run)
        swap = forger_config(0.75)
        for cfg in (swap, dataclasses.replace(swap, test=TestConfig("ideal", delta=0.9))):
            est = estimate_win_rate(cfg, lambda: QeForger(0.75), trials=10)
            assert est.trials == 10

        class Subclass(QeForger):
            pass

        with pytest.raises(AssertionError, match="_play"):
            estimate_win_rate(swap, lambda: Subclass(0.75), trials=3)
        with pytest.raises(AssertionError, match="_play"):
            estimate_win_rate(swap, alternating([0.75, 0.8], QeForger), trials=3)

    @pytest.mark.parametrize(
        "cfg, factory, error",
        [
            (sel_config(qubits=2, budget=1), lambda: SubspaceAdversary(2), BudgetExceeded),
            (
                sel_config(qubits=2, budget=8),
                lambda: SubspaceAdversary(5),
                InvalidQuantumObject,
            ),
            (forger_config(0.5, qubits=1), lambda: QeForger(0.8), PreconditionViolation),
            (
                dataclasses.replace(forger_config(0.5), learning_budget=1),
                lambda: QeForger(0.5),
                BudgetExceeded,
            ),
            (forger_config(0.75), lambda: QeForger(0.6), MuViolation),
        ],
        ids=[
            "d-over-budget", "d-over-space", "forger-mu-over-margin",
            "forger-budget-1", "forger-mu-under-game",
        ],
    )
    def test_chunk_errors_match_run_game(self, cfg, factory, error):
        with pytest.raises(error) as single:
            run_game(cfg, factory())
        with pytest.raises(error, match=f"^{re.escape(str(single.value))}$"):
            estimate_win_rate(cfg, factory, trials=3)

    def test_chunk_post_selection_failure_matches_run_game(self, monkeypatch):
        # no forger plan within its margin falls below the floor; raised to 1,
        # the floor refuses every stage 2 of mu = 0.75, before its draw
        monkeypatch.setattr(emulator, "POST_SELECT_FLOOR", 1.0)
        cfg = forger_config(0.75)
        with pytest.raises(PostSelectionFailure) as single:
            run_game(cfg, QeForger(0.75))
        with pytest.raises(PostSelectionFailure) as chunk:
            estimate_win_rate(cfg, lambda: QeForger(0.75), trials=3)
        assert str(chunk.value) == str(single.value)
        assert chunk.value.pass_prob == single.value.pass_prob < 1.0

    def test_adversary_errors_surface_unchanged(self):
        with pytest.raises(InvalidQuantumObject, match="choose_challenge"):
            estimate_win_rate(ex_config(mu=0.5), Glutton, trials=3)
        with pytest.raises(BudgetExceeded, match="budget of 2 queries"):
            estimate_win_rate(sel_config(budget=2), Glutton, trials=3)

    def test_holds_one_chunk_of_streams_and_one_block_of_words(self, monkeypatch):
        # building every trial's stream up front held them all at once (a
        # million trials peaked at 352 MB before the first game): the trial
        # keys are hashed a bounded block at a time, and when a chunk's
        # devices are drawn its streams are the only ones alive
        hashed, alive, built = [], [], []

        def spy_words(entropy):
            hashed.append(entropy.shape)
            return real_words(entropy)

        def spy_blocks(cfg, rngs):
            built.extend(weakref.ref(rng.bit_generator.seed_seq) for rng in rngs)
            alive.append(sum(ref() is not None for ref in built))
            return real_blocks(cfg, rngs)

        real_words, real_blocks = games._seed_words, games._blocks
        monkeypatch.setattr(games, "_seed_words", spy_words)
        monkeypatch.setattr(games, "_blocks", spy_blocks)
        monkeypatch.setattr(games, "_DRAW_CHUNK", 3 * 4)  # 3 blocks of 4 x 1
        monkeypatch.setattr(games, "_HASH_BLOCK", 7)  # 2 chunks of 3
        estimate_win_rate(sel_config(qubits=2, delta=0.3), RandomGuesser, trials=8)
        # trial keys (5 words a row) by block, device seeds (2 words) by chunk
        assert hashed == [(6, 5), (3, 2), (3, 2), (2, 5), (2, 2)]
        assert alive == [3, 3, 2]
        assert len(built) == 8

    def test_adversaries_see_each_trials_own_seed_sequence(self):
        # an adversary may spawn from its stream or read its seed sequence;
        # both must be what the trial's SeedSequence child gives
        seen = []

        class Probe(RandomGuesser):
            def learn(self, oracle, dim, budget, rng):
                seq = rng.bit_generator.seed_seq
                kids = [c.bit_generator.state for c in rng.spawn(2) + rng.spawn(1)]
                seen.append((seq.entropy, seq.spawn_key, kids))

        cfg = sel_config(qubits=2, delta=0.3)
        estimate_win_rate(cfg, Probe, trials=5)
        for k, (entropy, key, kids) in enumerate(seen):
            child = np.random.SeedSequence(cfg.seed).spawn(k + 1)[k]
            want = np.random.default_rng(child)
            assert (entropy, key) == (child.entropy, child.spawn_key) == (cfg.seed, (k,))
            assert kids == [c.bit_generator.state for c in want.spawn(2) + want.spawn(1)]
        assert len(seen) == 5

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

    def test_selective_call_working_set(self):
        # one 100-game call of the (d, n) = (8, 6) grid cell peaks near 0.5 MB:
        # its chunks of at most _DRAW_CHUNK complex entries are built in place,
        # and no game's transcript or test outcome is built.  Chunks of 2**14
        # entries peak near 1 MB, which raised the selective grid's resident
        # peak by 2.6%, and chunks holding the whole call near 3.4 MB
        cfg = sel_config(qubits=6, budget=8)
        estimate_win_rate(cfg, lambda: SubspaceAdversary(8), trials=1)  # warm-up
        tracemalloc.start()
        try:
            estimate_win_rate(cfg, lambda: SubspaceAdversary(8), trials=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20

    def test_forger_chunk_holds_no_dxd_stack(self):
        # one chunk of forger games at n = 6 peaks below the bytes of one
        # (T, D, D) complex128 stack: its guesses come from (T, 2, 2) Gram
        # matrices of the circuit's states, not from the (D, D) outputs
        cfg = forger_config(0.75, qubits=6)
        dim, k = games._block_shape(cfg)
        per_chunk = games._DRAW_CHUNK // (dim * k)
        tracemalloc.start()
        try:
            estimate_win_rate(cfg, lambda: QeForger(0.75), trials=per_chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < per_chunk * dim * dim * np.dtype(np.complex128).itemsize

    def test_random_guesser_rarely_wins_strict_test(self):
        # Haar overlap concentrates near 1/D; delta=0.9 wins should be rare
        est = estimate_win_rate(sel_config(qubits=3, delta=0.9), RandomGuesser, trials=200)
        assert est.win_rate <= 0.05


class TestDeviceBlocks:
    """``games._blocks`` against ``oracles.device_block``, one stream at a time."""

    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_blocks_are_the_per_stream_oracle(self, qubits, chunk):
        # every block width k = 1 .. D, over 7 streams cut into chunks of 1,
        # of 3 (the last one partial) or of estimate_win_rate's default size
        dim = 2**qubits
        for k in range(1, dim + 1):
            cfg = sel_config(qubits=qubits, budget=k - 1)
            assert games._block_shape(cfg) == (dim, k)
            children = np.random.SeedSequence(SEED + k).spawn(7)
            rngs = [np.random.default_rng(c) for c in children]
            twins = [np.random.default_rng(c) for c in children]
            size = chunk or max(1, games._DRAW_CHUNK // (dim * k))
            for start in range(0, len(rngs), size):
                blocks = games._blocks(cfg, rngs[start:start + size])
                for block, twin in zip(blocks, twins[start:start + size], strict=True):
                    assert block.tobytes() == device_block(dim, k, twin).tobytes()
            for rng, twin in zip(rngs, twins):
                assert rng.bit_generator.state == twin.bit_generator.state


def transcript_bits(t):
    return (
        [q.amplitudes.tobytes() for q in t.queries],
        t.d_spanned,
        t.challenge.amplitudes.tobytes(),
        t.outcome_b,
        t.fidelity_of_guess.hex(),
    )


class TestSubspaceComplement:
    """The rare branches of the chunk guess's complement draw against
    ``SubspaceOracle`` in ``run_game``, in transcript bits and in the state of
    every game's stream.  Game ``TARGET`` of three takes the branch."""

    TARGET = 1

    def play(self, cfg, d, plant_chunk=None, plant_oracle=None):
        """Plays the games both ways; a ``plant_*(monkeypatch, rng)`` hook
        patches one way with the target game's stream in hand."""
        children = np.random.SeedSequence(cfg.seed).spawn(3)
        rngs = [np.random.default_rng(c) for c in children]
        twins = [np.random.default_rng(c) for c in children]
        form = SubspaceAdversary(d)._chunk_form
        with pytest.MonkeyPatch.context() as patch:
            if plant_chunk is not None:
                plant_chunk(patch, rngs[self.TARGET])
            _, played = games._play_chunk(cfg, form, games._blocks(cfg, rngs), rngs, True)
        with pytest.MonkeyPatch.context() as patch:
            if plant_oracle is not None:
                plant_oracle(patch, twins[self.TARGET])
            loop = [run_game(cfg, SubspaceOracle(d), twin) for twin in twins]
        for got, want in zip(played, loop, strict=True):
            assert transcript_bits(got) == transcript_bits(want)
        for rng, twin in zip(rngs, twins):
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_short_residual_redraws_on_its_own_stream(self):
        # the target's first complement draw is replaced, after it is drawn,
        # by its device's image of e_0, whose residual is round-off; both
        # ways must then redraw from that game's stream, and only from it
        cfg = dataclasses.replace(sel_config(qubits=3, budget=2), test=SWAP5)
        child = np.random.SeedSequence(cfg.seed).spawn(3)[self.TARGET]
        image = games._blocks(cfg, [np.random.default_rng(child)])[0][:, 0]
        redraws, target_draws = [], []

        def plant_chunk(patch, target):
            def first_draws(dim, rngs):
                rows = real_rows(dim, rngs)
                rows[[i for i, rng in enumerate(rngs) if rng is target]] = image
                return rows

            def redraw(basis, dim, rng):
                redraws.append(rng is target)
                return real_redraw(basis, dim, rng)

            real_rows, real_redraw = numerics._haar_rows, numerics._complement_vector
            patch.setattr(numerics, "_haar_rows", first_draws)
            patch.setattr(numerics, "_complement_vector", redraw)

        def plant_oracle(patch, target):
            # the target's draws: its challenge, its first complement, the redraw
            def draw(dim, rng):
                v = real_draw(dim, rng)
                if rng is not target:
                    return v
                target_draws.append(v)
                return image.copy() if len(target_draws) == 2 else v

            real_draw = numerics._haar_vector
            patch.setattr(numerics, "_haar_vector", draw)

        self.play(cfg, 2, plant_chunk, plant_oracle)
        assert redraws == [True]
        assert len(target_draws) == 3

    def test_challenge_in_the_learned_span_draws_no_complement(self):
        # the target's challenge becomes e_0 after it is drawn: no weight is
        # left outside the span, so neither way draws a complement for it
        cfg = sel_config(qubits=3, budget=2)
        e0 = basis(8, 0)
        drawn = []

        def plant_chunk(patch, target):
            def challenges(dim, rngs):
                rows = real_rows(dim, rngs)
                rows[[i for i, rng in enumerate(rngs) if rng is target]] = e0.amplitudes
                return rows

            def complements(dim, rngs):
                drawn.extend(rng is target for rng in rngs)
                return real_rows(dim, rngs)

            real_rows = numerics._haar_rows
            patch.setattr(games, "_haar_rows", challenges)
            patch.setattr(numerics, "_haar_rows", complements)

        def plant_oracle(patch, target):
            def challenge(dim, rng):
                psi = real_state(dim, rng)
                return e0 if rng is target else psi

            real_state = games.haar_state
            patch.setattr(games, "haar_state", challenge)

        self.play(cfg, 2, plant_chunk, plant_oracle)
        assert drawn == [False, False]

    def test_spanning_basis_draws_no_complement(self):
        # at d = D every challenge lies in the span
        drawn = []

        def plant_chunk(patch, target):
            def complements(dim, rngs):
                drawn.extend(rngs)
                return real_rows(dim, rngs)

            real_rows = numerics._haar_rows
            patch.setattr(numerics, "_haar_rows", complements)

        cfg = dataclasses.replace(sel_config(qubits=2, budget=4), test=SWAP5)
        self.play(cfg, 4, plant_chunk)
        assert drawn == []


class TestChunksValidateNothing:
    """A chunk of games builds what it reads from raw rows: no library
    dataclass check runs inside one, and a selective chunk without
    transcripts wraps no array in a state at all."""

    @staticmethod
    def replays_unchecked(cfg, factory, trials, keep):
        want = estimate_win_rate(cfg, factory, trials, keep_transcripts=keep)
        checked = []

        def refuse(self):
            raise AssertionError(f"{type(self).__name__}.__post_init__ ran")

        with pytest.MonkeyPatch.context() as patch:
            for name in qpuflab.__all__:
                obj = getattr(qpuflab, name)
                if dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__"):
                    patch.setattr(obj, "__post_init__", refuse)
                    checked.append(obj)
            got = estimate_win_rate(cfg, factory, trials, keep_transcripts=keep)
        assert {StateVector, adversaries.ForgerPlan, GameConfig} <= set(checked)
        assert got.wins == want.wins
        assert len(got.transcripts) == (trials if keep else 0)
        assert [transcript_bits(t) for t in got.transcripts] == [
            transcript_bits(t) for t in want.transcripts
        ]

    @pytest.mark.parametrize("mu", [0.5, 0.75])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_forger_chunk_runs_no_post_init(self, qubits, mu):
        cfg = forger_config(mu, qubits=qubits)
        self.replays_unchecked(cfg, lambda: QeForger(mu), 20, keep=True)

    @pytest.mark.parametrize("keep", [False, True])
    def test_subspace_chunk_runs_no_post_init(self, keep):
        cfg = dataclasses.replace(sel_config(qubits=3, budget=3), test=SWAP5)
        self.replays_unchecked(cfg, lambda: SubspaceAdversary(3), 20, keep)

    @staticmethod
    def unchecked_calls(keep):
        # one 100-game call of the (d, n) = (8, 6) grid cell, as in
        # test_selective_call_working_set
        cfg = sel_config(qubits=6, budget=8)
        calls, real = [], numerics._unchecked

        def counted(cls, **fields):
            calls.append(cls)
            return real(cls, **fields)

        with pytest.MonkeyPatch.context() as patch:
            for module in (games, adversaries):
                patch.setattr(module, "_unchecked", counted)
            estimate_win_rate(cfg, lambda: SubspaceAdversary(8), 100, keep_transcripts=keep)
        return calls

    def test_selective_call_wraps_no_state(self):
        assert self.unchecked_calls(keep=False) == []
        # the count is live: kept transcripts wrap each of the 8 chunks' 8
        # queries and the 100 challenges
        assert self.unchecked_calls(keep=True) == [StateVector] * (8 * 8 + 100)


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
