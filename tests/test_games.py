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

from oracles import ForgerOracle, SubspaceOracle, device_block, transcript_record
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
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(count)]
    return [games._LazyDevice(w) for w in games._blocks(cfg, rngs)]


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
                assert device.rank == len(span_projector(queries).basis)
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

    def test_columns_only_on_request(self):
        cfg = sel_config(delta=0.3)
        bare = estimate_win_rate(cfg, RandomGuesser, trials=5)
        full = estimate_win_rate(cfg, RandomGuesser, trials=5, columns=True)
        assert column_bits(bare) is None
        assert len(column_bits(full)) == 5

    def test_games_take_the_span_from_the_device(self, monkeypatch):
        # a transcript stores its device's rank; no second pass over the queries
        def refuse(states):
            raise AssertionError("games called span_projector")

        monkeypatch.setattr(games, "span_projector", refuse)
        cfg = sel_config(budget=2, delta=0.3)
        assert run_game(cfg, SubspaceAdversary(2)).d_spanned == 2
        est = estimate_win_rate(cfg, lambda: SubspaceAdversary(2), trials=3, columns=True)
        assert est.d_spanned.tolist() == [2, 2, 2]

    def test_games_take_the_fidelity_from_the_test(self, monkeypatch):
        # a transcript stores the fidelity its test judged; no second pass
        def refuse(a, b):
            raise AssertionError("games called fidelity_pure")

        monkeypatch.setattr(games, "fidelity_pure", refuse)
        cfg = sel_config(budget=2, delta=0.3)
        delta = cfg.test.delta
        single = run_game(cfg, SubspaceAdversary(2))
        est = estimate_win_rate(cfg, lambda: SubspaceAdversary(2), trials=20, columns=True)
        assert 0 < est.wins < 20
        scored = [(single.outcome_b, single.fidelity_of_guess)]
        scored += zip(est.outcomes.tolist(), est.fidelities.tolist())
        for b, f in scored:
            assert b == (f >= delta - 1e-12)

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
    def test_span_column_reads_the_span_rank(self, cfg, factory, want):
        # the queries come from run_game on each game's own child stream
        est = estimate_win_rate(cfg, factory, trials=4, columns=True)
        children = np.random.SeedSequence(cfg.seed).spawn(4)
        for d, child in zip(est.d_spanned.tolist(), children, strict=True):
            t = run_game(cfg, factory(), np.random.default_rng(child))
            assert len(t.queries) == 2
            assert d == t.d_spanned == len(span_projector(t.queries).basis) == want

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
        with pytest.MonkeyPatch.context() as patch:
            shown, made = shown_inputs(patch, factory)
            est = estimate_win_rate(cfg, made, trials, columns=True)
        children = np.random.SeedSequence(cfg.seed).spawn(trials)
        players = [oracle() for _ in children]
        loop = [run_game(cfg, p, np.random.default_rng(c)) for p, c in zip(players, children)]
        if cfg.mode == "qex":  # every stage-2 branch the plan has is played
            failed = sum(p.last_result.stage2_bit for p in players)
            assert failed == 0 if cfg.mu <= 0.5 else 0 < failed < trials
        assert est.wins == sum(t.outcome_b for t in loop)
        got = zip(est.outcomes.tolist(), est.d_spanned.tolist(), est.fidelities.tolist(), shown)
        for (b, d, f, (queries, challenge)), want in zip(got, loop, strict=True):
            assert b == want.outcome_b
            assert d == want.d_spanned
            if cfg.test.kind == "ideal":  # the verdict and the record agree
                assert b == (f >= cfg.test.delta - 1e-12)
            assert f == want.fidelity_of_guess
            assert challenge == want.challenge.amplitudes.tobytes()
            assert queries == [q.amplitudes.tobytes() for q in want.queries]

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

    def test_columns_keep_the_working_set(self):
        # 2000 games of the (8, 6) cell: the columns' 24 bytes a game add to a
        # peak set by one chunk at a time, within a tenth of the call without
        cfg = sel_config(qubits=6, budget=8)
        estimate_win_rate(cfg, lambda: SubspaceAdversary(8), trials=1)  # warm-up
        peaks = []
        for columns in (False, True):
            tracemalloc.start()
            try:
                estimate_win_rate(cfg, lambda: SubspaceAdversary(8), 2000, columns=columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_forger_plan_once_per_chunk(self, monkeypatch):
        # inputs builds a chunk's plan and respond takes its query rows; a
        # game played alone builds it once, in learn
        calls, real = [], adversaries.make_forger_plan

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(adversaries, "make_forger_plan", counted)
        cfg = forger_config(0.75)
        monkeypatch.setattr(games, "_DRAW_CHUNK", 3 * math.prod(games._block_shape(cfg)))
        estimate_win_rate(cfg, lambda: QeForger(0.75), trials=7)
        assert len(calls) == 3  # chunks of 3, 3 and 1 games
        calls.clear()
        run_game(cfg, QeForger(0.75))
        assert len(calls) == 1

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


class _OwnRawRule(np.random.PCG64):
    """A PCG64 whose ``random_raw`` is not the words its draws use."""

    def random_raw(self, size=None, output=True):
        return 0


BIT_GENERATORS = [
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
    np.random.MT19937, _OwnRawRule,
]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
def test_device_seed_is_the_bounded_draw(bit_generator):
    # on every bit generator and on a subclass, the seed is integers(0, 2**63)
    # and leaves the stream where that draw leaves it: a fresh stream, or one
    # holding half a word from a 32-bit draw
    for seed in range(300):
        rng, twin = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if seed % 2:
            assert rng.integers(0, 7) == twin.integers(0, 7)
        got = games._device_seed(rng)
        assert type(got) is int and got == int(twin.integers(0, 2**63))
        assert rng.random() == twin.random()
        assert rng.integers(0, 2**63) == twin.integers(0, 2**63)
        assert rng.integers(0, 7, size=3).tolist() == twin.integers(0, 7, size=3).tolist()


def shown_inputs(patch, factory):
    """Each game's queries and challenge, as bytes in game order, and a factory
    whose games record them: a chunk's rows as its form's ``respond`` receives
    them, a lone game's as its adversary's oracle and ``respond`` do."""
    shown, alone = [], []

    def spy(real):
        def respond(self, queries, challenges, *rest):
            if not alone:  # a lone game's guess is its form on a chunk of one
                rows = [q.tobytes() for q in queries]
                shown.extend((rows, psi.tobytes()) for psi in challenges)
            return real(self, queries, challenges, *rest)
        return respond

    for form in (adversaries._SubspaceChunk, adversaries._ForgerChunk):
        patch.setattr(form, "respond", spy(form.respond))

    def made():
        adversary, queries = factory(), []
        learn, respond = adversary.learn, adversary.respond

        def query(psi):
            queries.append(psi.amplitudes.tobytes())
            return oracle.query(psi)

        def learned(sealed, dim, budget, rng):
            nonlocal oracle
            oracle = sealed
            return learn(SealedOracle(query), dim, budget, rng)

        def responded(challenge, rng):
            shown.append((queries, challenge.amplitudes.tobytes()))
            alone.append(challenge)
            try:
                return respond(challenge, rng)
            finally:
                alone.pop()

        oracle = None
        adversary.learn, adversary.respond = learned, responded
        return adversary

    return shown, made


def game_bits(t):
    return t.outcome_b, t.d_spanned, t.fidelity_of_guess.hex()


def column_bits(est):
    """``game_bits`` of each game from the estimate's columns, or None without them."""
    cols = (est.outcomes, est.d_spanned, est.fidelities)
    if all(col is None for col in cols):
        return None
    assert [col.shape for col in cols] == [(est.trials,)] * 3
    assert est.outcomes.sum() == est.wins
    fidelities = [f.hex() for f in est.fidelities.tolist()]
    return list(zip(est.outcomes.tolist(), est.d_spanned.tolist(), fidelities))


class TestSubspaceComplement:
    """The rare branches of the chunk guess's complement draw against
    ``SubspaceOracle`` in ``run_game``, in transcript bits and in the state of
    every game's stream.  Game ``TARGET`` of three takes the branch, unless a
    test names others."""

    TARGET = 1

    def play(self, cfg, d, plant_chunk=None, plant_oracle=None):
        """Plays the games both ways; a ``plant_*(monkeypatch, streams)`` hook
        patches one way with the three games' streams in hand."""
        children = np.random.SeedSequence(cfg.seed).spawn(3)
        rngs = [np.random.default_rng(c) for c in children]
        twins = [np.random.default_rng(c) for c in children]
        form = SubspaceAdversary(d)._chunk_form
        with pytest.MonkeyPatch.context() as patch:
            if plant_chunk is not None:
                plant_chunk(patch, rngs)
            accepted, fidelities, d_spanned = games._play_chunk(
                cfg, form, games._blocks(cfg, rngs), rngs
            )
        with pytest.MonkeyPatch.context() as patch:
            if plant_oracle is not None:
                plant_oracle(patch, twins)
            loop = [run_game(cfg, SubspaceOracle(d), twin) for twin in twins]
        played = [(int(b), d_spanned, f.hex()) for b, f in zip(accepted, fidelities)]
        assert played == [game_bits(t) for t in loop]
        for rng, twin in zip(rngs, twins):
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("short", [{TARGET: 1}, {0: 1, 2: 2}], ids=["one", "nested"])
    def test_short_residual_redraws_on_its_own_stream(self, short):
        # game g's first short[g] complement draws are replaced, after they are
        # drawn, by its device's image of e_0, whose residual is round-off; both
        # ways must then redraw from that game's stream, and only from it, until
        # a draw leaves a residual: "nested" has a short redraw in one game and
        # a short first draw in another in the same chunk
        cfg = dataclasses.replace(sel_config(qubits=3, budget=2), test=SWAP5)
        children = np.random.SeedSequence(cfg.seed).spawn(3)
        blocks = games._blocks(cfg, [np.random.default_rng(c) for c in children])
        images = {g: blocks[g][:, 0] for g in short}
        redraws, oracle_draws = [], [0, 0, 0]

        def game_of(streams, rng):
            return next(g for g, stream in enumerate(streams) if stream is rng)

        def plant_chunk(patch, streams):
            planted = [0, 0, 0]

            def draws(dim, rngs):
                rows = real_rows(dim, rngs)
                for i, rng in enumerate(rngs):
                    g = game_of(streams, rng)
                    if planted[g] < short.get(g, 0):
                        planted[g] += 1
                        rows[i] = images[g]
                return rows

            def redraw(bases, rngs):
                redraws.append([game_of(streams, rng) for rng in rngs])
                return real_redraw(bases, rngs)

            real_rows, real_redraw = numerics._haar_rows, numerics._complement_rows
            patch.setattr(numerics, "_haar_rows", draws)
            # the chunk's own call goes through adversaries' name, its redraws
            # through numerics'
            patch.setattr(numerics, "_complement_rows", redraw)

        def plant_oracle(patch, streams):
            # a game's draws: its challenge, then its complements
            def draw(dim, rng):
                v = real_draw(dim, rng)
                g = game_of(streams, rng)
                oracle_draws[g] += 1
                return images[g].copy() if 2 <= oracle_draws[g] <= 1 + short.get(g, 0) else v

            real_draw = numerics._haar_vector
            patch.setattr(numerics, "_haar_vector", draw)

        self.play(cfg, 2, plant_chunk, plant_oracle)
        assert redraws == [[g] for g in sorted(short) for _ in range(short[g])]
        assert oracle_draws == [2 + short.get(g, 0) for g in range(3)]

    def test_challenge_in_the_learned_span_draws_no_complement(self):
        # the target's challenge becomes e_0 after it is drawn: no weight is
        # left outside the span, so neither way draws a complement for it
        cfg = sel_config(qubits=3, budget=2)
        e0 = basis(8, 0)
        drawn = []

        def plant_chunk(patch, streams):
            target = streams[self.TARGET]

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

        def plant_oracle(patch, streams):
            target = streams[self.TARGET]

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

        def plant_chunk(patch, streams):
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
    dataclass check runs inside one, and a selective chunk, with its columns
    or without, wraps no array in a state at all."""

    @staticmethod
    def replays_unchecked(cfg, factory, trials, columns):
        want = estimate_win_rate(cfg, factory, trials, columns=columns)
        checked = []

        def refuse(self):
            raise AssertionError(f"{type(self).__name__}.__post_init__ ran")

        with pytest.MonkeyPatch.context() as patch:
            for name in qpuflab.__all__:
                obj = getattr(qpuflab, name)
                if dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__"):
                    patch.setattr(obj, "__post_init__", refuse)
                    checked.append(obj)
            got = estimate_win_rate(cfg, factory, trials, columns=columns)
        assert {StateVector, adversaries.ForgerPlan, GameConfig} <= set(checked)
        assert got.wins == want.wins
        bits = column_bits(got)
        assert (len(bits) == trials) if columns else bits is None
        assert bits == column_bits(want)

    @pytest.mark.parametrize("mu", [0.5, 0.75])
    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_forger_chunk_runs_no_post_init(self, qubits, mu):
        cfg = forger_config(mu, qubits=qubits)
        self.replays_unchecked(cfg, lambda: QeForger(mu), 20, columns=True)

    @pytest.mark.parametrize("columns", [False, True])
    def test_subspace_chunk_runs_no_post_init(self, columns):
        cfg = dataclasses.replace(sel_config(qubits=3, budget=3), test=SWAP5)
        self.replays_unchecked(cfg, lambda: SubspaceAdversary(3), 20, columns)

    @staticmethod
    def unchecked_calls(play):
        # on the (d, n) = (8, 6) grid cell, as in test_selective_call_working_set
        cfg = sel_config(qubits=6, budget=8)
        calls, real = [], numerics._unchecked

        def counted(cls, **fields):
            calls.append(cls)
            return real(cls, **fields)

        with pytest.MonkeyPatch.context() as patch:
            for module in (games, adversaries):
                patch.setattr(module, "_unchecked", counted)
            play(cfg)
        return calls

    @pytest.mark.parametrize("columns", [False, True])
    def test_selective_call_wraps_no_state(self, columns):
        # one 100-game call
        play = lambda cfg: estimate_win_rate(  # noqa: E731
            cfg, lambda: SubspaceAdversary(8), 100, columns=columns
        )
        assert self.unchecked_calls(play) == []
        # the count is live: a game played alone wraps its 8 queries, their 8
        # responses, the challenge's true response and the guess
        alone = self.unchecked_calls(lambda cfg: run_game(cfg, SubspaceAdversary(8)))
        assert alone.count(StateVector) == 8 + 8 + 2


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
