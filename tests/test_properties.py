"""Property tests: fidelity and trace-distance laws, the disturbed family,
the array paths of selective games, of emulation-forger games and of the
audits against their per-game and per-trial oracles, and the array seed hash
of the game streams against numpy's own ``SeedSequence`` and ``default_rng``.

Hypothesis picks the dimension (2 to 8, and 16 for the stacked audits, so
that mixture ranks above 8 meet their oracles), the kind of input pair,
epsilon and the depolarizing strength; the states themselves come from a
numpy generator seeded by a drawn integer, so every failure shrinks to a
replayable seed.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from oracles import ForgerOracle, SubspaceOracle  # noqa: E402
from qpuflab import (  # noqa: E402
    DERIVED_TOL,
    DensityMatrix,
    EpsilonDisturbedChannel,
    GameConfig,
    QeForger,
    QPufGenParams,
    StateVector,
    SubspaceAdversary,
    TestConfig,
    Transcript,
    channel_apply,
    estimate_win_rate,
    fidelity_mixed,
    haar_state,
    haar_unitary,
    run_game,
    trace_distance,
)
from qpuflab import games, numerics, testers, verify  # noqa: E402

# fidelity_mixed zeroes round-off eigenvalues before taking square roots, so
# even rank-one and identical inputs meet the package's derived tolerance.
TOL = DERIVED_TOL

# derandomized, so that two Tier-1 runs of one tree draw the same examples
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)
dims = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
kinds = st.sampled_from(["pure", "mixed", "identical", "orthogonal"])
unit = st.floats(min_value=0.0, max_value=1.0)


def _mixed(dim, rng):
    rank = int(rng.integers(2, dim + 1))
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for w in rng.dirichlet(np.ones(rank)):
        s = haar_state(dim, rng).amplitudes
        acc += w * np.outer(s, s.conj())
    return DensityMatrix(acc)


def _pair(kind, dim, seed):
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        return _mixed(dim, rng), _mixed(dim, rng)
    a = haar_state(dim, rng)
    if kind == "identical":
        b = a
    elif kind == "orthogonal":
        v = haar_state(dim, rng).amplitudes.copy()
        v -= np.vdot(a.amplitudes, v) * a.amplitudes
        b = StateVector(v / np.linalg.norm(v))
    else:
        b = haar_state(dim, rng)
    return DensityMatrix.from_state(a), DensityMatrix.from_state(b)


@PROPERTY
@given(kind=kinds, dim=dims, seed=seeds)
def test_fidelity_is_symmetric_and_in_unit_interval(kind, dim, seed):
    rho, sigma = _pair(kind, dim, seed)
    f = fidelity_mixed(rho, sigma)
    assert -TOL <= f <= 1.0 + TOL
    assert f == pytest.approx(fidelity_mixed(sigma, rho), abs=TOL)


@PROPERTY
@given(kind=kinds, dim=dims, seed=seeds)
def test_fuchs_van_de_graaf(kind, dim, seed):
    rho, sigma = _pair(kind, dim, seed)
    f = min(max(fidelity_mixed(rho, sigma), 0.0), 1.0)
    t = trace_distance(rho, sigma)
    assert 1.0 - np.sqrt(f) - TOL <= t <= np.sqrt(1.0 - f) + TOL


@PROPERTY
@given(kind=kinds, dim=dims, seed=seeds, eps=unit)
def test_channel_contracts_trace_distance_by_exactly_one_minus_epsilon(
    kind, dim, seed, eps
):
    rho, sigma = _pair(kind, dim, seed)
    u = haar_unitary(dim, np.random.default_rng(seed))
    channel = EpsilonDisturbedChannel(eps, u)
    t_out = trace_distance(channel_apply(channel, rho), channel_apply(channel, sigma))
    assert t_out == pytest.approx((1.0 - eps) * trace_distance(rho, sigma), abs=1e-9)


@PROPERTY
@given(kind=kinds, dim=dims, seed=seeds, eps=unit, strength=unit)
def test_depolarizing_after_the_unitary_is_the_member_at_eps_times_strength(
    kind, dim, seed, eps, strength
):
    rho, _ = _pair(kind, dim, seed)
    u = haar_unitary(dim, np.random.default_rng(seed))
    ideal = u.matrix @ rho.matrix @ u.matrix.conj().T
    mixed = np.eye(dim) / dim
    depolarized = (1.0 - strength) * ideal + strength * mixed
    by_hand = (1.0 - eps) * ideal + eps * depolarized
    member = channel_apply(EpsilonDisturbedChannel(eps * strength, u), rho)
    np.testing.assert_allclose(member.matrix, by_hand, atol=1e-12)


# ---------------------------------------------------------------------------
# array paths against their per-game oracles

# derandomized, so a Tier-1 run replays the same examples
GAME_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def subspace_games(draw):
    """A ``qsel`` config on 1 to 4 qubits and a subspace dimension within it
    and within the budget, under an ideal test or a swap test of up to 5 copies."""
    qubits = draw(st.integers(1, 4))
    d = draw(st.integers(0, 2**qubits))
    budget = draw(st.integers(d, min(d + 3, 4 * qubits**2)))
    if draw(st.booleans()):
        test = TestConfig(kind="ideal", delta=draw(st.floats(0.0, 1.0, exclude_min=True)))
    else:
        kappas = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
        test = TestConfig(kind="swap", kappa1=kappas[0], kappa2=kappas[1])
    gen = QPufGenParams(qubits=qubits, seed=0)
    cfg = GameConfig(mode="qsel", gen=gen, test=test, learning_budget=budget, seed=draw(seeds))
    return cfg, d


def _bits(value):
    if isinstance(value, StateVector):
        return value.amplitudes.tobytes()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


def _assert_replays(est, loop, keep):
    """The estimate's counts, and its transcripts if kept (else none), are
    the per-game oracle's games, in every field."""
    wins = sum(t.outcome_b for t in loop)
    rate = wins / len(loop)
    assert (est.wins, est.trials) == (wins, len(loop))
    assert est.win_rate == rate
    assert est.stderr == float(np.sqrt(rate * (1.0 - rate) / len(loop)))
    if not keep:
        assert est.transcripts == ()
        return
    for got, want in zip(est.transcripts, loop, strict=True):
        for f in dataclasses.fields(Transcript):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


@GAME_PROPERTY
@given(
    game=subspace_games(),
    trials=st.integers(1, 7),
    chunk=st.sampled_from([1, 3, None]),
    keep=st.booleans(),
)
def test_subspace_chunks_replay_the_per_game_oracle(game, trials, chunk, keep):
    # chunks of 1 or 3 devices, or the default, play the games that the
    # per-game oracle plays on the same child streams, with or without
    # transcripts
    cfg, d = game
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(games, "_DRAW_CHUNK", chunk * math.prod(games._block_shape(cfg)))
        est = estimate_win_rate(
            cfg, lambda: SubspaceAdversary(d), trials, keep_transcripts=keep
        )
    children = np.random.SeedSequence(cfg.seed).spawn(trials)
    loop = [run_game(cfg, SubspaceOracle(d), np.random.default_rng(c)) for c in children]
    _assert_replays(est, loop, keep)


@st.composite
def forger_games(draw):
    """A ``qex`` config on 1 to 4 qubits with mu up to the forger's margin,
    ``1 - 1/(2D)``, a budget from its two queries to five, and an ideal test
    or a swap test of up to 5 copies."""
    qubits = draw(st.integers(1, 4))
    mu = draw(st.floats(0.0, 1.0 - 0.5 / 2**qubits))
    if draw(st.booleans()):
        test = TestConfig(kind="ideal", delta=draw(st.floats(0.0, 1.0, exclude_min=True)))
    else:
        kappas = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
        test = TestConfig(kind="swap", kappa1=kappas[0], kappa2=kappas[1])
    budget = draw(st.integers(2, min(5, 4 * qubits**2)))
    gen = QPufGenParams(qubits=qubits, seed=0)
    return GameConfig(
        mode="qex", gen=gen, test=test, learning_budget=budget, seed=draw(seeds), mu=mu
    )


@GAME_PROPERTY
@given(
    cfg=forger_games(),
    trials=st.integers(1, 7),
    chunk=st.sampled_from([1, 3, None]),
    keep=st.booleans(),
)
def test_forger_chunks_replay_the_per_game_oracle(cfg, trials, chunk, keep):
    # as the subspace property, for the emulation forger at the game's mu
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(games, "_DRAW_CHUNK", chunk * math.prod(games._block_shape(cfg)))
        est = estimate_win_rate(
            cfg, lambda: QeForger(cfg.mu), trials, keep_transcripts=keep
        )
    children = np.random.SeedSequence(cfg.seed).spawn(trials)
    loop = [run_game(cfg, ForgerOracle(cfg.mu), np.random.default_rng(c)) for c in children]
    _assert_replays(est, loop, keep)


AUDIT_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@AUDIT_PROPERTY
@given(
    trials=st.integers(1, 300),
    seed=seeds,
    chunk=st.sampled_from([3, 7, None]),
    quarters=st.booleans(),
)
def test_audit_arrays_replay_the_per_trial_oracles(trials, seed, chunk, quarters):
    # both array checks against their per-trial loops, report and generator
    # state: swap draws in pieces of 3 or 7 uniforms or the default, and
    # optionally in quarters, which tie F = 0's pass probability 1/2; negative
    # control trials in chunks of as many (D = 4) or the default
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(testers, "_DRAW_CHUNK", chunk)
            patch.setattr(verify, "_STACK_CHUNK", chunk * 4**2)
        make = oracles.QuarterUniforms if quarters else np.random.default_rng
        for check, make_rng in (
            (verify.swap_statistics_check, make),
            (verify.negative_control_check, np.random.default_rng),
        ):
            rng, twin = make_rng(seed), make_rng(seed)
            assert check(trials, rng) == getattr(oracles, check.__name__)(trials, twin)
            assert rng.bit_generator.state == twin.bit_generator.state


STACKED_AUDIT_PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


@STACKED_AUDIT_PROPERTY
@given(
    epsilon=unit,
    dim=st.sampled_from([2, 4, 8, 16]),
    trials=st.integers(0, 70),
    seed=seeds,
    chunk=st.sampled_from([3, None]),
)
def test_stacked_audits_replay_the_per_trial_oracles(epsilon, dim, trials, seed, chunk):
    # the disturbance, concavity and emulation audits against their per-trial
    # loops, report and generator state; c08 trials in chunks of 3 or the default
    checks = [
        (verify.distance_contraction_check, (epsilon, dim, trials)),
        (verify.fidelity_disturbance_check, (epsilon, dim, trials)),
        (verify.joint_concavity_check, (dim, trials)),
        (verify.recovery_floor_check, (trials,)),
        (verify.closed_form_check, (trials,)),
        (verify.orthogonal_challenge_check, (trials,)),
    ]
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(verify, "_STACK_CHUNK", chunk * dim**2)
        for check, args in checks:
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = check(*args, rng)
            assert got.as_dict() == getattr(oracles, check.__name__)(*args, twin).as_dict()
            assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# seed hashing against numpy's own SeedSequence and default_rng

# seeds at the edges of numpy's 32-bit entropy words, and trial keys around
# the edge where a key's words go from one to two
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
EDGE_KEYS = (2**32 - 1, 2**32, 2**40)
any_seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
words32 = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
HASH_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def _same_stream(got, want):
    """Same state, then the same first draws, of two generators."""
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**63, size=3).tolist() == want.integers(0, 2**63, size=3).tolist()
    assert got.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()


@HASH_PROPERTY
@given(width=st.integers(1, 8), data=st.data())
def test_seed_words_are_numpys_hash(width, data):
    # every row width numpy pads (W < 4), fills (W = 4) or mixes in past the pool
    row = st.lists(words32, min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=1, max_size=5))
    got = numerics._seed_words(np.array(rows, dtype=np.uint32))
    want = [np.random.SeedSequence(row).generate_state(4, np.uint64) for row in rows]
    assert got.dtype == np.uint64 and got.tobytes() == np.array(want).tobytes()


@HASH_PROPERTY
@given(device_seeds=st.lists(any_seeds, min_size=1, max_size=5), qubits=st.integers(1, 3))
@example(device_seeds=list(EDGE_SEEDS), qubits=2)
def test_device_streams_are_default_rngs(device_seeds, qubits):
    # a chunk's device seeds, at the word edges too (2**64 - 1 is past what a
    # stream draws), seed the generators and blocks that default_rng gives
    cfg = GameConfig(mode="qsel", gen=QPufGenParams(qubits=qubits, seed=0),
                     test=TestConfig(kind="ideal", delta=0.5), learning_budget=1, seed=0)
    dim, k = games._block_shape(cfg)
    seeds, built = iter(device_seeds), []

    def stream(*args):
        built.append(real_stream(*args))
        return built[-1]

    real_stream = games._stream
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(games, "_device_seed", lambda rng: next(seeds))
        patch.setattr(games, "_stream", stream)
        blocks = games._blocks(cfg, [None] * len(device_seeds))
    for block, got, seed in zip(blocks, built, device_seeds, strict=True):
        want = np.random.default_rng(seed)
        alone = numerics._haar_qr(numerics._ginibre(dim, want, k)[np.newaxis])[0]
        assert block.tobytes() == alone.tobytes()
        _same_stream(got, want)


@HASH_PROPERTY
@given(
    seed=any_seeds,
    first=st.one_of(st.integers(0, 3), st.sampled_from(EDGE_KEYS).map(lambda key: key - 3)),
    trials=st.integers(1, 12),
    per_chunk=st.integers(1, 4),
    block=st.integers(1, 9),
)
@example(seed=2**64 - 1, first=2**32 - 3, trials=7, per_chunk=2, block=5)
@example(seed=2**32, first=2**40 - 1, trials=3, per_chunk=3, block=9)
def test_trial_streams_are_numpys_children(seed, first, trials, per_chunk, block):
    # keys in chunks and hash blocks of any size, across the two-word edge:
    # trial k's stream is default_rng of SeedSequence(seed).spawn(k + 1)[k],
    # whose spawn key is (k,)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(games, "_HASH_BLOCK", block)
        chunks = list(games._trial_streams(seed, trials, per_chunk, first))
    assert all(1 <= len(chunk) <= per_chunk for chunk in chunks)
    streams = [rng for chunk in chunks for rng in chunk]
    for key, got in itertools.zip_longest(range(first, first + trials), streams):
        child = np.random.SeedSequence(seed, spawn_key=(key,))
        if key < 4:
            assert child.state == np.random.SeedSequence(seed).spawn(key + 1)[key].state
        seq = got.bit_generator.seed_seq
        assert (seq.entropy, seq.spawn_key) == (seed, (key,))
        assert seq.words.tobytes() == child.generate_state(4, np.uint64).tobytes()
        _same_stream(got, np.random.default_rng(child))
