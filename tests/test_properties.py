"""Property tests: fidelity and trace-distance laws, the disturbed family,
and the array paths of selective games, of emulation-forger games and of the
audits against their per-game and per-trial oracles.

Hypothesis picks the dimension (2 to 8), the kind of input pair, epsilon and
the depolarizing strength; the states themselves come from a numpy generator
seeded by a drawn integer, so every failure shrinks to a replayable seed.
"""

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
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
from qpuflab import games, testers, verify  # noqa: E402

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


@GAME_PROPERTY
@given(game=subspace_games(), trials=st.integers(1, 7), chunk=st.sampled_from([1, 3, None]))
def test_subspace_chunks_replay_the_per_game_oracle(game, trials, chunk):
    # chunks of 1 or 3 devices, or the default, play the games that the
    # per-game oracle plays on the same child streams, in every field
    cfg, d = game
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(games, "_DRAW_CHUNK", chunk * math.prod(games._block_shape(cfg)))
        est = estimate_win_rate(
            cfg, lambda: SubspaceAdversary(d), trials, keep_transcripts=True
        )
    children = np.random.SeedSequence(cfg.seed).spawn(trials)
    loop = [run_game(cfg, SubspaceOracle(d), np.random.default_rng(c)) for c in children]
    assert est.wins == sum(t.outcome_b for t in loop)
    for got, want in zip(est.transcripts, loop, strict=True):
        for f in dataclasses.fields(Transcript):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


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
@given(cfg=forger_games(), trials=st.integers(1, 7), chunk=st.sampled_from([1, 3, None]))
def test_forger_chunks_replay_the_per_game_oracle(cfg, trials, chunk):
    # as the subspace property, for the emulation forger at the game's mu
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(games, "_DRAW_CHUNK", chunk * math.prod(games._block_shape(cfg)))
        est = estimate_win_rate(
            cfg, lambda: QeForger(cfg.mu), trials, keep_transcripts=True
        )
    children = np.random.SeedSequence(cfg.seed).spawn(trials)
    loop = [run_game(cfg, ForgerOracle(cfg.mu), np.random.default_rng(c)) for c in children]
    assert est.wins == sum(t.outcome_b for t in loop)
    for got, want in zip(est.transcripts, loop, strict=True):
        for f in dataclasses.fields(Transcript):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


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
    dim=st.sampled_from([2, 4, 8]),
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
