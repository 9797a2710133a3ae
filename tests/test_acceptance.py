"""Acceptance gate: the eleven headline claims, one test per claim.

Each test prints a single PASS line with its measured numbers once its
assertions clear, so a ``pytest`` run doubles as a claim-by-claim report.
Tolerances are part of the claims and are stated inline.
"""

import numpy as np
import pytest

from qpuflab import (
    INPUT_LABEL,
    ClosedFormTerm,
    GameConfig,
    PostSelectionFailure,
    PrivilegedReadout,
    QeConfig,
    QPufGenParams,
    SealedOracle,
    StateVector,
    SubspaceAdversary,
    TestConfig,
    TomographyAdversary,
    closed_form_state,
    distance_contraction_check,
    estimate_win_rate,
    fidelity_disturbance_check,
    forgery_fidelity_bound,
    haar_state,
    haar_subspace_weight_check,
    haar_unitary,
    make_forger_plan,
    orthogonal_challenge_check,
    pure_state_distance_bound,
    qeval,
    qgen,
    run_forgery,
    run_full,
    run_stage1,
    stage1_closed_form,
    swap_statistics_check,
    cli,
)

MASTER_SEED = 20250811


@pytest.fixture
def announce(capsys):
    """Print one always-visible line per criterion."""

    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def _random_emulation_setup(rng, n, k, in_span):
    dim = 2**n
    u = haar_unitary(dim, rng)
    samples_in = tuple(haar_state(dim, rng) for _ in range(k))
    samples_out = tuple(StateVector(u.matrix @ s.amplitudes) for s in samples_in)
    cfg = QeConfig(
        samples_in=samples_in,
        samples_out=samples_out,
        reference_index=int(rng.integers(k)),
    )
    if in_span:
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v = sum(ci * s.amplitudes for ci, s in zip(c, samples_in))
        psi = StateVector(v / np.linalg.norm(v))
    else:
        psi = haar_state(dim, rng)
    return cfg, psi, u


def test_c01_balanced_mu_forgery_is_exact(announce):
    """mu = 1/2: post-selected output fidelity is 1 - 1e-9 or better, always."""
    rng = np.random.default_rng(MASTER_SEED)
    worst = 1.0
    runs = 0
    for n in (2, 3, 4):
        for _ in range(20):
            inst = qgen(QPufGenParams(qubits=n, seed=int(rng.integers(2**63))))
            rep = run_forgery(inst, 0.5)
            worst = min(worst, rep.fidelity)
            runs += 1
            assert rep.fidelity >= 1.0 - 1e-9
    announce(
        f"[c01 exact-forgery] PASS: {runs} devices over n=2..4, "
        f"worst fidelity {worst:.12f} >= 1-1e-9"
    )


def test_c02_fidelity_floor_sweep(announce):
    """Mean achieved fidelity clears the certified floor on a 10-point mu grid.

    The floor is (1-mu)(1+4mu(1-mu)) on the weighted branch; for mu <= 1/2
    the balanced construction forges exactly, so the floor there is 1 (the
    raw expression exceeds 1 and cannot be meant pointwise).
    """
    rng = np.random.default_rng(MASTER_SEED + 1)
    margins = []
    for j in range(10):
        mu = j / 10
        fids = []
        for _ in range(20):
            inst = qgen(QPufGenParams(qubits=3, seed=int(rng.integers(2**63))))
            fids.append(run_forgery(inst, mu).fidelity)
        mean = float(np.mean(fids))
        floor = forgery_fidelity_bound(mu)
        margins.append(mean - floor)
        assert mean >= floor - 1e-8, f"mu={mu}: mean {mean} < floor {floor}"
    announce(
        f"[c02 floor-sweep] PASS: 10 mu cells x 20 devices (n=3), "
        f"smallest mean-minus-floor {min(margins):.3e} >= -1e-8"
    )


def test_c03_orthogonal_challenges_never_pass(announce):
    """Inputs orthogonal to the sample span leave zero stage-1 success."""
    rep = orthogonal_challenge_check(200, np.random.default_rng(MASTER_SEED + 2))
    assert rep.passed
    assert rep.trials == 200
    announce(
        f"[c03 orthogonal-rejection] PASS: 200 configs, p_succ <= 1e-12 "
        f"and every run aborted (worst margin {rep.worst_margin:.3e})"
    )


def test_c04_recovery_fidelity_floor(announce):
    """Post-selected fidelity is never below sqrt(p_succ_stage1) - 1e-8."""
    rng = np.random.default_rng(MASTER_SEED + 3)
    margins = []
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 5))  # up to 4 qubits
        k = int(rng.integers(2, 4))  # up to 3 samples
        cfg, psi, u = _random_emulation_setup(rng, n, k, in_span=bool(rng.integers(2)))
        target = StateVector(u.matrix @ psi.amplitudes)
        try:
            res = run_full(cfg, psi, target=target)
        except PostSelectionFailure:
            continue
        margins.append(res.fidelity_vs_target - np.sqrt(res.p_succ_stage1))
        assert margins[-1] >= -1e-8
        checked += 1
    announce(
        f"[c04 recovery-floor] PASS: 500 configs (n<=4, K<=3), "
        f"worst F - sqrt(p_succ) = {min(margins):.3e} >= -1e-8"
    )


def test_c05_closed_form_equals_circuit(announce):
    """Symbolic expansion reproduces the circuit state, plus both term displays.

    200 random configs within 1e-9 trace distance; the four-term structure of
    the weighted forger block and the five-summand expansion of one generic
    block are reproduced exactly.
    """
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        cfg, psi, _ = _random_emulation_setup(rng, n, k, in_span=trial % 2 == 0)
        circuit = run_stage1(cfg, psi)
        symbolic = closed_form_state(cfg, psi)
        dist = pure_state_distance_bound(circuit, symbolic)
        worst = max(worst, dist)
        assert dist <= 1e-9

    # four merged terms of the weighted forger block (mu = 3/4)
    plan = make_forger_plan(0.75, 4)
    inst = qgen(QPufGenParams(qubits=2, seed=MASTER_SEED))
    forger_cfg = QeConfig(
        samples_in=(plan.phi1, plan.phi2),
        samples_out=(qeval(inst, plan.phi1), qeval(inst, plan.phi2)),
        reference_index=1,
    )
    terms = stage1_closed_form(forger_cfg, plan.phi3)
    got = {(t.system_label, t.ancilla_bits): t.coefficient for t in terms}
    want4 = {
        (1, (0,)): 0.5,
        (INPUT_LABEL, (1,)): 1.0,
        (1, (1,)): -0.5,
        (0, (1,)): np.sqrt(3.0) / 2.0,
    }
    assert set(got) == set(want4)
    for key, value in want4.items():
        np.testing.assert_allclose(got[key], value, atol=1e-12)

    # five summands of one generic block, before same-label merging
    gen_rng = np.random.default_rng(MASTER_SEED + 5)
    cfg, psi, _ = _random_emulation_setup(gen_rng, 2, 2, in_span=False)
    r_idx = cfg.reference_index
    s_idx = cfg.block_sample_indices[0]
    r_amp = cfg.samples_in[r_idx].amplitudes
    s_amp = cfg.samples_in[s_idx].amplitudes
    r_psi = np.vdot(r_amp, psi.amplitudes)
    five = [
        ClosedFormTerm(r_psi, r_idx, (0,)),
        ClosedFormTerm(1.0 + 0j, INPUT_LABEL, (1,)),
        ClosedFormTerm(-r_psi, r_idx, (1,)),
        ClosedFormTerm(-2.0 * np.vdot(s_amp, psi.amplitudes), s_idx, (1,)),
        ClosedFormTerm(2.0 * np.vdot(s_amp, r_amp) * r_psi, s_idx, (1,)),
    ]
    circuit = run_stage1(cfg, psi)
    rebuilt = closed_form_state(cfg, psi, terms=five)
    assert pure_state_distance_bound(circuit, rebuilt) <= 1e-12
    announce(
        f"[c05 closed-form] PASS: 200 configs within 1e-9 "
        f"(worst {worst:.3e}); 4-term and 5-term displays exact"
    )


def test_c06_haar_average_subspace_weight(announce):
    """Mean squared overlap with a d-dimensional subspace is d/D (3 sigma)."""
    rng = np.random.default_rng(MASTER_SEED + 6)
    details = []
    for d, dim in ((1, 2), (3, 8), (4, 16)):
        rep = haar_subspace_weight_check(d, dim, 100000, rng)
        assert rep.passed, rep.detail
        details.append(f"d/D={d}/{dim}")
    announce(
        f"[c06 haar-weight] PASS: {', '.join(details)} each within "
        f"3 sigma at 1e5 draws"
    )


def test_c07_selective_subspace_bound(announce):
    """Informed subspace adversary never beats (d+1)/D plus 3 sigma."""
    cells = ((0, 3), (1, 3), (2, 4), (4, 4), (8, 6))  # (d, qubits)
    trials = 2000
    worst_excess = -1.0
    for d, n in cells:
        dim = 2**n
        bound = (d + 1) / dim
        sigma = float(np.sqrt(bound * (1.0 - bound) / trials))
        for delta in (0.3, 0.5, 0.9):
            cfg = GameConfig(
                mode="qsel",
                gen=QPufGenParams(qubits=n, seed=0),
                test=TestConfig(kind="ideal", delta=delta),
                learning_budget=d,
                seed=MASTER_SEED + 7 + d + n + int(delta * 10),
            )
            est = estimate_win_rate(cfg, lambda: SubspaceAdversary(d), trials)
            excess = est.win_rate - bound
            worst_excess = max(worst_excess, excess - 3.0 * sigma)
            assert est.win_rate <= bound + 3.0 * sigma, (
                f"d={d} D={dim} delta={delta}: rate {est.win_rate} "
                f"vs bound {bound} + 3s {3 * sigma}"
            )
    announce(
        f"[c07 selective-bound] PASS: 5 (d,D) cells x 3 thresholds, "
        f"{trials} games each; worst rate-minus-(bound+3s) {worst_excess:.3e}"
    )


def test_c08_disturbance_inequalities(announce):
    """Disturbed-device fidelity and distance gaps stay inside their bounds.

    Per (eps, D) cell, 1000 random pairs: output-vs-input fidelity gap at
    most 2 eps x input distance (pure pairs), distance contraction at most
    eps x input distance, and the full-replacer channel contracts by exactly
    (1 - eps), all with 1e-8 slack.
    """
    seed = MASTER_SEED + 8
    cells = 0
    for eps in (0.1, 0.3, 0.5):
        for dim in (2, 4):
            d_rep = distance_contraction_check(
                eps, dim, 1000, np.random.default_rng(seed + cells)
            )
            f_rep = fidelity_disturbance_check(
                eps, dim, 1000, np.random.default_rng(seed + 100 + cells)
            )
            assert d_rep.passed, d_rep.detail
            assert d_rep.violations == 0
            assert f_rep.passed, f_rep.detail
            assert f_rep.violations == 0
            cells += 1
    announce(
        f"[c08 disturbance-bounds] PASS: {cells} (eps, D) cells x 1000 pairs, "
        f"zero violations of the gap bounds and the replacer equality"
    )


def test_c09_privileged_tomography_reconstructs(announce):
    """With the readout grant, two-qubit devices are recovered exactly."""
    inst = qgen(QPufGenParams(qubits=2, seed=MASTER_SEED + 9))
    adv = TomographyAdversary(PrivilegedReadout())
    adv.learn(
        SealedOracle(lambda psi: qeval(inst, psi)), 4, 4, np.random.default_rng(0)
    )
    deviation = float(np.max(np.abs(adv.reconstructed.matrix - inst.unitary.matrix)))
    assert deviation <= 1e-9

    readout = PrivilegedReadout()
    cfg = GameConfig(
        mode="qsel",
        gen=QPufGenParams(qubits=2, seed=0),
        test=TestConfig(kind="ideal", delta=0.99),
        learning_budget=4,
        seed=MASTER_SEED + 10,
    )
    est = estimate_win_rate(cfg, lambda: TomographyAdversary(readout), trials=100)
    assert est.win_rate == 1.0
    announce(
        f"[c09 tomography] PASS: max entry deviation {deviation:.3e} <= 1e-9; "
        f"100/100 selective wins at threshold 0.99"
    )


def test_c10_swap_battery_statistics(announce):
    """Swap-battery acceptance matches ((1+F)/2)^c within 3 sigma; F=1 exact."""
    rep = swap_statistics_check(10000, np.random.default_rng(MASTER_SEED + 11))
    assert rep.passed, rep.detail
    assert rep.trials == 9  # 3 fidelities x 3 pair counts
    announce(
        "[c10 swap-statistics] PASS: 9 cells (F in {0, 1/2, 1} x c in "
        "{1, 5, 20}) at 1e4 trials, all within 3 sigma, F=1 exact"
    )


def test_c11_cli_replay_byte_identity(tmp_path, capsys, announce):
    """Every file-writing subcommand replays byte-identically from its manifest."""
    commands = {
        "sweep.csv": [
            "forge-sweep", "--qubits", "2", "--mu-steps", "3", "--trials", "2",
            "--seed", "41",
        ],
        "bound.csv": [
            "selective-bound", "--qubits", "2", "--d", "1", "--trials", "30",
            "--seed", "42",
        ],
        "games.jsonl": [
            "game", "--mode", "qex", "--adversary", "forger", "--mu", "0.5",
            "--qubits", "2", "--trials", "10", "--delta", "0.9", "--seed", "43",
        ],
        "demo.json": ["qe-demo", "--qubits", "2", "--mu", "0.75", "--seed", "44"],
        "audit.json": ["verify-all", "--seed", "45"],
    }
    for name, argv in commands.items():
        first = tmp_path / name
        assert cli.main(argv + ["--out", str(first)]) == 0
        second = tmp_path / ("replay-" + name)
        code = cli.main(
            ["replay", "--manifest", str(first) + ".manifest.json",
             "--out", str(second)]
        )
        assert code == 0
        assert first.read_bytes() == second.read_bytes(), name
    capsys.readouterr()
    announce(
        f"[c11 replay-determinism] PASS: {len(commands)} subcommands replayed "
        f"byte-identically from their manifests"
    )
