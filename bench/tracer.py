"""In-memory span recorder for the traced benchmark run.

Tracing is installed only for the traced phase.  It replaces public
functions at the names their callers look them up by (for example
``qpuflab.games.qgen``, which ``run_game`` reads from its own module
globals) and the ``__post_init__`` of the validated numerics types.  No
file of the library changes, and the wrappers neither reorder calls nor
touch any random stream, so the traced phase must reproduce the untraced
phase's outputs byte for byte.

A span's self time is its duration minus the durations of the spans opened
directly inside it.  The benchmark wraps each top-level call in a
``bench.call.*`` span; the self time of those spans is the part of the
calls' time that no library span accounts for (``unattributed_share``).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from qpuflab import adversaries, cli, emulator, games, numerics, qpuf, verify
from qpuflab.errors import PostSelectionFailure


class Tracer:
    """Aggregates spans by name (calls, total, self), by dimension, by phase."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.phase: dict[str, float] = defaultdict(float)
        self.by_dim: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        # one accumulator of child-span time per open span
        self._stack: list[float] = []

    def span(self, name, fn, *, phase=None, dim=None, after=None, count_errors=()):
        """Wrap ``fn`` in a span called ``name``.

        ``phase`` also adds the span's inclusive time to a named phase;
        ``dim(args)`` labels the call for the per-dimension table;
        ``after(result)`` observes a successful result;
        exceptions of the types in ``count_errors`` are counted as
        ``<name>.raised`` and re-raised.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except count_errors:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if phase is not None:
                    self.phase[phase] += dt
            if dim is not None:
                key = (name, dim(args))
                cell = self.by_dim.setdefault(key, [0, 0.0])
                cell[0] += 1
                cell[1] += dt
            if after is not None:
                after(result)
            return result

        return traced

    def run(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span (used for the benchmark's own calls)."""
        return self.span(name, fn)(*args)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _dim_of_arg(args):
    return str(args[0])


def _dim_of_obj(args):
    return str(args[0].dim)


def _game_cell(args):
    cfg = args[0]
    return f"d={cfg.learning_budget},n={cfg.gen.qubits}"


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics read; returns the undo log."""
    patches = Patches()
    counts = tracer.counts

    def wrap(module, attr, name, **kw):
        patches.set(module, attr, tracer.span(name, getattr(module, attr), **kw))

    # numerics: the validated types, Haar draws, span projector, metrics
    for cls, key in (
        (numerics.StateVector, "statevector"),
        (numerics.DensityMatrix, "densitymatrix"),
        (numerics.UnitaryMatrix, "unitary"),
        (numerics.Projector, "projector"),
    ):
        wrapped = tracer.span(
            f"numerics.validate.{key}", cls.__post_init__, dim=_dim_of_obj
        )
        patches.set(cls, "__post_init__", wrapped)
    for module in (qpuf, verify):
        wrap(module, "haar_unitary", "numerics.haar_unitary", dim=_dim_of_arg)
    wrap(games, "haar_state", "numerics.haar_state", phase="games.challenge",
         dim=_dim_of_arg)
    for module in (adversaries, verify):
        wrap(module, "haar_state", "numerics.haar_state", dim=_dim_of_arg)
    wrap(games, "span_projector", "numerics.span_projector",
         phase="games.d_spanned")
    wrap(verify, "span_projector", "numerics.span_projector")
    # sqrt_fidelity_mixed reaches fidelity_mixed through the numerics globals
    for module in (numerics, qpuf, verify):
        wrap(module, "fidelity_mixed", "numerics.fidelity_mixed", dim=_dim_of_obj)
    wrap(verify, "trace_distance", "numerics.trace_distance", dim=_dim_of_obj)

    # qpuf: device draw, evaluation, disturbed channel
    wrap(games, "qgen", "qpuf.qgen", phase="games.device_draw")
    for module in (games, adversaries):
        wrap(module, "qeval", "qpuf.qeval")
    for module in (qpuf, verify):
        wrap(module, "channel_apply", "qpuf.channel_apply", dim=_dim_of_obj)

    # emulator stages
    for module in (adversaries, verify):
        wrap(module, "run_full", "emulator.run_full", dim=_dim_of_obj,
             count_errors=(PostSelectionFailure,))
    for module in (emulator, verify):
        wrap(module, "run_stage1", "emulator.run_stage1")
    wrap(verify, "closed_form_state", "emulator.closed_form_state")

    # testers
    def count_accept(outcome):
        counts["testers.accepted"] += int(outcome.accepted)

    for module, phase in ((games, "games.test"), (verify, None)):
        wrap(module, "run_test", "testers.run_test", phase=phase, after=count_accept)

    # games: one trial, the mu rule, and the adversary the factory builds
    def count_win(transcript):
        counts["games.wins"] += transcript.outcome_b

    wrap(games, "run_game", "games.run_game", dim=_game_cell, after=count_win)
    wrap(games, "mu_check", "games.mu_check", phase="games.challenge")
    patches.set(
        adversaries.SubspaceKnowledge,
        "__post_init__",
        tracer.span(
            "adversaries.knowledge_check",
            adversaries.SubspaceKnowledge.__post_init__,
        ),
    )

    def traced_adversary(adv):
        learn = adv.learn
        respond = adv.respond

        def learn_with_traced_oracle(oracle, dim, budget, rng):
            query = tracer.span("adversaries.oracle_query", oracle.query)
            return learn(games.SealedOracle(query), dim, budget, rng)

        def observe_stage2(guess):
            result = getattr(adv, "last_result", None)
            if result is not None and result.stage2_bit is not None:
                counts["emulator.stage2_sampled"] += 1
                counts["emulator.stage2_passed"] += int(result.stage2_bit == 0)

        adv.learn = tracer.span(
            "adversaries.learn", learn_with_traced_oracle, phase="games.learn"
        )
        adv.respond = tracer.span(
            "adversaries.respond", respond, phase="games.respond", after=observe_stage2
        )
        if hasattr(adv, "choose_challenge"):
            adv.choose_challenge = tracer.span(
                "adversaries.choose_challenge", adv.choose_challenge,
                phase="games.challenge",
            )
        return adv

    def wrap_estimate(module):
        inner = getattr(module, "estimate_win_rate")

        def estimate_with_traced_factory(cfg, factory, *args, **kwargs):
            return inner(cfg, lambda: traced_adversary(factory()), *args, **kwargs)

        patches.set(
            module,
            "estimate_win_rate",
            tracer.span("games.estimate_win_rate", estimate_with_traced_factory),
        )

    wrap_estimate(games)
    wrap_estimate(cli)

    # verify: every check run_all_checks or the benchmark calls by module name
    for attr, name in VERIFY_CHECKS.items():
        wrap(verify, attr, name)
    wrap(cli, "run_all_checks", "verify.run_all_checks")

    # cli: replay re-enters main through the cli module globals
    wrap(cli, "main", "cli.main")
    return patches


#: verify check function -> span name (the per-check time metrics read these)
VERIFY_CHECKS = {
    "haar_subspace_weight_check": "verify.haar_subspace_weight",
    "recovery_floor_check": "verify.recovery_floor",
    "closed_form_check": "verify.closed_form",
    "orthogonal_challenge_check": "verify.orthogonal_challenge",
    "distance_contraction_check": "verify.distance_contraction",
    "fidelity_disturbance_check": "verify.fidelity_disturbance",
    "joint_concavity_check": "verify.joint_concavity",
    "swap_statistics_check": "verify.swap_statistics",
    "negative_control_check": "verify.negative_control",
}


def unattributed_share(tracer: Tracer) -> float:
    """Share of the top-level calls' traced time outside every library span."""
    calls = [name for name in tracer.calls if name.startswith("bench.call.")]
    total = sum(tracer.total[name] for name in calls)
    return sum(tracer.self_time[name] for name in calls) / total if total else 0.0


def per_layer_metrics(tracer: Tracer, traced, untraced, everything) -> dict[str, tuple]:
    """Per-layer metrics of one traced phase, as ``name -> (value, unit)``.

    Times and counts are per Monte Carlo trial of the traced phase, so runs
    of different length compare; ratios are reported as measured and read 0
    when their base is empty on a workload.  ``traced`` and ``untraced`` are
    the call records of the same rounds with and without spans;
    ``everything`` is every call of the run.
    """
    t = tracer
    per = 1.0 / sum(rec.trials for rec in traced)
    audits = [rec for rec in everything if rec.kind == "verify_all"]

    def calls(name):
        return (t.calls.get(name, 0) * per, "calls/trial")

    def self_s(*names):
        return (sum(t.self_time.get(n, 0.0) for n in names) * per, "s/trial")

    def total_s(name):
        return (t.total.get(name, 0.0) * per, "s/trial")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    validate = [f"numerics.validate.{k}" for k in
                ("statevector", "densitymatrix", "unitary", "projector")]
    m = {
        "numerics.haar_unitary.calls": calls("numerics.haar_unitary"),
        "numerics.haar_unitary.self_s": self_s("numerics.haar_unitary"),
        "numerics.haar_state.self_s": self_s("numerics.haar_state"),
        "numerics.span_projector.self_s": self_s("numerics.span_projector"),
        "numerics.validate.self_s": self_s(*validate),
        "numerics.fidelity_mixed.self_s": self_s("numerics.fidelity_mixed"),
        "numerics.trace_distance.self_s": self_s("numerics.trace_distance"),
    }
    for key in ("statevector", "densitymatrix", "unitary", "projector"):
        n = t.calls.get(f"numerics.validate.{key}", 0)
        m[f"numerics.{key}.built"] = (n * per, "count/trial")
    for name in ("qpuf.qgen", "qpuf.qeval", "qpuf.channel_apply",
                 "emulator.run_full", "testers.run_test", "games.run_game"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["emulator.run_stage1.self_s"] = self_s("emulator.run_stage1")
    m["emulator.closed_form_state.self_s"] = self_s("emulator.closed_form_state")
    m["emulator.stage2_pass_ratio"] = ratio(
        t.counts["emulator.stage2_passed"], t.counts["emulator.stage2_sampled"]
    )
    m["emulator.postselect_fail"] = (
        t.counts["emulator.run_full.raised"] * per, "count/trial"
    )
    m["testers.accept_ratio"] = ratio(
        t.counts["testers.accepted"], t.calls.get("testers.run_test", 0)
    )
    for phase in ("device_draw", "learn", "challenge", "respond", "test", "d_spanned"):
        m[f"games.{phase}_s"] = (t.phase.get(f"games.{phase}", 0.0) * per, "s/trial")
    m["games.win_ratio"] = ratio(
        t.counts["games.wins"], t.calls.get("games.run_game", 0)
    )
    m["adversaries.learn.self_s"] = self_s("adversaries.learn")
    m["adversaries.respond.self_s"] = self_s("adversaries.respond")
    m["adversaries.oracle_queries"] = (
        t.calls.get("adversaries.oracle_query", 0) * per, "count/trial"
    )
    m["adversaries.knowledge_check_s"] = total_s("adversaries.knowledge_check")
    for name in VERIFY_CHECKS.values():
        m[f"{name}.s"] = total_s(name)
    m["verify.run_all_checks.self_s"] = self_s("verify.run_all_checks")
    m["verify.gate_alarm_ratio"] = ratio(sum(rec.alarms for rec in audits), len(audits))
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.replay.s"] = total_s("bench.call.replay")
    m["cli.bytes_written"] = (sum(rec.bytes_written for rec in traced) * per, "B/trial")
    m["trace.overhead_ratio"] = ratio(
        sum(rec.seconds * rec.scale for rec in traced),
        sum(rec.seconds * rec.scale for rec in untraced),
    )
    m["trace.unattributed_ratio"] = (unattributed_share(t), "ratio")
    m["failed_ratio"] = ratio(sum(rec.failed for rec in everything), len(everything))
    return m
