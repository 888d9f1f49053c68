"""The fault-space explorer: trace fidelity, pruning soundness, identity.

Three contracts matter here:

* the traced victim addresses the attack ALU's multiplication sequence
  one for one (region boundaries derived from the exponent structure);
* every pruned fault-space element is *provably* uninteresting — the
  brute-force tests below re-simulate pruned elements and demand the
  pruned verdict;
* the exploitability map is byte-identical across shardings and
  executors, reports a non-empty exploitable set on the undefended
  Sky Lake machine, and an exactly empty one with the polling
  countermeasure loaded.
"""

from __future__ import annotations

import builtins
import dataclasses
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.rsa_crt import RSACRTSigner, RSAKey, bellcore_extract, victim_key
from repro.engine import (
    EngineSession,
    ExploreInjectionJob,
    ExplorePointJob,
    ParallelExecutor,
    SerialExecutor,
)
from repro.engine.cache import ResultCache
from repro.errors import ConfigurationError
from repro.explore import (
    DEFAULT_FAULT_MODELS,
    ExplorePlan,
    ReplayALU,
    TracedOp,
    VictimTrace,
    canonical_json,
    corrupt,
    corruptor,
    coverage_holds,
    enumerate_injections,
    modexp_op_count,
    prune_points,
    replay_with_fault,
    run_explore,
    trace_victim,
)
from repro.explore import victim
from repro.explore.victim import (
    clear_victim_memo,
    decided_in_closed_form,
    injection_verdict,
    replay_verdict,
)
from repro.telemetry import NULL_TELEMETRY

KEY = RSAKey.generate(128, seed=42)
MESSAGE = 0xDEADBEEF

#: A small but non-trivial plan: spans safe, feasible and crash offsets.
PLAN = ExplorePlan(
    codename="Sky Lake",
    frequencies_ghz=(2.0, 3.2),
    offsets_mv=(-40, -120, -200, -280),
)


@pytest.fixture(scope="module")
def trace():
    return trace_victim(KEY, MESSAGE)


@pytest.fixture(scope="module")
def open_map():
    session = EngineSession(executor=SerialExecutor(), cache=ResultCache(), registry=None)
    return run_explore(PLAN, session=session, rows_per_job=8)


class TestVictimTrace:
    def test_op_count_matches_exponent_structure(self, trace):
        expected = modexp_op_count(KEY.dp) + modexp_op_count(KEY.dq) + 2
        assert trace.op_count == expected

    def test_regions_partition_the_trace(self, trace):
        sizes = trace.region_sizes()
        assert sizes["sp"] == modexp_op_count(KEY.dp)
        assert sizes["sq"] == modexp_op_count(KEY.dq)
        assert sizes["recombine-h"] == 1
        assert sizes["recombine-mul"] == 1
        regions = [op.region for op in trace.ops]
        # Regions appear in order, contiguously.
        assert regions == sorted(regions, key=("sp", "sq", "recombine-h", "recombine-mul").index)

    def test_golden_signature_is_correct(self, trace):
        assert trace.golden_signature == pow(MESSAGE % KEY.n, KEY.d, KEY.n)

    def test_identity_replay_reproduces_golden(self, trace):
        signature = replay_with_fault(KEY, MESSAGE, 0, lambda value: value)
        assert signature == trace.golden_signature

    def test_replay_ops_match_traced_ops(self, trace):
        from repro.attacks.rsa_crt import RSACRTSigner

        alu = ReplayALU(target_index=-1, corruptor=lambda value: value)
        RSACRTSigner(KEY).sign(alu, MESSAGE)
        assert alu.op_count == trace.op_count

    def test_shared_trace_is_immutable(self, trace):
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.ops[0].region = "sq"

    def test_sp_fault_is_bellcore_exploitable(self, trace):
        faulty = replay_with_fault(KEY, MESSAGE, 0, corruptor("flip:0"))
        result = bellcore_extract(KEY.n, KEY.e, MESSAGE, faulty)
        assert result is not None
        assert result.factors() == tuple(sorted((KEY.p, KEY.q)))


class TestSuffixReplay:
    """Suffix replay against its oracle: the full-signature ReplayALU run."""

    @settings(max_examples=10, deadline=None)
    @given(
        bits=st.sampled_from((64, 128, 192, 256)),
        key_seed=st.integers(min_value=0, max_value=1 << 16),
        message=st.integers(min_value=0, max_value=1 << 256),
    )
    def test_matches_full_replay(self, bits, key_seed, message):
        key = victim_key(bits, key_seed)
        op_count = trace_victim(key, message).op_count
        signer = RSACRTSigner(key)
        # flip:<n+3> lands above every modulus the products are reduced by.
        models = ("flip:0", "flip:63", "trunc64", "zero", f"flip:{key.n.bit_length() + 3}")
        for op_index in range(op_count):  # both recombination ops included
            for model in models:
                fault = corruptor(model)
                assert replay_with_fault(key, message, op_index, fault) == signer.sign(
                    ReplayALU(op_index, fault), message
                ), (op_index, model)

    def test_out_of_range_index_is_golden(self, trace):
        for op_index in (-1, trace.op_count):
            assert (
                replay_with_fault(KEY, MESSAGE, op_index, corruptor("zero"))
                == trace.golden_signature
            )


class TestClosedFormReplay:
    """The per-trace state table and the work one replay does."""

    def test_replay_issues_at_most_three_bigmuls(self, trace, monkeypatch):
        counts = []

        class CountingALU(ReplayALU):
            def bigmul(self, lhs, rhs):
                counts[-1] += 1
                return super().bigmul(lhs, rhs)

        monkeypatch.setattr(victim, "ReplayALU", CountingALU)
        for op_index in range(trace.op_count):
            counts.append(0)
            replay_with_fault(KEY, MESSAGE, op_index, corruptor("flip:0"))
        # The faulted op plus the two Garner ops; a recombination fault
        # issues only the two Garner ops.
        assert max(counts) == 3
        assert counts[-2:] == [2, 2]

    def test_states_reproduce_traced_operands(self, trace):
        n_sp = modexp_op_count(KEY.dp)
        assert len(trace.states) == n_sp + modexp_op_count(KEY.dq)
        m = MESSAGE % KEY.n
        for i, (result, acc, e) in enumerate(trace.states):
            op = trace.ops[i]
            assert (op.lhs, op.rhs) == ((result, acc) if e & 1 else (acc, acc)), i
            # Every loop-top state finishes to the golden CRT half.
            prime, exponent = (KEY.p, KEY.dp) if i < n_sp else (KEY.q, KEY.dq)
            assert result * pow(acc, e, prime) % prime == pow(m, exponent, prime), i

    def test_tampered_operands_rejected(self, trace):
        # The untampered trace is accepted.
        assert victim.loop_states(KEY, MESSAGE, trace.ops) == trace.states
        for i in range(len(trace.states)):
            op = trace.ops[i]
            for tampered in (
                dataclasses.replace(op, lhs=op.lhs + 1),
                dataclasses.replace(op, rhs=op.rhs + 1),
            ):
                ops = trace.ops[:i] + (tampered,) + trace.ops[i + 1:]
                with pytest.raises(ConfigurationError):
                    victim.loop_states(KEY, MESSAGE, ops)

    def test_matches_full_replay_at_512_bits(self):
        key = victim_key(512, 42)
        trace = victim.victim_trace(key, MESSAGE)
        n_sp, n_exp = modexp_op_count(key.dp), len(trace.states)
        # First and last op of each region, plus seeded interior ops.
        indices = {0, n_sp - 1, n_sp, n_exp - 1, n_exp, n_exp + 1}
        indices.update(random.Random(512).sample(range(trace.op_count), 20))
        models = DEFAULT_FAULT_MODELS + (f"flip:{key.n.bit_length() + 3}",)
        signer = RSACRTSigner(key)
        for op_index in sorted(indices):
            for model in models:
                fault = corruptor(model)
                assert replay_with_fault(key, MESSAGE, op_index, fault) == signer.sign(
                    ReplayALU(op_index, fault), MESSAGE
                ), (op_index, model)


class TestClosedFormVerdicts:
    """``injection_verdict`` against its oracle, ``replay_verdict``."""

    @settings(max_examples=30, deadline=None)
    @given(
        bits=st.sampled_from((128, 256, 512)),
        key_seed=st.integers(min_value=0, max_value=1 << 16),
        message=st.integers(min_value=0, max_value=1 << 512),
        zero_half=st.sampled_from(("", "p", "q")),
        e_shares_factor=st.booleans(),
        picks=st.tuples(st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
        flips=st.lists(st.integers(min_value=0, max_value=1100), max_size=3, unique=True),
    )
    # A message divisible by p puts zero residues in every sp state.
    @example(bits=128, key_seed=42, message=0, zero_half="p",
             e_shares_factor=False, picks=(3, 3), flips=[5])
    # An e sharing the factor 2 with p-1: no half-change is exploitable.
    @example(bits=128, key_seed=42, message=MESSAGE, zero_half="",
             e_shares_factor=True, picks=(3, 3), flips=[5])
    def test_matches_oracle(
        self, bits, key_seed, message, zero_half, e_shares_factor, picks, flips
    ):
        key = victim_key(bits, key_seed)
        if zero_half:
            message = getattr(key, zero_half) * (message % (1 << 32) + 1)
        if e_shares_factor:
            key = dataclasses.replace(key, e=2 * key.e)
        trace = victim.victim_trace(key, message)
        n_sp, n_exp = modexp_op_count(key.dp), len(trace.states)
        # One op from each exponentiation, then both Garner ops.
        ops = (picks[0] % n_sp, n_sp + picks[1] % (n_exp - n_sp), n_exp, n_exp + 1)
        assert [trace.ops[i].region for i in ops] == [
            "sp", "sq", "recombine-h", "recombine-mul"
        ]
        # flip bits up to 1100 land above n for every key size drawn.
        models = DEFAULT_FAULT_MODELS + tuple(f"flip:{bit}" for bit in flips)
        for op_index in ops:
            for model in models:
                assert injection_verdict(trace, op_index, model) == replay_verdict(
                    trace, op_index, corruptor(model)
                ), (op_index, model)

    def test_every_class_rep_at_512_bits(self):
        trace = victim.victim_trace(victim_key(512, 42), MESSAGE)
        plan = enumerate_injections(trace, DEFAULT_FAULT_MODELS)
        for cls in plan.classes:
            rep = (cls.op_index, cls.members[0])
            assert injection_verdict(trace, *rep) == replay_verdict(
                trace, cls.op_index, corruptor(cls.members[0])
            ), rep

    def test_squaring_check_raises_to_the_gcd_not_k(self, monkeypatch):
        # x^k = 1 iff x^gcd(k, p-1) = 1; k runs to ~255 bits here, and
        # the gcd is what keeps a closed-form verdict cheap.
        trace = victim.victim_trace(victim_key(512, 42), MESSAGE)
        exponents = []

        def recording_pow(base, exponent, *modulus):
            exponents.append(exponent)
            return builtins.pow(base, exponent, *modulus)

        monkeypatch.setattr(victim, "pow", recording_pow, raising=False)
        for op_index in range(len(trace.states)):
            assert decided_in_closed_form(trace, op_index)
            for model in DEFAULT_FAULT_MODELS:
                injection_verdict(trace, op_index, model)
        assert exponents and max(exponents) < 1 << 16

    def test_map_replays_only_the_garner_reps(self):
        plan = dataclasses.replace(PLAN, key_bits=512)
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache(), registry=None)
        document = run_explore(plan, session=session)
        counters = session.counters()
        closed_form = counters.get("explore.verdicts.closed_form", 0)
        replayed = counters.get("explore.verdicts.replayed", 0)
        assert 0 < replayed <= 2 * len(plan.fault_models)
        assert closed_form + replayed == document["stats"]["injections_simulated"]


class TestFaultModels:
    def test_catalog(self):
        assert corrupt("flip:3", 0b1) == 0b1001
        assert corrupt("zero", 12345) == 0
        assert corrupt("trunc64", (1 << 100) | 7) == 7

    def test_malformed_models_rejected(self):
        for name in ("flip:x", "flip:-1", "mystery"):
            with pytest.raises(ConfigurationError):
                corruptor(name)

    def test_one_spelling_per_flip_model(self):
        for name in ("flip:03", "flip:+3", "flip: 3", "flip:3 ", "flip:-0"):
            with pytest.raises(ConfigurationError):
                corruptor(name)
        with pytest.raises(ConfigurationError):
            ExplorePlan("Sky Lake", (2.0,), (-100,), fault_models=("flip:3", "flip:03"))

    def test_plan_rejects_duplicates_and_empty(self):
        with pytest.raises(ConfigurationError):
            ExplorePlan("Sky Lake", (2.0,), (-100,), fault_models=("zero", "zero"))
        with pytest.raises(ConfigurationError):
            ExplorePlan("Sky Lake", (2.0,), (-100,), fault_models=())

    def test_protected_plan_requires_unsafe_json(self):
        with pytest.raises(ConfigurationError):
            ExplorePlan("Sky Lake", (2.0,), (-100,), protect=True)


class TestPruningSoundness:
    """Brute-force the small plan unpruned: every prune must be provable."""

    def test_masked_pairs_cannot_reach_the_signature(self, trace):
        plan = enumerate_injections(trace, DEFAULT_FAULT_MODELS)
        assert plan.enumerated == trace.op_count * len(DEFAULT_FAULT_MODELS)
        golden = trace.golden_signature
        for op_index, model in plan.masked:
            assert replay_with_fault(KEY, MESSAGE, op_index, corruptor(model)) == golden

    def test_equivalence_members_share_the_representative_verdict(self, trace):
        plan = enumerate_injections(trace, DEFAULT_FAULT_MODELS)

        def verdict(op_index, model):
            signature = replay_with_fault(KEY, MESSAGE, op_index, corruptor(model))
            if signature == trace.golden_signature:
                return "masked"
            result = bellcore_extract(KEY.n, KEY.e, MESSAGE, signature)
            if result is not None and result.factors() == tuple(sorted((KEY.p, KEY.q))):
                return "exploitable"
            return "corrupted"

        for cls in plan.classes:
            verdicts = {verdict(cls.op_index, model) for model in cls.members}
            assert len(verdicts) == 1

    def test_equivalence_collapses_identical_corruptions(self):
        # A product of exactly 2^64: trunc64 and zero both corrupt it to
        # 0, so they must land in one class with a single representative.
        op = TracedOp(index=0, lhs=1 << 32, rhs=1 << 32, product=1 << 64,
                      reduce_mod=KEY.p, region="sp")
        trace = VictimTrace(key=KEY, message=MESSAGE, golden_signature=0, ops=(op,))
        plan = enumerate_injections(trace, ("trunc64", "zero"))
        assert plan.simulated == 1
        assert plan.pruned_equivalent == 1
        assert plan.classes[0].members == ("trunc64", "zero")

    def test_grid_safe_points_probe_safe_on_a_live_machine(self):
        point_plan = prune_points(PLAN, ("imul",))
        pruned = [
            point
            for point, status in zip(point_plan.points, point_plan.predicted)
            if status == "safe"
        ]
        assert pruned  # the plan's -40 mV column is inside the safe region
        job = ExplorePointJob(
            codename=PLAN.codename,
            points=tuple(pruned),
            protect=False,
            seed=PLAN.seed,
        )
        for record in job.run(NULL_TELEMETRY):
            assert record["status"] == "safe"

    def test_pruning_stats_account_for_everything(self, open_map):
        stats = open_map["stats"]
        assert stats["points_enumerated"] == (
            stats["points_pruned_safe"] + stats["points_probed"]
        )
        assert stats["injections_enumerated"] == (
            stats["injections_pruned_masked"]
            + stats["injections_pruned_equivalent"]
            + stats["injections_simulated"]
        )


class TestMapIdentity:
    def test_byte_identical_across_shardings(self, open_map):
        reference = canonical_json(open_map)
        for rows_per_job in (1, 3, 1000):
            session = EngineSession(
                executor=SerialExecutor(), cache=ResultCache(), registry=None
            )
            document = run_explore(PLAN, session=session, rows_per_job=rows_per_job)
            assert canonical_json(document) == reference

    def test_byte_identical_serial_vs_parallel(self, open_map):
        session = EngineSession(
            executor=ParallelExecutor(2), cache=ResultCache(), registry=None
        )
        try:
            document = session.explore(PLAN, rows_per_job=3)
        finally:
            session.close()
        assert canonical_json(document) == canonical_json(open_map)

    def test_one_keygen_and_one_trace_per_map(self, open_map, monkeypatch):
        calls = {"keygen": 0, "trace": 0}
        generate = RSAKey.generate.__func__
        trace_victim_ = victim.trace_victim

        def counting_generate(cls, *args, **kwargs):
            calls["keygen"] += 1
            return generate(cls, *args, **kwargs)

        def counting_trace(*args, **kwargs):
            calls["trace"] += 1
            return trace_victim_(*args, **kwargs)

        monkeypatch.setattr(RSAKey, "generate", classmethod(counting_generate))
        monkeypatch.setattr(victim, "trace_victim", counting_trace)
        clear_victim_memo()
        for maps in (1, 2):  # the memo lasts one map: each map pays once
            session = EngineSession(executor=SerialExecutor(), cache=ResultCache(), registry=None)
            document = session.explore(PLAN, rows_per_job=3)
            assert calls == {"keygen": maps, "trace": maps}
            assert canonical_json(document) == canonical_json(open_map)

    def test_map_round_trips_through_json(self, open_map):
        assert json.loads(canonical_json(open_map)) == open_map


class TestCoverage:
    def test_undefended_sky_lake_has_exploitable_points(self, open_map):
        assert open_map["summary"]["feasible_points"] > 0
        assert open_map["summary"]["exploitable_pairs"] > 0
        assert open_map["summary"]["exploitable_points"] > 0

    def test_countermeasure_drives_exploitable_set_to_zero(
        self, open_map, skylake_characterization
    ):
        unsafe_json = json.dumps(
            skylake_characterization.unsafe_states.to_dict(), sort_keys=True
        )
        protected_plan = ExplorePlan(
            codename=PLAN.codename,
            frequencies_ghz=PLAN.frequencies_ghz,
            offsets_mv=PLAN.offsets_mv,
            protect=True,
            unsafe_json=unsafe_json,
        )
        session = EngineSession(
            executor=SerialExecutor(), cache=ResultCache(), registry=None
        )
        protected_map = run_explore(protected_plan, session=session)
        assert protected_map["summary"]["feasible_points"] == 0
        assert protected_map["summary"]["exploitable_points"] == 0
        assert coverage_holds(open_map, protected_map)

    def test_injection_verdicts_by_region(self, open_map):
        # Faults in either exponentiation *and* in the recombination
        # leave one CRT residue intact, so Bellcore factoring works;
        # only masked corruptions escape.
        by_verdict = {}
        for entry in open_map["injections"]:
            by_verdict.setdefault(entry["verdict"], 0)
            by_verdict[entry["verdict"]] += 1
        assert by_verdict.get("exploitable", 0) > 0
        assert (
            sum(by_verdict.values())
            == open_map["stats"]["injections_enumerated"]
        )


class TestJobSpecs:
    def test_point_job_fingerprint_is_stable(self):
        job = ExplorePointJob(
            codename="Sky Lake", points=((2.0, -120),), protect=False, seed=5
        )
        clone = ExplorePointJob(
            codename="Sky Lake", points=((2.0, -120),), protect=False, seed=5
        )
        assert job.fingerprint() == clone.fingerprint()
        other = ExplorePointJob(
            codename="Sky Lake", points=((2.0, -121),), protect=False, seed=5
        )
        assert job.fingerprint() != other.fingerprint()

    def test_protected_point_job_requires_unsafe_json(self):
        with pytest.raises(ConfigurationError):
            ExplorePointJob(
                codename="Sky Lake", points=((2.0, -120),), protect=True, seed=5
            )

    def test_injection_job_regenerates_identical_verdicts(self):
        job = ExploreInjectionJob(
            key_bits=128, key_seed=42, message=MESSAGE, reps=((0, "flip:0"),)
        )
        first = job.run(NULL_TELEMETRY)
        second = job.run(NULL_TELEMETRY)
        assert first == second
        assert first[0]["verdict"] == "exploitable"
