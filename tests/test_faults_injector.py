"""Fault injector: window sampling, bit flips, crash propagation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, MachineCheckError
from repro.cpu.models import COMET_LAKE
from repro.faults.injector import FaultInjector
from repro.faults.margin import FaultModel, OperatingConditions


@pytest.fixture
def fault_model() -> FaultModel:
    return FaultModel(COMET_LAKE)


@pytest.fixture
def injector(fault_model) -> FaultInjector:
    return FaultInjector(fault_model, np.random.default_rng(7))


def safe_conditions(fault_model) -> OperatingConditions:
    return fault_model.conditions_for_offset(2.0, 0.0)


def faulting_conditions(fault_model) -> OperatingConditions:
    vcrit = fault_model.critical_voltage(2.0)
    return OperatingConditions(frequency_ghz=2.0, voltage_volts=vcrit, offset_mv=-999)


def crashing_conditions(fault_model) -> OperatingConditions:
    vcrit = fault_model.critical_voltage(2.0)
    return OperatingConditions(
        frequency_ghz=2.0, voltage_volts=vcrit - 0.05, offset_mv=-999
    )


class TestWindows:
    def test_safe_window_never_faults(self, injector, fault_model):
        outcome = injector.run_window(safe_conditions(fault_model), 1_000_000)
        assert outcome.fault_count == 0
        assert not outcome.faulted
        assert not outcome.crashed

    def test_unsafe_window_faults(self, injector, fault_model):
        outcome = injector.run_window(faulting_conditions(fault_model), 1_000_000)
        assert outcome.fault_count > 0
        assert outcome.faulted

    def test_crash_raises(self, injector, fault_model):
        with pytest.raises(MachineCheckError) as excinfo:
            injector.run_window(crashing_conditions(fault_model), 1000)
        assert excinfo.value.frequency_ghz == 2.0

    def test_crash_suppressible(self, injector, fault_model):
        outcome = injector.run_window(
            crashing_conditions(fault_model), 1000, raise_on_crash=False
        )
        assert outcome.crashed

    def test_zero_ops_allowed(self, injector, fault_model):
        outcome = injector.run_window(safe_conditions(fault_model), 0)
        assert outcome.ops == 0
        assert outcome.fault_count == 0

    def test_negative_ops_rejected(self, injector, fault_model):
        with pytest.raises(ConfigurationError):
            injector.run_window(safe_conditions(fault_model), -1)

    def test_event_recording_capped(self, fault_model):
        injector = FaultInjector(
            fault_model, np.random.default_rng(1), max_recorded_events=4
        )
        outcome = injector.run_window(faulting_conditions(fault_model), 5_000_000)
        assert outcome.fault_count > 4
        assert len(outcome.events) == 4

    def test_event_indices_within_window(self, injector, fault_model):
        outcome = injector.run_window(faulting_conditions(fault_model), 500_000)
        for event in outcome.events:
            assert 0 <= event.op_index < 500_000

    def test_determinism_with_same_seed(self, fault_model):
        a = FaultInjector(fault_model, np.random.default_rng(42)).run_window(
            faulting_conditions(fault_model), 1_000_000
        )
        b = FaultInjector(fault_model, np.random.default_rng(42)).run_window(
            faulting_conditions(fault_model), 1_000_000
        )
        assert a.fault_count == b.fault_count
        assert [e.flipped_bit for e in a.events] == [e.flipped_bit for e in b.events]


class TestBitFlips:
    def test_flip_changes_exactly_one_bit(self, injector):
        event = injector.flip_random_bit(0x1234_5678_9ABC_DEF0)
        diff = event.correct_value ^ event.faulty_value
        assert bin(diff).count("1") == 1
        assert diff == 1 << event.flipped_bit

    def test_flip_stays_in_64_bits(self, injector):
        for _ in range(20):
            event = injector.flip_random_bit((1 << 64) - 1)
            assert 0 <= event.faulty_value < (1 << 64)

    def test_negative_recorded_events_rejected(self, fault_model):
        with pytest.raises(ConfigurationError):
            FaultInjector(fault_model, np.random.default_rng(0), max_recorded_events=-1)


class TestSingleOp:
    def test_safe_single_op_never_faults(self, injector, fault_model):
        conditions = safe_conditions(fault_model)
        assert all(
            injector.maybe_fault_value(conditions, 7) is None for _ in range(1000)
        )

    def test_unsafe_single_op_sometimes_faults(self, injector, fault_model):
        conditions = faulting_conditions(fault_model)
        hits = sum(
            injector.maybe_fault_value(conditions, 7) is not None
            for _ in range(200_000)
        )
        assert hits > 0

    def test_single_op_crash_raises(self, injector, fault_model):
        with pytest.raises(MachineCheckError):
            injector.maybe_fault_value(crashing_conditions(fault_model), 7)

    def test_single_op_crash_traced_and_counted(self, fault_model):
        # Regression: the single-instruction crash path used to raise
        # without emitting fault.crash or bumping the windows counter, so
        # RSA-CRT / explorer crashes were invisible in JSONL traces.
        from repro.telemetry import Telemetry, events_from_jsonl, to_jsonl

        telemetry = Telemetry()
        injector = FaultInjector(
            fault_model, np.random.default_rng(3), telemetry=telemetry
        )
        conditions = crashing_conditions(fault_model)
        with pytest.raises(MachineCheckError):
            injector.maybe_fault_value(conditions, 7)
        assert telemetry.registry.counter("faults.windows").value == 1
        assert telemetry.registry.counter("faults.crashes").value == 1
        crashes = telemetry.tracer.events_by_name("fault.crash")
        assert len(crashes) == 1
        assert crashes[0].args_dict["frequency_ghz"] == conditions.frequency_ghz
        # And it survives the JSONL round trip the flight recorder uses.
        parsed = events_from_jsonl(to_jsonl(telemetry.tracer.events))
        assert any(e.name == "fault.crash" for e in parsed)

    def test_single_op_and_window_crash_paths_match(self, fault_model):
        from repro.telemetry import Telemetry

        single = Telemetry()
        window = Telemetry()
        conditions = crashing_conditions(fault_model)
        with pytest.raises(MachineCheckError):
            FaultInjector(
                fault_model, np.random.default_rng(5), telemetry=single
            ).maybe_fault_value(conditions, 7)
        with pytest.raises(MachineCheckError):
            FaultInjector(
                fault_model, np.random.default_rng(5), telemetry=window
            ).run_window(conditions, 1)
        names = lambda t: [e.name for e in t.tracer.events]  # noqa: E731
        assert names(single) == names(window) == ["fault.crash"]


class TestDecisionMemo:
    def test_set_temperature_invalidates_decision(self, fault_model):
        # A hotter die lowers the critical voltage at 2 GHz, so a point one
        # sigma below the reference critical voltage stops crashing.
        vcrit = fault_model.critical_voltage(2.0)
        conditions = OperatingConditions(
            frequency_ghz=2.0, voltage_volts=vcrit - 0.011, offset_mv=-999
        )
        injector = FaultInjector(fault_model, np.random.default_rng(7))
        with pytest.raises(MachineCheckError):
            injector.maybe_fault_value(conditions, 0)
        fault_model.set_temperature(95.0)
        assert not fault_model.is_crash(2.0, conditions.voltage_volts)
        injector.maybe_fault_value(conditions, 0)
        assert not injector.run_window(conditions, 1000).crashed
        fault_model.set_temperature(None)
        with pytest.raises(MachineCheckError):
            injector.run_window(conditions, 1000)

    def test_crash_precedes_unknown_instruction_in_window(self, injector, fault_model):
        with pytest.raises(MachineCheckError):
            injector.run_window(crashing_conditions(fault_model), 10, instruction="fsqrt")

    def test_crash_precedes_unknown_instruction_in_single_op(self, injector, fault_model):
        with pytest.raises(MachineCheckError):
            injector.maybe_fault_value(crashing_conditions(fault_model), 7, instruction="fsqrt")

    def test_suppressed_crash_still_checks_instruction(self, injector, fault_model):
        with pytest.raises(ConfigurationError):
            injector.run_window(
                crashing_conditions(fault_model), 10, instruction="fsqrt",
                raise_on_crash=False,
            )

    def test_unknown_instruction_after_a_memoised_decision(self, injector, fault_model):
        conditions = faulting_conditions(fault_model)
        injector.run_window(conditions, 10)
        with pytest.raises(ConfigurationError):
            injector.run_window(conditions, 10, instruction="fsqrt")
        with pytest.raises(ConfigurationError):
            injector.maybe_fault_value(conditions, 7, instruction="fsqrt")
