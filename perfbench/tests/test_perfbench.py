"""Self-tests of the benchmark: BENCHMARK.json limits, trace neutrality,
layer attribution and failure accounting."""

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import checks
import perlayer
import workloads
from tracer import Tracer

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = workloads.CAMPAIGN_SEEDS[0]


def run_traced(workload, seed, tracer):
    """One round with ``tracer``'s wrappers installed."""
    tracer.install()
    try:
        return workload.run_round(seed, traced=True)
    finally:
        tracer.uninstall()


def test_benchmark_json_within_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/") for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert workload["name"] in workloads.WORKLOADS
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # The layer map documents exactly the per-layer metrics the run prints.
    layer_map = json.loads(perlayer.LAYERS_PATH.read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (row["name"], row["unit"], row["better"]) for row in layer_map
    ]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_pool_seed_has_committed_digests():
    digests = checks.load_digests()
    for seed in {workloads.CAMPAIGN_WARMUP_SEED, *workloads.CAMPAIGN_SEEDS, *workloads.FLEET_SEEDS}:
        assert len(digests["campaign"][str(seed)]) == 20
    for seed in (workloads.EXPLORE_WARMUP_SEED,) + workloads.EXPLORE_SEEDS:
        assert len(digests["explore"][str(seed)]) == 64


def test_tracing_leaves_campaign_outputs_identical(tmp_path):
    workload = workloads.CampaignWorkload(tmp_path)
    workload.setup(traced=True)
    try:
        untraced = workload.run_round(SEED)
        tracer = Tracer()
        traced = run_traced(workload, SEED, tracer)
    finally:
        workload.close()
    assert untraced.problems == [] and traced.problems == []
    assert traced.counters["faults.windows"] == untraced.counters["faults.windows"]
    assert tracer.completed(), "the traced round recorded no spans"


def test_changed_output_fails_the_check(tmp_path):
    workload = workloads.CampaignWorkload(tmp_path)
    workload.setup()
    try:
        cells = workload.digests[str(SEED)]
        cells["Sky Lake/imul/open"] = "0" * 64
        result = workload.run_round(SEED)
    finally:
        workload.close()
    assert result.problems == [f"seed {SEED} Sky Lake/imul/open: digest mismatch"]
    assert result.failed == 1


def test_tracing_leaves_explore_map_identical(tmp_path):
    workload = workloads.ExploreWorkload(tmp_path)
    seed = workloads.EXPLORE_WARMUP_SEED  # the 128-bit warm-up map: fast
    untraced = workload.run_round(seed)
    tracer = Tracer()
    try:
        traced = run_traced(workload, seed, tracer)
    finally:
        workload.close()
    assert untraced.problems == [] and traced.problems == []
    assert {span[0] for span in tracer.completed()} >= {"replay_with_fault", "RSAKey.generate"}


def traced_round_values(workdir, delays):
    """Per-layer values of one traced campaign round in a fresh workload."""
    workload = workloads.CampaignWorkload(workdir)
    workload.setup(traced=True)
    tracer = Tracer(delays=delays)
    try:
        result = run_traced(workload, SEED, tracer)
    finally:
        workload.close()
    assert result.problems == []
    values = perlayer.round_metrics(
        tracer.completed(), {}, {"keys": set(), "wire_bytes": 0},
        threading.get_ident(), result.wall_s,
    )
    # Self times never exceed the wall time they partition.
    assert values["bench.unattributed_s"] >= 0
    registry_spans = sum(1 for span in tracer.completed() if span[1] == "registry")
    return values, registry_spans


def test_delay_in_one_layer_moves_only_that_layer(tmp_path):
    # Large enough that run-to-run noise in the other layers stays well
    # below a tenth of what is injected.
    delay = 0.05
    base, _ = traced_round_values(tmp_path / "base", {})
    slowed, spans = traced_round_values(tmp_path / "slowed", {"registry": delay})
    injected = spans * delay
    moved = slowed["registry.self_s"] - base["registry.self_s"]
    assert moved == pytest.approx(injected, rel=0.2)
    for layer in perlayer.SELF_LAYERS:
        if layer != "registry":
            name = f"{layer}.self_s"
            assert abs(slowed[name] - base[name]) < 0.1 * injected, name


def test_unreachable_coordinator_counts_as_failure(tmp_path):
    workload = workloads.FleetWorkload(tmp_path)
    workload.setup()
    try:
        workload.coordinator.stop()
        result = workload.run_round(SEED)
    finally:
        workload.close()
    # Degraded to inline: outputs still match the serial digests, but
    # every batch that fell back counts against the failure ratio.
    assert result.problems == []
    assert result.counters["serve.degraded_batches"] >= 1
    assert result.failed >= result.counters["serve.degraded_batches"]
    assert result.failed / result.attempted > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
