"""The import contract: a command loads only the modules it uses.

Package names load on first access (:mod:`repro._exports`), and code
imports at the point of use whatever a caller may not need. Every check
runs in a fresh interpreter, so modules this test process has already
imported cannot hide a regression.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Every package's public names, sorted. A name may move between
#: submodules, but no package may lose or gain one unnoticed.
PUBLIC_NAMES = {
    "repro": """
        HivemindRunConfig PeerSpec __version__ build_topology
        evaluate_setup generate predict render run_experiment run_hivemind
    """.split(),
    "repro.cloud": """
        B2_EGRESS_PER_GB B2_STORAGE_PER_GB_MONTH FleetEvent INSTANCE_TYPES
        InstanceType InterruptionModel PRICING ProviderPricing SpotFleet
        SpotPriceModel VmSlot egress_price_per_gb get_instance_type
        instance_price_per_hour integrate_price_usd
    """.split(),
    "repro.controlplane": """
        Action AdaptivePolicy Controller Decision MigrationPolicy
        Observation POLICIES ScalingPolicy TZ_OFFSET_HOURS TbsPolicy
        default_price_models get_policy policy_names
    """.split(),
    "repro.core": """
        Advice CallFractions CostReport MIN_USEFUL_GRANULARITY Prediction
        VmCost best_speedup_when_doubling call_fractions
        cost_per_million_samples cost_report evaluate_setup granularity
        per_gpu_contribution predict speedup_from_scaling
    """.split(),
    "repro.data": """
        DATASETS DatasetSpec StoreLink get_dataset
    """.split(),
    "repro.experiments": """
        ANCHORS Anchor DEFAULT_ADAPTIVE_SETUPS EXPERIMENTS
        ExperimentResult ExperimentSpec REPORTS Report SweepFailure
        SweepGrid SweepResult ValidationRow adaptive_market
        adaptive_report build_run_config centralized_baseline
        chaos_schedule_for epoch_breakdown generate get_spec render
        render_scorecard report_keys report_to_markdown resilience_report
        run_chaos run_experiment run_sweep run_validation
        standby_peers_for write_markdown_report
    """.split(),
    "repro.faults": """
        ComputeFault CrashFault FAULT_SCHEDULE_SCHEMA FaultInjector
        FaultSchedule FaultTolerance LinkFault PARTITION_FLOOR_BPS
        ZoneOutage generate_schedule
    """.split(),
    "repro.hardware": """
        CALIBRATED_SPS GPUS GpuSpec UnsupportedConfiguration baseline_sps
        get_gpu local_sps supports
    """.split(),
    "repro.hivemind": """
        AveragingResult CODECS Contribution DhtNetwork DhtNode EpochStats
        GroupPlan HivemindRunConfig MIN_MATCHMAKING_S MetricSample
        MonitorSample MoshpitAverager PROGRESS_KEY PeerSpec
        RunResult TrainingMonitor compress compressed_nbytes decompress
        form_groups matchmaking_delay node_id_for run_hivemind
        xor_distance
    """.split(),
    "repro.models": """
        ASR_KEYS CV_KEYS Domain MODELS ModelSpec NLP_KEYS get_model
        models_in_domain square_cube_family synthetic_transformer
    """.split(),
    "repro.network": """
        Fabric Flow GBPS LOCATIONS MBPS Message PATH_OVERRIDES PathSpec
        ProfileResult Site Topology TrafficClass TrafficMeter
        TransferAborted build_topology classify_traffic
        effective_ceiling_bps location_of measure_bandwidth_bps
        measure_rtt_s multi_stream_bps profile_matrix single_stream_bps
        stream_count_for_capacity
    """.split(),
    "repro.orchestrator": """
        BaselineJob CACHE_SCHEMA CacheEntry ExperimentJob
        FINGERPRINT_VERSION Job JobFailure JobOutcome Orchestrator
        RunCache Uncacheable calibration_digest canonical canonical_json
        current_orchestrator default_worker_count execute_job
        fingerprint_key format_failure job_from_wire job_key
        resolve_cache_dir result_from_record result_to_record revive
        run_job run_wire_jobs use_orchestrator
    """.split(),
    "repro.simulation": """
        AllOf AnyOf Environment Event Interrupt Process RandomStreams
        SimulationError Timeout
    """.split(),
    "repro.telemetry": """
        Counter DEFAULT_BUCKETS Gauge Histogram MetricsRegistry
        NULL_TELEMETRY NullTelemetry Span Telemetry Tracer
        chrome_trace_events current_telemetry read_jsonl resolve_telemetry
        to_chrome_trace to_jsonl to_prometheus_text use_telemetry
        validate_chrome_trace write_chrome_trace write_jsonl
        write_prometheus
    """.split(),
    "repro.training": """
        GradientAccumulator LAMB Linear LocalTrainer MLP Module Optimizer
        ReLU SGD Sequential Tensor TrainLog compute_gradient cross_entropy
        make_classification_data
    """.split(),
}


#: What the report, validation and export machinery consists of.
REPORT_MACHINERY = {
    "repro.cli",
    "repro.experiments.figures",
    "repro.experiments.report",
    "repro.experiments.sweeps",
    "repro.experiments.validation",
    "repro.telemetry.export",
}


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run on the in-tree package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _imported(*args: str) -> tuple[int, set[str]]:
    """Exit status and every module ``python -X importtime`` reports
    imported while running ``args``."""
    completed = _python("-X", "importtime", *args)
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }
    assert modules, completed.stderr
    return completed.returncode, modules


def _loaded(code: str) -> set[str]:
    status, modules = _imported("-c", code)
    assert status == 0
    return modules


def test_import_repro_loads_no_subpackage_module_and_no_numpy():
    modules = _loaded("import repro")
    assert "numpy" not in modules
    assert not [name for name in modules if name.count(".") >= 2
                and name.startswith("repro.")]


def test_building_a_run_config_loads_no_report_machinery():
    modules = _loaded(
        "import repro.experiments as e; "
        "e.build_run_config('B-8', 'conv', epochs=2)"
    )
    assert "repro.experiments.configs" in modules
    assert not modules & REPORT_MACHINERY


def test_help_loads_no_numpy_and_no_run_loop():
    status, modules = _imported("-m", "repro", "--help")
    assert status == 0
    assert "repro.cli" in modules
    assert "numpy" not in modules
    assert "repro.hivemind.run" not in modules


def test_analytical_layer_loads_no_numpy():
    modules = _loaded(
        "import repro.core\n"
        "from repro.network import build_topology\n"
        "topology = build_topology({'gc:us': 2, 'gc:eu': 2})\n"
        "peers = [(f'{loc}/{i}', 't4') for loc in ('gc:us', 'gc:eu')"
        " for i in range(2)]\n"
        "repro.core.predict('conv', peers, topology)\n"
        "repro.core.evaluate_setup('conv', peers, topology)"
    )
    assert "repro.core.planner" in modules
    assert "numpy" not in modules
    assert "repro.hivemind.run" not in modules


def test_fabric_transfer_loads_no_numpy():
    modules = _loaded(
        "from repro.network.fabric import Fabric\n"
        "from repro.network import build_topology\n"
        "from repro.simulation import Environment\n"
        "env = Environment()\n"
        "fabric = Fabric(env, build_topology({'gc:us': 1, 'gc:eu': 1}))\n"
        "env.run(fabric.transfer('gc:us/0', 'gc:eu/0', 1e6))"
    )
    assert "repro.network.fabric" in modules
    assert "numpy" not in modules


def test_a_run_loads_no_training_package():
    """Simulated runs model time and bytes; nothing trains a model."""
    modules = _loaded(
        "from repro.hivemind import HivemindRunConfig, PeerSpec, run_hivemind\n"
        "from repro.network import build_topology\n"
        "topology = build_topology({'gc:us': 1, 'gc:eu': 1})\n"
        "peers = [PeerSpec(site, 't4') for site in topology.sites]\n"
        "run_hivemind(HivemindRunConfig('conv', peers, topology, epochs=2))"
    )
    assert "repro.hivemind.run" in modules
    assert "repro.training" not in modules
    assert "repro.hivemind.allreduce" not in modules


def test_granularity_stays_the_function_after_submodule_imports():
    _loaded(
        "import repro.core.planner, repro.controlplane.policy, repro.core\n"
        "assert repro.core.granularity(100.0, 10.0) == 10.0"
    )


_EXPORTS_PROBE = """
import importlib, json, pkgutil
report = {}
for package in %r:
    module = importlib.import_module(package)
    children = [importlib.import_module(info.name) for info in
                pkgutil.iter_modules(module.__path__, package + ".")
                if not info.name.endswith(".__main__")]
    wrong = []
    for name in module.__all__:
        value = getattr(module, name)
        owners = ([child for child in children if name in child.__all__]
                  or [child for child in children if name in vars(child)])
        if name != "__version__" and (not owners or any(
                getattr(child, name) is not value for child in owners)):
            wrong.append(name)
    namespace = {}
    exec(f"from {package} import *", namespace)
    report[package] = {"all": sorted(module.__all__), "wrong": wrong,
                       "star": sorted(set(namespace) - {"__builtins__"}),
                       "dir": sorted(set(module.__all__) - set(dir(module)))}
print(json.dumps(report))
"""


@functools.lru_cache(maxsize=None)
def _exports() -> dict:
    completed = _python("-c", _EXPORTS_PROBE % (sorted(PUBLIC_NAMES),))
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_package_exports_are_unchanged(package):
    exports = _exports()[package]
    assert exports["all"] == PUBLIC_NAMES[package]
    assert exports["wrong"] == []
    assert exports["star"] == PUBLIC_NAMES[package]
    assert exports["dir"] == []
