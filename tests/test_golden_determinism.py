"""Golden test: PR 2's kernel optimisations changed no simulated result.

The incremental rebalancing / timer-coalescing / caching work in the
fabric and engine is required to be *behaviour-preserving*: an
identically-seeded run must produce byte-identical results before and
after.  These goldens were captured from the pre-optimisation kernel
(the commit before the incremental ``_assign_rates`` landed) and are
asserted exactly — rounded report rows with ``==``, full-precision
floats via ``repr`` so even a 1-ulp drift fails.

If one of these assertions trips, the optimisation broke equivalence;
do not update the goldens without first understanding which change in
the fabric/engine altered the event or arithmetic sequence.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cloud import InterruptionModel
from repro.controlplane import get_policy
from repro.experiments import (
    ExperimentSpec,
    adaptive_market,
    chaos_schedule_for,
    generate,
    run_experiment,
    standby_peers_for,
)
from repro.hivemind import HivemindRunConfig, run_hivemind
from repro.telemetry import Telemetry, to_chrome_trace, use_telemetry

# --- Figure 2: single-site penalty study (A10-2), epochs=3 -------------

FIG02_ROWS = [
    {"model": "ResNet18", "baseline": 1.0,
     "local/baseline": 0.75, "global/local": 0.79},
    {"model": "ResNet50", "baseline": 1.0,
     "local/baseline": 0.76, "global/local": 0.88},
    {"model": "ResNet152", "baseline": 1.0,
     "local/baseline": 0.78, "global/local": 0.94},
    {"model": "WideResNet101_2", "baseline": 1.0,
     "local/baseline": 0.7, "global/local": 0.92},
    {"model": "ConvNextLarge", "baseline": 1.0,
     "local/baseline": 0.48, "global/local": 0.96},
    {"model": "RoBERTaBase", "baseline": 1.0,
     "local/baseline": 0.6, "global/local": 0.87},
    {"model": "RoBERTaLarge", "baseline": 1.0,
     "local/baseline": 0.62, "global/local": 0.86},
    {"model": "RoBERTaXLM", "baseline": 1.0,
     "local/baseline": 0.64, "global/local": 0.81},
]

# --- Figure 8: transatlantic scaling (B series), epochs=3 --------------

FIG08_ROWS = [
    {"task": "CV", "experiment": "A-1", "sps": 80.0,
     "speedup": 1.0, "granularity": None},
    {"task": "CV", "experiment": "B-2", "sps": 73.2,
     "speedup": 0.92, "granularity": 20.59},
    {"task": "CV", "experiment": "B-4", "sps": 141.9,
     "speedup": 1.77, "granularity": 12.25},
    {"task": "CV", "experiment": "B-6", "sps": 206.3,
     "speedup": 2.58, "granularity": 8.72},
    {"task": "CV", "experiment": "B-8", "sps": 266.7,
     "speedup": 3.33, "granularity": 6.77},
    {"task": "NLP", "experiment": "A-1", "sps": 209.0,
     "speedup": 1.0, "granularity": None},
    {"task": "NLP", "experiment": "B-2", "sps": 190.6,
     "speedup": 0.91, "granularity": 2.48},
    {"task": "NLP", "experiment": "B-4", "sps": 323.1,
     "speedup": 1.55, "granularity": 1.53},
    {"task": "NLP", "experiment": "B-6", "sps": 419.8,
     "speedup": 2.01, "granularity": 1.11},
    {"task": "NLP", "experiment": "B-8", "sps": 493.3,
     "speedup": 2.36, "granularity": 0.87},
]

# --- Full-precision run invariants, epochs=4 ---------------------------
# (experiment, model) -> (repr(throughput_sps), epoch count,
#                         repr(total egress bytes), [repr(epoch wall_s)])

RUN_GOLDENS = {
    ("B-8", "conv"): (
        "266.9382059108179",
        4,
        "22153662464.0",
        ["122.4185424908425", "122.41854249084246",
         "122.41854249084255", "122.41854249084258"],
    ),
    ("A10-2", "conv"): (
        "170.32736830880268",
        4,
        "3164810240.0",
        ["192.3822954135954", "192.3822954135955",
         "192.38229541359544", "192.38229541359544"],
    ),
    ("A10-2", "rbase"): (
        "626.2302138332467",
        4,
        "1995210240.0",
        ["52.32562929292928", "52.32562929292929",
         "52.32562929292931", "52.32562929292931"],
    ),
}


def test_fig02_report_unchanged():
    report = generate("fig02", epochs=3)
    assert report.rows == FIG02_ROWS


def test_fig08_report_unchanged():
    report = generate("fig08", epochs=3)
    assert report.rows == FIG08_ROWS


def test_run_results_bitwise_unchanged():
    for (exp, model), (throughput, n_epochs, total_bytes,
                       epoch_walls) in RUN_GOLDENS.items():
        result = run_experiment(exp, model, epochs=4)
        label = f"{exp}:{model}"
        assert repr(result.throughput_sps) == throughput, label
        assert len(result.run.epochs) == n_epochs, label
        observed_bytes = sum(result.run.egress_bytes_by_class.values())
        assert repr(observed_bytes) == total_bytes, label
        observed_walls = [repr(e.wall_s) for e in result.run.epochs]
        assert observed_walls == epoch_walls, label


# --- A 32-peer two-region fan-out, epochs=2 -----------------------------
# Each averaging stage opens g(g-1) flows inside a 16-peer region group
# at one instant, so this pins the fabric's admission and completion
# ordering at a fan-out width the paper setups above never reach.

FANOUT_SPEC = ExperimentSpec(
    key="fanout-32", description="16x US + 16x EU T4",
    groups=(("gc:us", 16, "t4"), ("gc:eu", 16, "t4")),
)

# The throughput was re-captured (...433 -> ...428) when DHT RPCs became
# fixed-delay messages instead of fabric flows.
FANOUT_GOLDEN = {
    "throughput": "663.8379034813428",
    "peak_active_flows": 480,
    "epochs": [
        ("26.66666666666666", "5.0", "12.447304395604384"),
        ("26.666666666666664", "5.0", "12.447304395604405"),
    ],
    "total_bytes": "49054643712.0",
}


def test_wide_fanout_run_bitwise_unchanged():
    run = run_hivemind(HivemindRunConfig(
        model="conv", peers=FANOUT_SPEC.peers(),
        topology=FANOUT_SPEC.topology(), target_batch_size=32768,
        epochs=2, seed=1, monitor_interval_s=None,
        account_data_loading=True,
    ))
    assert repr(run.throughput_sps) == FANOUT_GOLDEN["throughput"]
    assert run.peak_active_flows == FANOUT_GOLDEN["peak_active_flows"]
    assert [
        (repr(e.calc_s), repr(e.matchmaking_s), repr(e.transfer_s))
        for e in run.epochs
    ] == FANOUT_GOLDEN["epochs"]
    assert repr(sum(run.egress_bytes_by_class.values())) == \
        FANOUT_GOLDEN["total_bytes"]


def test_repeat_runs_are_deterministic():
    # Identically-seeded back-to-back runs must agree with themselves,
    # not just with history — guards nondeterministic iteration order
    # sneaking into the incremental kernel.
    first = run_experiment("B-8", "conv", epochs=3)
    second = run_experiment("B-8", "conv", epochs=3)
    assert repr(first.throughput_sps) == repr(second.throughput_sps)
    assert [repr(e.wall_s) for e in first.run.epochs] == \
        [repr(e.wall_s) for e in second.run.epochs]
    assert first.run.peak_active_flows == second.run.peak_active_flows


# --- Spot, chaos and control-plane paths, epochs=16 ---------------------
# Crash rejoin with state sync, controller migration, and a spot fleet
# without faults: the roster paths the clean goldens above never reach.

# Timed-out DHT RPCs cancel their messages instead of aborting fabric
# flows, so only averaging and sync aborts count (5 -> 2 when RPCs
# became messages).
CHAOS_GOLDEN = {
    "throughput": "236.8799072645424",
    "state_syncs": 12,
    "rounds_retried": 1,
    "transfers_aborted": 2,
}

ADAPTIVE_GOLDEN = {
    "throughput": "142.44256684153584",
    "decisions": [
        ("225.1860190028844", 0, "migrate", "aws:us-west/0",
         "gc:us-west/2", None, "applied"),
        ("491.57703566955115", 1, "migrate", "aws:us-west/1",
         "gc:us-west/3", None, "applied"),
    ],
    "uptime": {
        "gc:us-west/0": [("0.0", "3680.697502336213")],
        "gc:us-west/1": [("0.0", "3680.697502336213")],
        "aws:us-west/0": [("0.0", "225.1860190028844")],
        "aws:us-west/1": [("0.0", "491.57703566955115")],
        "gc:us-west/2": [("225.1860190028844", "3680.697502336213")],
        "gc:us-west/3": [("491.57703566955115", "3680.697502336213")],
    },
}

INTERRUPTION_GOLDEN = {"throughput": "267.4880749863576", "state_syncs": 0}


def _chaos_run(epochs=16):
    schedule = chaos_schedule_for("B-8", seed=2, intensity=4,
                                  horizon_s=1800)
    return run_experiment("B-8", "conv", epochs=epochs,
                          fault_schedule=schedule).run


def test_chaos_run_unchanged():
    run = _chaos_run()
    assert repr(run.throughput_sps) == CHAOS_GOLDEN["throughput"]
    assert run.state_syncs == CHAOS_GOLDEN["state_syncs"]
    assert run.rounds_retried == CHAOS_GOLDEN["rounds_retried"]
    assert run.transfers_aborted == CHAOS_GOLDEN["transfers_aborted"]


def test_adaptive_run_unchanged():
    run = run_experiment(
        "D-2", "conv", epochs=16, policy=get_policy("adaptive"),
        price_models=adaptive_market("D-2"),
        standby_peers=standby_peers_for("D-2"),
    ).run
    assert repr(run.throughput_sps) == ADAPTIVE_GOLDEN["throughput"]
    assert [
        (repr(d.time_s), d.epoch, d.kind, d.site, d.target, d.tbs,
         d.outcome)
        for d in run.decisions
    ] == ADAPTIVE_GOLDEN["decisions"]
    assert {
        site: [(repr(start), repr(end)) for start, end in intervals]
        for site, intervals in run.uptime_intervals_by_site.items()
    } == ADAPTIVE_GOLDEN["uptime"]


def test_spot_interruption_run_unchanged():
    run = run_experiment(
        "B-8", "conv", epochs=16,
        interruption_model=InterruptionModel(monthly_rate=0.9),
    ).run
    assert repr(run.throughput_sps) == INTERRUPTION_GOLDEN["throughput"]
    assert run.state_syncs == INTERRUPTION_GOLDEN["state_syncs"]


_CHAOS_PROBE = """
from repro.experiments import chaos_schedule_for, run_experiment
schedule = chaos_schedule_for("B-8", seed=2, intensity=4, horizon_s=1800)
run = run_experiment("B-8", "conv", epochs=16, fault_schedule=schedule).run
print(repr(run.throughput_sps), run.state_syncs,
      [repr(e.wall_s) for e in run.epochs])
"""


def test_chaos_run_ignores_string_hash_seed():
    """Set iteration order over site names must never reach results:
    the same chaos run under two PYTHONHASHSEED values is identical."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", _CHAOS_PROBE], env=env,
            capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]


# --- Traced chaos runs, epochs=16 ----------------------------------------
# Flows that finish in the same instant complete in admission order, so
# a traced fault-injected run is one byte stream whatever the memory
# layout or string-hash seed: sha256 prefix of its sorted Chrome trace.

TRACE_GOLDENS = {1: "61391e10731e34ea", 2: "a464f06322c1954b"}

_TRACE_PROBE = """
import sys
from tests.test_golden_determinism import _chaos_trace_digest
for seed in sys.argv[1:]:
    print(seed, _chaos_trace_digest(int(seed)))
"""


def _chaos_trace_digest(seed):
    tel = Telemetry()
    with use_telemetry(tel):
        run_experiment("B-8", "conv", epochs=16,
                       fault_schedule=chaos_schedule_for(
                           "B-8", seed=seed, intensity=4, horizon_s=1800))
    text = json.dumps(to_chrome_trace(tel), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_chaos_traces_unchanged():
    for seed, digest in TRACE_GOLDENS.items():
        assert _chaos_trace_digest(seed) == digest, seed


def test_chaos_traces_ignore_string_hash_seed():
    """Same-instant completions must not follow memory addresses or
    string hashes: the traced chaos runs are identical, and equal to
    their goldens, in fresh interpreters under two PYTHONHASHSEEDs."""
    root = Path(__file__).resolve().parents[1]
    seeds = [str(seed) for seed in TRACE_GOLDENS]
    expected = "".join(f"{seed} {digest}\n"
                       for seed, digest in TRACE_GOLDENS.items())
    for hash_seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), str(root),
                          env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", _TRACE_PROBE, *seeds], env=env,
            capture_output=True, text=True, check=True, timeout=300,
        )
        assert completed.stdout == expected, hash_seed
