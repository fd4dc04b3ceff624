"""Ablation: hierarchical (Moshpit) vs flat all-reduce structure.

The paper's cost analysis reconstructs the averaging pattern: local
groups average first, then exchange aggregates across regions (C-8),
whereas small single-region fleets do flat N-to-N (D experiments).
This ablation runs the intercontinental C-8 payload through both
structures. In the fluid network model the flat butterfly is
time-competitive (every peer opens a stream to every other peer, the
Section 7 multi-stream effect), but the hierarchy sends far fewer bytes
over the expensive intercontinental and Oceania links — which is
exactly why the egress-dominated cost analysis of Figure 11 favours
group-based averaging.
"""

from repro.cloud import PRICING
from repro.hivemind import Contribution, GroupPlan, MoshpitAverager, form_groups
from repro.models import get_model
from repro.network import Fabric, TrafficClass, build_topology, classify_traffic
from repro.network.fabric import sum_traffic
from repro.simulation import Environment


def run_structure(plan_builder):
    counts = {"gc:us": 2, "gc:eu": 2, "gc:asia": 2, "gc:aus": 2}
    topology = build_topology(counts)
    sites = list(topology.sites)
    env = Environment()
    fabric = Fabric(env, topology)
    plan = plan_builder(topology, sites)
    averager = MoshpitAverager(
        env, fabric, plan,
        parameter_count=get_model("conv").parameters,
        stream_caps_bps={site: 0.7e9 for site in sites},
    )
    contributions = [Contribution(site, 4096) for site in sites]
    result = env.run(env.process(averager.run_round(contributions)))
    sites = topology.sites
    by_class = sum_traffic(
        fabric.meter.table,
        lambda key: classify_traffic(sites[key[0]], sites[key[1]]),
    )
    return result, by_class


def hierarchical(topology, sites):
    return form_groups(topology, sites)


def flat(topology, sites):
    return GroupPlan(groups=(tuple(sites),), hub_index=0)


def round_cost_usd(by_class):
    """Price one averaging round's traffic at GC's Table 1 rates."""
    gc = PRICING["gc"]
    price = {
        TrafficClass.INTRA_ZONE: gc.inter_zone_per_gb,
        TrafficClass.INTER_ZONE: gc.inter_zone_per_gb,
        TrafficClass.INTER_REGION: gc.inter_region_per_gb["US"],
        TrafficClass.INTERCONTINENTAL: gc.intercontinental_per_gb,
        TrafficClass.TO_OCEANIA: gc.any_oce_per_gb,
    }
    return sum(nbytes / 1e9 * price[klass]
               for klass, nbytes in by_class.items())


def test_ablation_allreduce_structure(benchmark):
    results = benchmark.pedantic(
        lambda: {"hierarchical": run_structure(hierarchical),
                 "flat": run_structure(flat)},
        rounds=1, iterations=1,
    )
    hier, hier_bytes = results["hierarchical"]
    flat_, flat_bytes = results["flat"]
    hier_cost = round_cost_usd(hier_bytes)
    flat_cost = round_cost_usd(flat_bytes)
    print()
    for name, result, by_class, cost in (
        ("hierarchical", hier, hier_bytes, hier_cost),
        ("flat N-to-N ", flat_, flat_bytes, flat_cost),
    ):
        oce_gb = by_class.get(TrafficClass.TO_OCEANIA, 0.0) / 1e9
        print(f"{name}: {result.wall_time_s:.1f}s/round, "
              f"{result.bytes_sent / 1e9:.2f} GB moved, "
              f"{oce_gb:.2f} GB to/from Oceania, ${cost:.3f}/round on GC")

    # Same logical outcome.
    assert hier.total_samples == flat_.total_samples == 8 * 4096
    # The hierarchy sends fewer bytes over the $0.15/GB Oceania links...
    hier_oce = hier_bytes.get(TrafficClass.TO_OCEANIA, 0.0)
    flat_oce = flat_bytes.get(TrafficClass.TO_OCEANIA, 0.0)
    assert hier_oce < 0.8 * flat_oce
    # ...and is cheaper per round under GC pricing.
    assert hier_cost < flat_cost
    # Wall times stay in the same regime (flat recovers bandwidth via
    # many parallel streams, hierarchy via locality): within 3x.
    ratio = hier.wall_time_s / flat_.wall_time_s
    assert 1 / 3 < ratio < 3
