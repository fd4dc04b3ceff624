"""Cost optimizer: find the cheapest way to hit a target throughput.

Sweeps candidate fleets across providers, regions and sizes for a given
model, prices each with the metered cost model (VM + egress + data) and
ranks the setups that meet the target by dollars per million samples —
the decision the paper's "lessons learned" are meant to support.
"""

from repro.core import cost_per_million_samples, cost_report, evaluate_setup
from repro.experiments import build_run_config, get_spec
from repro.hivemind import run_hivemind

TARGET_SPS = 200.0
MODEL = "conv"

CANDIDATES = [
    "A-4", "A-6", "A-8",        # GC us-central, cheap spot T4s
    "B-8",                      # split across the Atlantic
    "C-8",                      # four continents (worst case)
    "D-2", "D-3",               # multi-cloud in one region
    "A10-4", "A10-8",           # LambdaLabs A10 (no egress fees)
]


def main() -> None:
    print(f"target: >= {TARGET_SPS:.0f} SPS on {MODEL}\n")
    rows = []
    for key in CANDIDATES:
        config = build_run_config(key, MODEL, epochs=3)
        result = run_hivemind(config)
        report = cost_report(result)
        rows.append({
            "key": key,
            "gpus": get_spec(key).total_gpus,
            "sps": result.throughput_sps,
            "granularity": result.granularity,
            "usd_h": report.hourly_total,
            "usd_1m": report.usd_per_million_samples,
            "meets": result.throughput_sps >= TARGET_SPS,
        })

    rows.sort(key=lambda r: r["usd_1m"])
    print(f"{'setup':>7} {'gpus':>4} {'SPS':>8} {'gran':>6} "
          f"{'$/h':>7} {'$/1M':>7}  target?")
    for row in rows:
        marker = "yes" if row["meets"] else "no"
        print(f"{row['key']:>7} {row['gpus']:>4} {row['sps']:>8.1f} "
              f"{row['granularity']:>6.2f} {row['usd_h']:>7.2f} "
              f"{row['usd_1m']:>7.2f}  {marker}")

    winners = [r for r in rows if r["meets"]]
    if winners:
        best = winners[0]
        print(f"\ncheapest setup meeting the target: {best['key']} "
              f"at ${best['usd_1m']:.2f}/1M samples")

    # Sanity-check the winner with the planner before renting anything.
    spec = get_spec(winners[0]["key"]) if winners else get_spec("A-8")
    peers = [(p.site, p.gpu) for p in spec.peers()]
    advice = evaluate_setup(MODEL, peers, spec.topology())
    print("\nplanner notes for the winner:")
    for note in advice.notes:
        print(f"  - {note}")

    print("\nreference points (centralized):")
    for name, sps, usd_h in (("DGX-2 (spot)", 413.0, 6.30),
                             ("1xT4 (spot)", 80.0, 0.18)):
        print(f"  {name}: {sps:.0f} SPS, "
              f"${cost_per_million_samples(sps, usd_h):.2f}/1M")


if __name__ == "__main__":
    main()
