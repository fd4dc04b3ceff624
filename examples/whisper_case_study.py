"""The ASR case study (Section 11), end to end.

Replays the paper's Whisper narrative: start from the model's original
minibatch size of 256, discover that the granularity is far too small
for distributed spot training on T4s, grow the target batch size until
the 8xT4 fleet actually beats a single GPU, then compare the economics
against the A100 and the 4xT4 DDP node — and let the planner say the
same thing in words.
"""

from repro.core import evaluate_setup
from repro.experiments import centralized_baseline, run_experiment
from repro.network import build_topology


def main() -> None:
    print("=== WhisperSmall on 8 spot T4 VMs (Section 11) ===\n")
    baseline = centralized_baseline("1xT4", "whisper-small")
    print(f"single T4 baseline: {baseline.throughput_sps:.1f} SPS\n")

    print(f"{'TBS':>6} {'8xT4 SPS':>9} {'speedup':>8} {'granularity':>12}")
    for tbs in (256, 512, 1024):
        result = run_experiment("A-8", "whisper-small",
                                target_batch_size=tbs, epochs=4)
        print(f"{tbs:>6} {result.throughput_sps:>9.1f} "
              f"{result.speedup:>8.2f} {result.granularity:>12.2f}")
    print("\npaper: no benefit at 256; 1.27x at 512; 2.2x at 1024 "
          "(28 SPS, granularity 1.17)\n")

    counts = {"gc:us": 8}
    peers = [(f"gc:us/{i}", "t4") for i in range(8)]
    advice = evaluate_setup("whisper-small", peers, build_topology(counts),
                            target_batch_size=1024)
    for note in advice.notes:
        print(f"  - {note}")

    print("\n=== economics at TBS 1024 ===")
    from repro.core import cost_per_million_samples, cost_report

    for name in ("A100", "4xT4-DDP"):
        row = centralized_baseline(name, "whisper-small")
        print(f"{row.key:>9}: {row.throughput_sps:5.1f} SPS at "
              f"${row.usd_per_million_samples:6.2f} per 1M samples")
    ours = run_experiment("A-8", "whisper-small", target_batch_size=1024,
                          epochs=4)
    report = cost_report(ours.run)
    vm_only = cost_per_million_samples(ours.throughput_sps,
                                       report.hourly_vm)
    print(f"{'A-8':>9}: {ours.throughput_sps:5.1f} SPS at "
          f"${vm_only:6.2f} per 1M samples (VM cost, the paper's "
          f"accounting; ${ours.usd_per_million_samples:.2f} with every "
          "metered byte billed)")
    print("\npaper's verdict: the A100 is fastest, the DDP node cheapest; "
          "the spot fleet's edge is resilience and elasticity, not price.")


if __name__ == "__main__":
    main()
