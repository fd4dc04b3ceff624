"""Ablation: uneven compute distribution across regions (Section 4 B).

The paper asks "what happens when the compute is unevenly distributed
across regions?" and concludes the transatlantic penalty is paid once,
independent of the split. This ablation holds the total VM count fixed
and skews the US:EU ratio: throughput stays within a narrow band of the
even split (the group aggregates cross the Atlantic once either way),
and the whole family remains slower than fully-local but faster than
the even split is penalized by.
"""

from repro.experiments.runner import run_experiment


def test_ablation_uneven_split(benchmark):
    keys4 = ("A-4", "B-4", "B-4u3", "B-4u1")
    keys8 = ("A-8", "B-8", "B-8u6", "B-8u7")

    def sweep():
        out = {}
        for model in ("conv", "rxlm"):
            for key in keys4 + keys8:
                out[(model, key)] = run_experiment(
                    key, model, epochs=2, account_data_loading=False,
                    monitor_interval_s=None,
                )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for model in ("conv", "rxlm"):
        line = ", ".join(
            f"{key}: {results[(model, key)].throughput_sps:.1f}"
            for key in keys4 + keys8
        )
        print(f"{model}: {line}")

    for model in ("conv", "rxlm"):
        # All 4-VM transatlantic variants are within a narrow band of
        # the even B-4 split: the penalty is paid once, not per VM.
        even4 = results[(model, "B-4")].throughput_sps
        for key in ("B-4u3", "B-4u1"):
            uneven = results[(model, key)].throughput_sps
            assert abs(uneven - even4) / even4 < 0.25, (model, key)
        # Same for the 8-VM variants.
        even8 = results[(model, "B-8")].throughput_sps
        for key in ("B-8u6", "B-8u7"):
            uneven = results[(model, key)].throughput_sps
            assert abs(uneven - even8) / even8 < 0.25, (model, key)
        # Every transatlantic variant stays below the local baseline.
        for key in ("B-4", "B-4u3", "B-4u1"):
            assert (results[(model, key)].throughput_sps
                    <= results[(model, "A-4")].throughput_sps * 1.02)

    # Uneven splits skew the minority region's exchange onto fewer
    # parallel streams, so the NLP task (big gradients) is hit harder
    # by an extreme 7:1 split than the compute-bound CV task.
    cv_gap = 1 - (results[("conv", "B-8u7")].throughput_sps
                  / results[("conv", "B-8")].throughput_sps)
    nlp_gap = 1 - (results[("rxlm", "B-8u7")].throughput_sps
                   / results[("rxlm", "B-8")].throughput_sps)
    assert nlp_gap >= cv_gap - 0.05
