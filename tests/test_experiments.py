"""The paper's central claim as a gate: under noisy correspondence, swapped
soft targets with dynamic partitions beat the InfoNCE baseline."""

from psdlab.experiments import noise_experiment_config, run_matrix


def test_swapped_dynamic_beats_baseline_on_noise_preset():
    # The preset unchanged (30 epochs): shorter runs shrink the margin toward
    # noise, e.g. to 2.25 points at 15 epochs and to a loss at 10 on this seed.
    outcomes = run_matrix(noise_experiment_config(), [0],
                          variants=["baseline", "swapped_dynamic"])
    baseline = outcomes["baseline"][0].t2i_recall[1]
    swapped = outcomes["swapped_dynamic"][0].t2i_recall[1]
    assert swapped > baseline, (swapped, baseline)
