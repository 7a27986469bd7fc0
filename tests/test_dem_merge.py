"""The array merge kernel of DEM extraction against the per-object fold.

``DetectorErrorModel.merged`` and ``extract_dem`` share one kernel that
groups identical ``(detectors, observables)`` rows with a stable lexsort
and folds their probabilities by occurrence rank.  Each case here is
held to ``oracles.merge_mechanisms``, which folds one mechanism object
at a time in list order: merged probabilities must be equal as floats,
and mechanisms must come in the same (tuple) order.
"""

import numpy as np
import pytest
from oracles import merge_mechanisms

from repro.noise.dem import DetectorErrorModel, ErrorMechanism


def model(mechanisms, detectors=8, observables=2, fallback=None):
    return DetectorErrorModel(
        list(mechanisms), detectors, observables, periodic_fallback=fallback
    )


def assert_merges_like_oracle(dem):
    merged = dem.merged()
    expected = merge_mechanisms(dem.mechanisms)
    assert merged.mechanisms == expected
    # Equal floats bit for bit, and Python scalars throughout.
    assert [m.probability.hex() for m in merged.mechanisms] == [
        m.probability.hex() for m in expected
    ]
    for mech in merged.mechanisms:
        assert type(mech.probability) is float
        assert all(type(i) is int for i in mech.detectors + mech.observables)
    assert (merged.num_detectors, merged.num_observables) == (
        dem.num_detectors, dem.num_observables,
    )
    return merged


def test_duplicates_scattered_through_the_order_fold_in_order():
    rng = np.random.default_rng(5)
    symptoms = [((0, 3), ()), ((1,), (0,)), ((2, 4, 5), ()), ((), (1,))]
    picks = rng.integers(0, len(symptoms), 200)
    probabilities = rng.uniform(1e-4, 0.3, 200)
    dem = model(
        ErrorMechanism(float(p), *symptoms[k]) for k, p in zip(picks, probabilities)
    )
    merged = assert_merges_like_oracle(dem)
    assert len(merged.mechanisms) == len(symptoms)


def test_fold_order_changes_the_float_and_the_kernel_follows_it():
    # XOR convolution is not associative in floating point: the kernel
    # must fold in list order, not in any sorted order.
    probabilities = [0.1, 0.3, 0.7e-3, 0.2, 0.45, 1e-5, 0.33]
    rng = np.random.default_rng(2)
    for _ in range(20):
        order = rng.permutation(len(probabilities))
        assert_merges_like_oracle(
            model(ErrorMechanism(probabilities[i], (1,), ()) for i in order)
        )


def test_zero_probability_and_symptomless_rows():
    dem = model([
        ErrorMechanism(0.0, (1,), ()),
        ErrorMechanism(0.2, (), ()),
        ErrorMechanism(0.0, (2,), (0,)),
        ErrorMechanism(0.1, (2,), (0,)),
        ErrorMechanism(0.0, (), ()),
        ErrorMechanism(0.0, (3,), ()),
        ErrorMechanism(0.05, (3,), ()),
    ])
    merged = assert_merges_like_oracle(dem)
    # The zero-probability (1,) group is dropped; the symptomless source
    # is kept, as the per-object fold keeps it.
    assert [m.detectors for m in merged.mechanisms] == [(), (2,), (3,)]


def test_observable_only_rows():
    dem = model([
        ErrorMechanism(0.1, (), (1,)),
        ErrorMechanism(0.2, (), (0,)),
        ErrorMechanism(0.3, (), (0, 1)),
        ErrorMechanism(0.4, (), (0,)),
        ErrorMechanism(0.05, (0,), (0,)),
    ])
    merged = assert_merges_like_oracle(dem)
    assert [m.observables for m in merged.mechanisms][:3] == [(0,), (0, 1), (1,)]


def test_prefix_detector_tuples_sort_first():
    dem = model([
        ErrorMechanism(0.1, (1, 2, 3), ()),
        ErrorMechanism(0.2, (1, 2), (0,)),
        ErrorMechanism(0.3, (1, 2), ()),
        ErrorMechanism(0.4, (1,), (1,)),
        ErrorMechanism(0.5, (0, 7), ()),
        ErrorMechanism(0.15, (1, 2, 3), ()),
        ErrorMechanism(0.25, (1, 3), ()),
    ])
    merged = assert_merges_like_oracle(dem)
    assert [(m.detectors, m.observables) for m in merged.mechanisms] == [
        ((0, 7), ()), ((1,), (1,)), ((1, 2), ()), ((1, 2), (0,)),
        ((1, 2, 3), ()), ((1, 3), ()),
    ]


def test_empty_model():
    merged = assert_merges_like_oracle(model([], 0, 0, fallback="no_period"))
    assert merged.mechanisms == []
    assert merged.periodic_fallback == "no_period"


def test_reweighted_then_merged():
    rng = np.random.default_rng(9)
    mechanisms = [
        ErrorMechanism(
            float(rng.uniform(0, 0.2)),
            tuple(sorted(rng.choice(8, rng.integers(0, 4), replace=False).tolist())),
            tuple(sorted(rng.choice(2, rng.integers(0, 2), replace=False).tolist())),
        )
        for _ in range(300)
    ]
    dem = model(mechanisms, fallback="few_reps").reweighted(3.0)
    assert dem.periodic_fallback == "few_reps"
    merged = assert_merges_like_oracle(dem)
    assert merged.periodic_fallback == "few_reps"


@pytest.mark.parametrize("seed", range(5))
def test_random_models(seed):
    rng = np.random.default_rng(100 + seed)
    mechanisms = []
    for _ in range(rng.integers(1, 400)):
        dets = rng.choice(6, rng.integers(0, 4), replace=False).tolist()
        obs = rng.choice(3, rng.integers(0, 3), replace=False).tolist()
        if rng.random() < 0.8:  # hand-built tuples need not be sorted
            dets.sort()
            obs.sort()
        p = 0.0 if rng.random() < 0.1 else float(rng.uniform(0, 0.5))
        mechanisms.append(ErrorMechanism(p, tuple(dets), tuple(obs)))
    assert_merges_like_oracle(model(mechanisms, 6, 3))
