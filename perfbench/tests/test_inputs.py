from perfbench.inputs import SIZE_JITTER, WORKLOADS, subject_sizes


def test_seed_zero_is_the_base_sizes():
    for name, workload in WORKLOADS.items():
        assert subject_sizes(name, 0) == workload.sizes


def test_a_seed_always_gives_the_same_sizes():
    for name in WORKLOADS:
        for seed in (1, 7, 123456):
            assert subject_sizes(name, seed) == subject_sizes(name, seed)


def test_sizes_stay_within_the_jitter():
    for name, workload in WORKLOADS.items():
        for seed in range(1, 50):
            for subject, size in subject_sizes(name, seed).items():
                base = workload.sizes[subject]
                assert size >= 1
                assert abs(size - base) <= SIZE_JITTER * base + 0.5


def test_seeds_vary_the_inputs():
    sizes = {tuple(sorted(subject_sizes("batch-lossy", seed).items())) for seed in range(1, 20)}
    assert len(sizes) > 10
