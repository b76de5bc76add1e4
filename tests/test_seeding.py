from loadshift.seeding import derive_seed


def test_same_inputs_same_seed():
    assert derive_seed(42, "pso", 0) == derive_seed(42, "pso", 0)


def test_distinct_labels_distinct_seeds():
    seeds = {
        derive_seed(42, "pso"),
        derive_seed(42, "de"),
        derive_seed(42, "sweep", 0),
        derive_seed(42, "sweep", 1),
        derive_seed(43, "pso"),
    }
    assert len(seeds) == 5


def test_seed_fits_64_bits():
    for master in (0, 1, 2**63, 2**64 - 1):
        seed = derive_seed(master, "label", 7)
        assert 0 <= seed < 2**64

