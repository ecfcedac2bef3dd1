"""Seeded generation: determinism and bound enforcement."""

import pytest

from treeradon import GenerationError, SuiteConfig, gen_tree


def test_complete_mode_reaches_min_valency():
    cfg = SuiteConfig(seed=1, max_vertices=6)
    tree = gen_tree(cfg, "complete")
    assert tree.geodesically_complete
    assert all(k >= 3 for k in tree.valency_profile.values())


def test_same_seed_same_tree():
    cfg = SuiteConfig(seed=1, max_vertices=6)
    assert gen_tree(cfg, "complete").describe() == gen_tree(cfg, "complete").describe()


def test_different_seeds_differ_somewhere():
    descriptions = {
        str(gen_tree(SuiteConfig(seed=s, max_vertices=9), "complete").describe())
        for s in range(8)
    }
    assert len(descriptions) > 1


def test_valency_bound_two_in_complete_mode_errors():
    cfg = SuiteConfig(seed=1, max_valency=2, min_valency=1)
    with pytest.raises(GenerationError, match="valency"):
        gen_tree(cfg, "complete")


def test_valency_bound_one_stops_at_one_edge():
    # after the first edge both vertices are full, so no later vertex has a
    # parent to hang from and the tree stays a single segment
    for seed in range(4):
        tree = gen_tree(SuiteConfig(seed=seed, max_vertices=9, min_valency=1, max_valency=1),
                        "finite")
        assert len(tree.vertices) == 2 and len(tree.edges) == 1


def test_finite_mode_has_no_rays():
    cfg = SuiteConfig(seed=3, max_vertices=9)
    tree = gen_tree(cfg, "finite")
    assert all(not e.is_ray for e in tree.edges)
    assert all(k != 2 for k in tree.valency_profile.values())


def test_finite_mode_needs_two_vertices():
    with pytest.raises(GenerationError):
        gen_tree(SuiteConfig(seed=1, max_vertices=1), "finite")


def test_unknown_mode():
    with pytest.raises(GenerationError):
        gen_tree(SuiteConfig(seed=1), "bogus")


def test_config_validation():
    with pytest.raises(GenerationError):
        SuiteConfig(max_denominator=1)
    with pytest.raises(GenerationError):
        SuiteConfig(max_vertices=0)
    with pytest.raises(GenerationError):
        SuiteConfig(min_valency=4, max_valency=3)


def test_valencies_respect_upper_bound():
    cfg = SuiteConfig(seed=11, max_vertices=14, max_valency=4)
    for seed in range(6):
        tree = gen_tree(SuiteConfig(seed=seed, max_vertices=14, max_valency=4), "complete")
        assert all(k <= 4 for k in tree.valency_profile.values())


def test_negative_trials_refused():
    assert SuiteConfig(trials=0).trials == 0
    with pytest.raises(GenerationError, match="^trials must be nonnegative$"):
        SuiteConfig(trials=-1)
