"""The public API: a sorted, resolvable ``__all__`` without test oracles."""

import pytest

import tbmlearn
import tbmlearn.patterns

ORACLE_NAMES = (
    "is_subpattern",
    "pattern_union",
    "support_count",
    "support_counts",
    "empirical_eta",
    "brute_force_domain",
)


def test_all_is_sorted_unique_and_resolvable():
    names = tbmlearn.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(tbmlearn, name), name


@pytest.mark.parametrize("module", [tbmlearn, tbmlearn.patterns], ids=["tbmlearn", "patterns"])
@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracles_stay_out_of_the_package(module, name):
    assert not hasattr(module, name)
