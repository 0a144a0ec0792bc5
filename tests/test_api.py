"""The public API: a sorted, resolvable ``__all__`` without test oracles."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tbmlearn
import tbmlearn.patterns
import tbmlearn.serialize

ORACLE_NAMES = (
    "is_subpattern",
    "pattern_union",
    "support_count",
    "support_counts",
    "empirical_eta",
    "brute_force_domain",
    "closure_by_pattern",
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


@pytest.mark.parametrize("name", ["model_to_dict", "FisherMatrix", "uniform_model"])
def test_removed_names_stay_out_of_the_package(name):
    # A model file's dict is a test oracle, the Fisher matrix is a plain
    # array over ``model.domain``, and a uniform model is GibbsModel(space, (), ()).
    assert not hasattr(tbmlearn, name)


def test_model_to_dict_is_not_in_serialize():
    assert not hasattr(tbmlearn.serialize, "model_to_dict")


def test_import_loads_no_scipy():
    # Fits, mining, the face LP and the RBM import scipy where they first
    # run a sparse product, a LAPACK call, the LP or expit.
    root = Path(tbmlearn.__file__).resolve().parents[1]
    code = (
        "import sys, tbmlearn; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    path = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
