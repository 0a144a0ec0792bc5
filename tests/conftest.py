import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tbmlearn import TransactionDataset

# Closed-form reference values for the four-outcome running example:
# counts {}: 2, {1}: 3, {2}: 1, {1,2}: 4 give an independence-model MLE.
WORKED_COUNTS = {(): 2, (1,): 3, (2,): 1, (1, 2): 4}
WORKED_PROBS = {(): 0.15, (1,): 0.35, (2,): 0.15, (1, 2): 0.35}
WORKED_THETA1 = float(np.log(7.0 / 3.0))
WORKED_PSI = float(-np.log(0.15))
WORKED_KL = 0.024157256781171421
WORKED_ENTROPY = 1.2798542258336676
WORKED_PHI = -1.3040114826148388


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def worked_dataset() -> TransactionDataset:
    return TransactionDataset(entries=dict(WORKED_COUNTS), n_variables=3)


@pytest.fixture
def worked_dataset01() -> TransactionDataset:
    """Same counts relabeled onto variables {0, 1} so the full cube has 4 cells."""
    return TransactionDataset(
        entries={(): 2, (0,): 3, (1,): 1, (0, 1): 4}, n_variables=2
    )
