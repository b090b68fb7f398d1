"""Every library entry that takes a count refuses a non-integer one with
ArgumentError, and takes numpy integers as ints."""

import numpy as np
import pytest

from tilelab import boundary, classify, stats, substitution
from tilelab.errors import ArgumentError
from tilelab.geometry import shape_from_pq

SHAPE = shape_from_pq(1, 2)

ENTRIES = {
    "iterate": lambda n: boundary.iterate(boundary.til2_rule(), "H", n),
    "check_letter_cap": lambda n: boundary.check_letter_cap(boundary.til2_rule(), "H", n),
    "slippage_til12": boundary.slippage_til12,
    "f_of_n": boundary.f_of_n,
    "til2_slippage_bound": boundary.til2_slippage_bound,
    "til2_offsets": boundary.til2_offsets,
    "til2_identity_check": boundary.til2_identity_check,
    "til13_offsets": boundary.til13_offsets,
    "til13_fluctuation": boundary.til13_fluctuation,
    "build_Tn": lambda n: substitution.build_Tn(SHAPE, n),
    "census_counts": lambda n: substitution.census_counts(SHAPE, n),
    "orientation_census": lambda n: classify.orientation_census(SHAPE, n),
    "matrix_power_counts": lambda n: stats.matrix_power_counts(SHAPE, n),
    "grow_supertile": lambda n: substitution.grow_supertile(SHAPE, [(3, n)]),
    "equidistribution_frequency":
        lambda n: stats.equidistribution_frequency(0.3, 0.1, 0.5, n_samples=n),
}


@pytest.mark.parametrize("count", [2.5, 3.0, True, False, "3", None],
                         ids=["2.5", "3.0", "True", "False", "str", "None"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_count_must_be_an_integer(entry, count):
    with pytest.raises(ArgumentError, match="must be an integer"):
        ENTRIES[entry](count)


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_integer_counts_are_ints(entry):
    got, want = ENTRIES[entry](np.int64(3)), ENTRIES[entry](3)
    if isinstance(want, substitution.SupertileChain):   # a Tiling has no ==
        got, want = ((c.orders, [(len(t), sim) for t, sim in c.levels])
                     for c in (got, want))
    if isinstance(want, (int, float, bool, tuple, dict, str)):
        assert got == want
