"""Properties over random shapes: coprime p/q up to 12 and random angles.

Each example is small (a few generations), so the draws cover many shapes
rather than deep generations of a few.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tilelab.geometry import shape_from_pq, shape_from_theta
from tilelab.stats import count_oracle
from tilelab.substitution import (COLUMNS, build_Tn, census_counts, census_steps,
                                  tiling_from_json, tiling_json_chunks)

_COPRIME = st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
    lambda pq: math.gcd(*pq) == 1)
SHAPES = st.one_of(_COPRIME.map(lambda pq: shape_from_pq(*pq)),
                   st.floats(0.05, 1.52).map(shape_from_theta))


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.integers(0, 5))
def test_census_equals_the_geometric_counts(shape, n):
    counts, min_pair = census_counts(shape, n)
    t = build_Tn(shape, n)
    assert counts == t.exponent_counts()
    # the cut is the least key present, the class the next generation splits
    assert shape.size_key(*min_pair) == min(shape.size_key(i, j)
                                            for i, j in counts)


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.integers(0, 30))
def test_count_oracle_equals_every_census_class(shape, n):
    for gen, counts, min_pair in census_steps(shape, n):
        cut = shape.size_key(*min_pair)
        for ij, want in counts.items():
            assert count_oracle(shape, cut, ij) == want, (gen, ij)


@settings(max_examples=40, deadline=None)
@given(SHAPES, st.integers(0, 4))
def test_tiling_json_round_trips_exactly(shape, n):
    t = build_Tn(shape, n)
    text = "".join(tiling_json_chunks(t))
    back = tiling_from_json(json.loads(text))
    again = "".join(tiling_json_chunks(back))
    # the tiles come back as written; of the shape only theta, c and p/q
    # are read, and the rest is derived again from the 12-digit theta, so
    # the whole text is a fixed point from the second pass on
    def tiles(x):
        return x[x.index('"tiles": ['):]

    assert tiles(again) == tiles(text)
    head, head_again = (json.loads(x)["shape"] for x in (text, again))
    for key in ("theta", "c", "rationality"):
        assert head_again[key] == head[key]
    assert "".join(tiling_json_chunks(tiling_from_json(json.loads(again)))) == again
    assert back.generation == t.generation
    for name, _ in COLUMNS:
        got, want = getattr(back, name), getattr(t, name)
        if want.dtype.kind == "f":
            # floats come back as their 12-digit text, bit for bit
            want = np.array([float(f"{v:.12g}") for v in want.tolist()])
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        else:
            assert got.tolist() == want.tolist()
