"""Shared fixtures: the reference shapes and a few prebuilt tilings."""

import pytest

from tilelab.geometry import TriangleShape, shape_from_pq, shape_from_theta
from tilelab.substitution import Tiling, build_Tn


@pytest.fixture(scope="session")
def til12() -> TriangleShape:
    return shape_from_pq(1, 2)


@pytest.fixture(scope="session")
def til2() -> TriangleShape:
    return shape_from_pq(2, 1)


@pytest.fixture(scope="session")
def til13() -> TriangleShape:
    return shape_from_pq(1, 3)


@pytest.fixture(scope="session")
def pinwheel() -> TriangleShape:
    return shape_from_pq(1, 1)


@pytest.fixture(scope="session")
def irr1() -> TriangleShape:
    return shape_from_theta(1.0)


@pytest.fixture(scope="session")
def five_shapes(til12, til2, til13, pinwheel, irr1) -> dict[str, TriangleShape]:
    return {"til12": til12, "til2": til2, "til13": til13,
            "pinwheel": pinwheel, "irr1": irr1}


@pytest.fixture(scope="session")
def til12_T6(til12) -> Tiling:
    return build_Tn(til12, 6)


@pytest.fixture(scope="session")
def til12_T10(til12) -> Tiling:
    return build_Tn(til12, 10)


@pytest.fixture(scope="session")
def supertile_orders():
    """(shape, choices, orders) for grow_supertile, the orders measured
    with the greedy geometric matcher it replaced."""
    return [
        (shape_from_pq(1, 2), [(3, 0), (3, 5), (4, 2)], [3, 7, 11]),
        (shape_from_pq(1, 2), [(2, 3), (2, 1)], [2, 4]),
        (shape_from_pq(2, 1), [(2, 1), (2, 4)], [2, 5]),
        (shape_from_pq(1, 3), [(3, 2), (2, 0)], [3, 6]),
        (shape_from_theta(1.0), [(4, 2), (3, 1)], [4, 15]),
        (shape_from_pq(3, 5), [(5, 3), (4, 7)], [5, 15]),
        (shape_from_pq(1, 1), [(1, 2), (1, 3)], [1, 2]),
    ]
