"""Shared generators for randomized tests (all explicitly seeded)."""

import numpy as np
import pytest

from rosenmu import BlockStructure, RosenbrockSystem, reduce
from rosenmu.instances import golden_two_block_matrix
from rosenmu.rosenbrock import Scan, weight


def cgauss(rng, m, n):
    """Complex standard Gaussian matrix."""
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def random_system(rng, r=None, n=None, d=None) -> RosenbrockSystem:
    r = int(rng.integers(1, 4)) if r is None else r
    n = int(rng.integers(1, 4)) if n is None else n
    d = int(rng.integers(0, 3)) if d is None else d
    return RosenbrockSystem(
        cgauss(rng, r, r),
        cgauss(rng, r, n),
        cgauss(rng, n, r),
        tuple(cgauss(rng, n, n) for _ in range(d + 1)),
    )


def random_structure(rng, n_blocks=None, max_dim=2) -> BlockStructure:
    n_blocks = int(rng.integers(1, 4)) if n_blocks is None else n_blocks
    return BlockStructure(
        tuple(
            (int(rng.integers(1, max_dim + 1)), int(rng.integers(1, max_dim + 1)))
            for _ in range(n_blocks)
        )
    )


def scan_reduce(sys_, lams, scenario):
    """The stacked reduction (M, structure, labels) of one scenario at each lambda."""
    scan = Scan(sys_, lams)
    scan.check()
    weights = np.array([weight(lam, sys_.d) for lam in scan.lams])
    return reduce(scan.inverse, weights, scenario, sys_.r, sys_.n)


def random_blocks(rng, structure):
    return [cgauss(rng, p, k) for p, k in structure.blocks]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


GOLDEN_5X5 = golden_two_block_matrix()

GOLDEN_STRUCTURE = BlockStructure(((2, 3), (3, 2)))
GOLDEN_MU = 3.081980
GOLDEN_COMPETITOR_UPPER = 3.097070
