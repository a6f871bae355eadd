#!/usr/bin/env python3
"""Bracket the mu-value of a 5x5 two-block example with a known answer.

The diagonal-scaling upper bound matches the certified lower bound to
machine precision (the structure has two blocks, so the bound is exact)
and improves on the classical square-block bound 3.097070.
"""

from rosenmu import BlockStructure, mu_bracket, perturbation_norm
from rosenmu.instances import golden_two_block_matrix


def main():
    m = golden_two_block_matrix()
    structure = BlockStructure(((2, 3), (3, 2)))
    res = mu_bracket(m, structure)
    print("structure: blocks (2x3), (3x2)")
    print(f"mu lower bound : {res.lower:.12f}")
    print(f"mu upper bound : {res.upper:.12f}")
    print(f"relative gap   : {(res.upper - res.lower) / res.upper:.2e}")
    print(f"exactness      : {res.exactness}")
    print(f"reference      : 3.081980 (square-block scaling gives 3.097070)")

    norm = perturbation_norm(res.certificate_delta)
    print(f"certificate    : max block norm {norm:.12f} = 1/mu, "
          f"det residual {res.delta_residual:.2e}")
    print(f"smallest singularizing perturbation norm: {1 / res.lower:.12f}")


if __name__ == "__main__":
    main()
