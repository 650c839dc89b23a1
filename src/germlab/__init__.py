"""germlab: exact invariants of corank-one map germs and equivariant homology.

Core entry points:

- `germlab.poly`      exact polynomials, divided differences, linear elimination
- `germlab.ideals`    local/global standard bases, colength, dimension
- `germlab.milnor`    Milnor and Tjurina numbers of ICIS germs, the ICIS classifier
- `germlab.germs`     multiple point spaces D^k(f)^sigma, finiteness criterion
- `germlab.simplicial`, `germlab.homology`, `germlab.smith`
                      simplicial group complexes, (alternating) homology
- `germlab.analyzer`  invariant tables, rule checks, witness verification
- `germlab.cli`       the `germlab` command
"""

from ._kernel import BACKEND as kernel_backend

__all__ = ["kernel_backend"]
__version__ = "0.1.0"
