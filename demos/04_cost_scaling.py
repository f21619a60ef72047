"""Where the evaluation cost of the coupled bound goes.

The bound needs one R x R capacitance factorization per evaluation plus
batched M x M and N x M products, so for fixed M and R the cost should be
roughly linear in the number of components C (stacked small matmuls) and
exactly linear in the number of data points N (the likelihood term). This
script runs ``addgp bench`` at its defaults (M = R = 64, C in 1, 2, 4, 8 at
N = 2000, N in 1000 .. 8000 at C = 4), which times the divergence term and
the full bound over both sweeps and fits the growth laws.
"""

import os
import sys
import tempfile

from addgp.cli import main
from addgp.linalg import blas_threads

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        # growth laws are for one thread; raises if BLAS cannot be pinned
        with blas_threads(1):
            sys.exit(main(["bench", "--out", os.path.join(tmp, "bench.csv")]))
