"""The exact-Schur-complement preconditioner of a 2x2 eigen-block, a test oracle
for acceptance criterion 4 and ``test_irk_core.py``."""

import numpy as np

from irkit import densela
from irkit.irk_core import (DENSE_KAPPA_LIMIT, Block2x2System, ShiftedSolver,
                            _lower_triangular)
from irkit.sparsela import combine


def exact_schur_preconditioner(sys: Block2x2System):
    """The triangular preconditioner with the exact Schur complement.

    Materializes ``S = eta*M - dt*L2 + beta^2 * M (eta*M - dt*L1)^{-1} M``
    densely, so GMRES on the 2x2 block converges in at most two iterations.
    """
    n = sys.n
    if n > DENSE_KAPPA_LIMIT:
        raise ValueError(f"exact Schur hook limited to n <= {DENSE_KAPPA_LIMIT}")
    s1 = ShiftedSolver(sys.eta, sys.mass, sys.l1, sys.dt, "exact")
    m_dense = np.eye(n) if sys.mass is None else sys.mass.to_dense()
    a2 = combine([sys.eta, -sys.dt], [sys.mass, sys.l2]).to_dense()
    schur = a2 + sys.beta**2 * (m_dense @ s1.solve(m_dense))
    lu, piv = densela.lu_factor(schur)
    return _lower_triangular(
        sys, s1.solve, lambda v, out: np.copyto(out, densela.lu_solve_factored(lu, piv, v))
    )
