import numpy as np
import pytest


def _sparse_precision(N: int, m: float):
    """Sparse (m^2 - Delta) on the interior sites of the box of side N (Dirichlet
    rows dropped), the sites in row-major order."""
    from scipy import sparse

    n = N - 1
    path = sparse.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1], shape=(n, n))  # 1D neighbours
    eye = sparse.identity(n)
    return ((4.0 + m * m) * sparse.identity(n * n) - sparse.kron(path, eye)
            - sparse.kron(eye, path)).tocsr()


@pytest.fixture
def sparse_precision():
    """The reference matrix that spsolve checks the Green and extension routes against."""
    return _sparse_precision
