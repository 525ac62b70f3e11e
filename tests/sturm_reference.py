"""Dense references for the Sturm count of the Hill matrices, in pure Python.

``class_matrix`` builds the first rows of one parity class's Hill matrix from
DLMF 28.4 as a full list of rows; ``eigenvalues`` diagonalises it by cyclic
Jacobi rotations (Golub & Van Loan, Matrix Computations, 8.5), and
``bottom_up_count`` counts its eigenvalues below x from the pivots of a U D U^T
factorisation, eliminated from the last row up: neither shares code with
``analysis._sturm_count``, which eliminates from the first row down.
"""

import math

#: the classes in ``analysis._CLASSES``'s order: a_2n, a_2n+1, b_2n+1, b_2n+2
NAMES = ("a_2n", "a_2n+1", "b_2n+1", "b_2n+2")


def class_matrix(name, q, rows):
    """The leading ``rows`` rows of the Hill matrix whose eigenvalues are ``name``(q)."""
    first = {"a_2n": 0, "a_2n+1": 1, "b_2n+1": 1, "b_2n+2": 2}[name]
    m = [[0.0] * rows for _ in range(rows)]
    for i in range(rows):
        m[i][i] = float((first + 2 * i) ** 2)
        if i + 1 < rows:
            m[i][i + 1] = m[i + 1][i] = q
    if name == "a_2n" and rows > 1:  # cos 2mz: A_0 enters the next row twice
        m[0][1] = m[1][0] = math.sqrt(2.0) * q
    m[0][0] += {"a_2n+1": q, "b_2n+1": -q}.get(name, 0.0)
    return m


def eigenvalues(matrix):
    """The eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi sweeps."""
    a = [row[:] for row in matrix]
    n = len(a)
    for _ in range(60):
        off = sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        if off <= 1e-30 * sum(a[i][i] ** 2 for i in range(n)):
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                if a[p][r] == 0.0:
                    continue
                theta = (a[r][r] - a[p][p]) / (2.0 * a[p][r])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for row in a:
                    row[p], row[r] = c * row[p] - s * row[r], s * row[p] + c * row[r]
                a[p], a[r] = ([c * u - s * v for u, v in zip(a[p], a[r])],
                              [s * u + c * v for u, v in zip(a[p], a[r])])
    return sorted(a[i][i] for i in range(n))


def bottom_up_count(matrix_name, q, x, rows):
    """The eigenvalues below x of the leading ``rows`` rows, from the last row up."""
    m = class_matrix(matrix_name, q, rows)
    below, pivot = 0, 0.0
    for i in range(rows - 1, -1, -1):
        coupling = m[i][i + 1] ** 2 / (pivot or 5e-324) if i + 1 < rows else 0.0
        pivot = m[i][i] - x - coupling  # a zero pivot counts as positive
        below += pivot < 0.0
    return below
