"""Exact linear algebra over the integers: Smith normal form and lattice solving.

Matrices are plain lists of lists of Python ints, so coefficients can grow
without bound.  The solver returns a particular solution together with a
basis of the solution lattice's kernel, or an explicit infeasibility
certificate: a row vector u with u*A == 0 (mod m) but u*b != 0 (mod m),
which any third party can re-verify by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import DomainError

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, x: list[int]) -> list[int]:
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return unimodular (U, D, V) with U * A * V = D diagonal, d_i | d_{i+1}."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [[int(v) for v in row] for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def row_op(i, t, q):  # row_i -= q * row_t
        d[i] = [x - q * y for x, y in zip(d[i], d[t])]
        u[i] = [x - q * y for x, y in zip(u[i], u[t])]

    def col_op(j, t, q):  # col_j -= q * col_t
        for row in d:
            row[j] -= q * row[t]
        for row in v:
            row[j] -= q * row[t]

    def swap_rows(i, t):
        d[i], d[t] = d[t], d[i]
        u[i], u[t] = u[t], u[i]

    def swap_cols(j, t):
        for row in d:
            row[j], row[t] = row[t], row[j]
        for row in v:
            row[j], row[t] = row[t], row[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # move a minimal nonzero entry of the trailing block to the pivot
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
        if pivot is None:
            break
        while True:
            i0, j0 = pivot
            if i0 != t:
                swap_rows(t, i0)
            if j0 != t:
                swap_cols(t, j0)
            if d[t][t] < 0:
                negate_row(t)
            for i in range(t + 1, m):
                if d[i][t]:
                    row_op(i, t, d[i][t] // d[t][t])
            for j in range(t + 1, n):
                if d[t][j]:
                    col_op(j, t, d[t][j] // d[t][t])
            residue = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if (i == t) == (j == t):
                        continue
                    x = d[i][j]
                    if x and (best is None or abs(x) < best):
                        best, residue = abs(x), (i, j)
            if residue is None:
                # pivot must divide the whole trailing block for true Smith form
                offender = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if d[i][j] % d[t][t]:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                d[t] = [x + y for x, y in zip(d[t], d[offender])]
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
                pivot = (t, t)
            else:
                pivot = residue
        t += 1
    return u, d, v


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Row u with u*A divisible by modulus everywhere, u*b not (modulus 0: exact)."""

    row: tuple[int, ...]
    modulus: int
    value: int

    def to_json(self) -> dict:
        return {"row": list(self.row), "modulus": self.modulus, "value": self.value}


@dataclass(frozen=True)
class Factorization:
    """U * A * V = D for one matrix, kept in the form the solver reads.

    ``u_rows`` holds the rows of U as sparse ``(column, value)`` pairs,
    ``diag`` the diagonal of D padded with zeros to one entry per row of A,
    ``v`` the rows of V and ``kernel`` the columns of V that span ker A.
    """

    u_rows: tuple[tuple[tuple[int, int], ...], ...]
    diag: tuple[int, ...]
    v: tuple[tuple[int, ...], ...]
    kernel: tuple[tuple[int, ...], ...]

    def certificate(self, i: int, modulus: int, value: int) -> InfeasibilityCertificate:
        row = [0] * len(self.diag)
        for j, x in self.u_rows[i]:
            row[j] = x
        return InfeasibilityCertificate(tuple(row), modulus, value)


@lru_cache(maxsize=64)
def factor(a: tuple[tuple[int, ...], ...]) -> Factorization:
    """Smith-form factorization of the matrix whose rows are ``a``.

    The systems of the decision engine depend only on (rank, class, layer),
    so each one is reduced once and every later right-hand side reuses it.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    u, d, v = smith_normal_form(a)
    diag = tuple(d[i][i] if i < n else 0 for i in range(m))
    return Factorization(
        u_rows=tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in u),
        diag=diag,
        v=tuple(map(tuple, v)),
        kernel=tuple(
            tuple(v[r][j] for r in range(n))
            for j in range(n)
            if j >= m or diag[j] == 0
        ),
    )


Solution = tuple[list[int] | None, list[list[int]] | None, InfeasibilityCertificate | None]


def solve_factored(f: Factorization, b: list[int]) -> Solution:
    """Solve A x = b given the factorization ``f`` of A, or explain why not.

    Costs only ``U·b`` and ``V·y``; the lists returned are fresh on every call.
    """
    if len(b) != len(f.diag):
        raise DomainError(f"dimension mismatch: {len(f.diag)} rows vs {len(b)} entries")
    y = []  # the nonzero entries of D^-1 U b, as (index, value)
    for i, (row, di) in enumerate(zip(f.u_rows, f.diag)):
        ci = sum(x * b[j] for j, x in row)
        if di:
            if ci % di:
                return None, None, f.certificate(i, di, ci)
            if ci:
                y.append((i, ci // di))
        elif ci:
            return None, None, f.certificate(i, 0, ci)
    x = [sum(vr[j] * yj for j, yj in y) for vr in f.v]
    return x, [list(col) for col in f.kernel], None


def integer_solve_explain(a: Matrix, b: list[int]) -> Solution:
    """Solve A x = b over the integers, or explain why there is no solution.

    The Smith form of ``a`` comes from a bounded cache keyed on the matrix
    entries, so repeated systems are reduced once.
    """
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise DomainError("ragged matrix")
    return solve_factored(factor(tuple(map(tuple, a))), b)


def integer_solve(a: Matrix, b: list[int]) -> tuple[list[int], list[list[int]]] | None:
    """Particular solution and kernel lattice basis of A x = b, or None."""
    x, kernel, cert = integer_solve_explain(a, b)
    if cert is not None:
        return None
    return x, kernel
