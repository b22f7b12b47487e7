"""Exact linear algebra over the integers: Smith normal form and lattice solving.

Matrices are plain lists of lists of Python ints, so coefficients can grow
without bound.  The solver returns a particular solution together with a
basis of the solution lattice's kernel, or an explicit infeasibility
certificate: a row vector u with u*A == 0 (mod m) but u*b != 0 (mod m),
which any third party can re-verify by hand.

The Smith reduction runs on sparse rows (D and U by row, V by column) with
row and column swaps kept as permutations, so a pivot step costs the
nonzeros it touches rather than the whole trailing block, and the pivot
search stops at the first row that holds a unit.  Its operation
sequence is that of the classical dense elimination: the pivot is the
row-major-first entry of least |x| in the trailing block, the rest of its
row and column is reduced modulo it until they vanish, and a pivot that
fails to divide the block absorbs the first offending row.  So (U, D, V)
is the dense result entry for entry; ``smith_normal_form`` densifies it,
while ``factor`` keeps it sparse for the solver.  (Kannan and Bachem, SIAM
J. Comput. 1979, give a polynomial-time variant with bounded entry growth;
it is not the one that runs here.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import DomainError

Matrix = list[list[int]]


def mat_vec(a: Matrix, x: list[int]) -> list[int]:
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def _reduce(a: Matrix) -> tuple[list[dict[int, int]], list[int], list[dict[int, int]]]:
    """Sparse Smith reduction of ``a``: U by rows, the nonzero diagonal, V by columns.

    Rows of D and U are dicts keyed by a stable column label, and ``holders``
    maps each column label of D to the rows holding it; swaps only permute
    the position-to-label lists.  V is kept as dicts by column.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [{j: int(x) for j, x in enumerate(row) if x} for row in a]
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]
    holders: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(d):
        for c in row:
            holders[c].add(r)
    rows, cols = list(range(m)), list(range(n))  # position -> label
    rowpos, colpos = list(range(m)), list(range(n))  # label -> position

    def axpy(dst, src, q, owner=None):  # dst += q * src; owner: dst's row label in D
        for c, x in src.items():
            y = dst.get(c, 0) + q * x
            if y:
                if owner is not None and c not in dst:
                    holders[c].add(owner)
                dst[c] = y
            else:
                del dst[c]
                if owner is not None:
                    holders[c].discard(owner)

    def add_row(r, s, q):  # row_r += q * row_s, in D and U
        axpy(d[r], d[s], q, r)
        axpy(u[r], u[s], q)

    def add_col(c, s, q):  # col_c += q * col_s, in D and V
        for r in holders[s]:
            axpy(d[r], {c: d[r][s]}, q, r)
        axpy(v[c], v[s], q)

    t = 0
    while t < min(m, n):
        # the row-major-first entry of least |x| in the trailing block (rows at
        # positions >= t hold no entry left of column t); a unit ends the search
        best = None
        for i in range(t, m):
            row = d[rows[i]]
            if row:
                low, j = min((abs(x), colpos[c]) for c, x in row.items())
                if best is None or low < best[0]:
                    best = (low, i, j)
                    if low == 1:
                        break
        if best is None:
            break
        pivot = best[1:]
        while True:
            i0, j0 = pivot
            if i0 != t:
                rows[t], rows[i0] = rows[i0], rows[t]
                rowpos[rows[t]], rowpos[rows[i0]] = t, i0
            if j0 != t:
                cols[t], cols[j0] = cols[j0], cols[t]
                colpos[cols[t]], colpos[cols[j0]] = t, j0
            rt, ct = rows[t], cols[t]
            p = d[rt][ct]
            if p < 0:
                p = -p
                d[rt] = {c: -x for c, x in d[rt].items()}
                u[rt] = {c: -x for c, x in u[rt].items()}
            for r in [r for r in holders[ct] if r != rt]:
                q = d[r][ct] // p
                if q:
                    add_row(r, rt, -q)
            for c, x in [(c, x) for c, x in d[rt].items() if c != ct]:
                q = x // p
                if q:
                    add_col(c, ct, -q)
            # the row-major-first entry of least |x| left in the pivot row or column
            residue = min(
                [(abs(x), t, colpos[c]) for c, x in d[rt].items() if c != ct]
                + [(abs(d[r][ct]), rowpos[r], t) for r in holders[ct] if r != rt],
                default=None,
            )
            if residue is None:
                # pivot must divide the whole trailing block for true Smith form
                if p == 1:
                    break
                offender = next(
                    (rows[i] for i in range(t + 1, m) if any(x % p for x in d[rows[i]].values())),
                    None,
                )
                if offender is None:
                    break
                add_row(rt, offender, 1)
                pivot = (t, t)
            else:
                pivot = residue[1:]
        t += 1
    return (
        [u[r] for r in rows],
        [d[rows[i]][cols[i]] for i in range(t)],
        [v[c] for c in cols],
    )


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return unimodular (U, D, V) with U * A * V = D diagonal, d_i | d_{i+1}."""
    m = len(a)
    n = len(a[0]) if m else 0
    u, diag, v = _reduce(a)
    d = [[0] * n for _ in range(m)]
    for i, x in enumerate(diag):
        d[i][i] = x
    return (
        [[row.get(j, 0) for j in range(m)] for row in u],
        d,
        [[col.get(r, 0) for col in v] for r in range(n)],
    )


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
    """U * A * V = D for one matrix, kept sparse in the form the solver reads.

    ``u_rows`` holds the rows of U as ``(column, value)`` pairs, ``diag`` the
    diagonal of D padded with zeros to one entry per row of A, ``v_cols`` the
    columns of V as ``(row, value)`` pairs and ``kernel`` the columns of V
    that span ker A, dense.  The entries are those of ``smith_normal_form``.
    """

    u_rows: tuple[tuple[tuple[int, int], ...], ...]
    diag: tuple[int, ...]
    v_cols: tuple[tuple[tuple[int, int], ...], ...]
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
    u, diag, v = _reduce(a)
    diag += [0] * (m - len(diag))
    return Factorization(
        u_rows=tuple(tuple(sorted(row.items())) for row in u),
        diag=tuple(diag),
        v_cols=tuple(tuple(sorted(col.items())) for col in v),
        kernel=tuple(
            tuple(col.get(r, 0) for r in range(n))
            for j, col in enumerate(v)
            if j >= m or diag[j] == 0
        ),
    )


Solution = tuple[list[int] | None, list[list[int]] | None, InfeasibilityCertificate | None]


def solve_factored(f: Factorization, b: list[int]) -> Solution:
    """Solve A x = b given the factorization ``f`` of A, or explain why not.

    Costs only ``U·b`` and ``V·y``, each in the number of nonzeros; the lists
    returned are fresh on every call.
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
    x = [0] * len(f.v_cols)
    for j, yj in y:
        for r, vr in f.v_cols[j]:
            x[r] += vr * yj
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
