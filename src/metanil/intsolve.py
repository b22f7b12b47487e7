"""Exact integer linear algebra: Smith normal form, lattice solving, peeled solves.

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
is the dense result entry for entry; ``smith_normal_form`` densifies it.
(Kannan and Bachem, SIAM J. Comput. 1979, give a polynomial-time variant
with bounded entry growth; it is not the one that runs here.)

The decision engine's systems need no Smith form: their columns ``peel`` to
±1 pivots, and ``solve_peeled`` solves by substitution, refusing exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .words import DomainError, EngineFault

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


# A's rows as {column: value} dicts, the (row, column) pivots in peel order, the other rows
PeeledSystem = tuple[tuple[dict[int, int], ...], tuple[tuple[int, int], ...], tuple[int, ...]]


def peel(columns: list[dict[int, int]], m: int) -> PeeledSystem:
    """Singleton peeling of the m-row matrix A with the given sparse columns.

    Repeatedly take the least-indexed row with one live entry, where that
    entry is ±1, and fix that entry's column.  Once every column is fixed, A
    is unit lower triangular on its pivot rows: its columns span a direct
    summand, so A x = b is solvable over Z whenever it is over Q.  A stall is
    an engine fault, never a verdict.
    """
    rows: list[dict[int, int]] = [{} for _ in range(m)]
    for c, col in enumerate(columns):
        for r, x in col.items():
            rows[r][c] = x
    live = [len(row) for row in rows]
    heap = [r for r in range(m) if live[r] == 1]  # ascending, so already a heap
    pivots: dict[int, int] = {}  # column -> row, in peel order
    while heap:
        r = heappop(heap)
        c = next((c for c in rows[r] if c not in pivots), None)
        if c is None or rows[r][c] not in (1, -1):
            continue  # emptied since, or a non-unit entry that another row must fix
        pivots[c] = r
        for r2 in columns[c]:
            live[r2] -= 1
            if live[r2] == 1:
                heappush(heap, r2)
    if len(pivots) < len(columns):
        raise EngineFault(f"peeling stalls at {len(pivots)} of {len(columns)} columns")
    pivot_rows = set(pivots.values())
    free = tuple(r for r in range(m) if r not in pivot_rows)
    return tuple(rows), tuple((r, c) for c, r in pivots.items()), free


def solve_peeled(
    system: PeeledSystem, b: list[int]
) -> tuple[list[int] | None, InfeasibilityCertificate | None]:
    """The unique solution of A x = b for a peeled A, or an exact certificate.

    Back-substitution along the pivot rows costs the nonzeros of A.  The
    first other row r left with a residual gives u = e_r - sum_p y_p e_(r_p),
    u A = 0: y clears u A latest pivot first, integrally as pivots are ±1,
    until it is zero.
    """
    rows, pivots, free = system
    if len(b) != len(rows):
        raise DomainError(f"dimension mismatch: {len(rows)} rows vs {len(b)} entries")
    x = [0] * len(pivots)
    for r, c in pivots:  # x[c] is still 0, so the sum runs over earlier pivots
        x[c] = (b[r] - sum(v * x[j] for j, v in rows[r].items())) * rows[r][c]
    for r in free:
        if residual := b[r] - sum(v * x[j] for j, v in rows[r].items()):
            u = [int(i == r) for i in range(len(rows))]
            live = dict(rows[r])  # the nonzero entries of u A
            for rp, c in reversed(pivots):
                if not live:
                    break
                if y := live.get(c, 0) * rows[rp][c]:
                    u[rp] = -y
                    for j, v in rows[rp].items():
                        live[j] = live.get(j, 0) - y * v
                    live = {j: v for j, v in live.items() if v}
            return None, InfeasibilityCertificate(tuple(u), 0, residual)
    return x, None


Solution = tuple[list[int] | None, list[list[int]] | None, InfeasibilityCertificate | None]


def integer_solve_explain(a: Matrix, b: list[int]) -> Solution:
    """Solve A x = b over the integers with a basis of ker A, or explain why
    there is no solution by a row of U in the Smith form U A V = D."""
    m = len(a)
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise DomainError("ragged matrix")
    if len(b) != m:
        raise DomainError(f"dimension mismatch: {m} rows vs {len(b)} entries")
    u, diag, v = _reduce(a)
    x = [0] * n
    for i, row in enumerate(u):
        ci = sum(q * b[j] for j, q in row.items())
        di = diag[i] if i < len(diag) else 0
        if ci % di if di else ci:
            cert = tuple(row.get(j, 0) for j in range(m))
            return None, None, InfeasibilityCertificate(cert, di, ci)
        if ci:
            for r, q in v[i].items():
                x[r] += q * (ci // di)
    return x, [[col.get(r, 0) for r in range(n)] for col in v[len(diag):]], None


def integer_solve(a: Matrix, b: list[int]) -> tuple[list[int], list[list[int]]] | None:
    """Particular solution and kernel lattice basis of A x = b, or None."""
    x, kernel, cert = integer_solve_explain(a, b)
    return None if cert is not None else (x, kernel)
