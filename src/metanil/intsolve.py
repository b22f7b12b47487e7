"""Exact integer linear algebra: Smith normal form, lattice solving, triangular solves.

Matrices are plain lists of lists of Python ints, so coefficients can grow
without bound.  The solver returns a particular solution together with a
basis of the solution lattice's kernel, or an explicit infeasibility
certificate: a row vector u with u*A == 0 (mod m) but u*b != 0 (mod m),
which any third party can re-verify by hand.

The Smith form serves only small systems: Lemma 3.1 closure membership in
``verify`` (through ``integer_solve``), the Lemma 3.2 full-rank certificate
on a block of the decision's own top-layer system, and the abelianization
of a non-IA map.  It is the classical dense elimination.  (Kannan and
Bachem, SIAM J. Comput. 1979, give a polynomial-time variant with bounded
entry growth; it is not the one that runs here.)

The decision engine's systems need no Smith form: each comes with ±1 pivots
in a triangular order (named in closed form by ``normality._layer_system``),
and ``solve_peeled`` solves by substitution, refusing exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import DomainError

Matrix = list[list[int]]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return unimodular (U, D, V) with U * A * V = D diagonal, d_i | d_{i+1}.

    The pivot is the row-major-first entry of least |x| in the trailing
    block, the rest of its row and column is reduced modulo it until they
    vanish, and a pivot that fails to divide the block absorbs the first
    offending row.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        # rows below t hold no entry left of column t; a unit ends the search
        best = None
        for i in range(t, m):
            low = min(((abs(x), j) for j, x in enumerate(d[i][t:], t) if x), default=None)
            if low and (best is None or low[0] < best[0]):
                best = (low[0], i, low[1])
                if low[0] == 1:
                    break
        if best is None:
            break
        pivot = best[1:]
        while True:
            i0, j0 = pivot
            d[t], d[i0] = d[i0], d[t]
            u[t], u[i0] = u[i0], u[t]
            for row in (*d, *v):
                row[t], row[j0] = row[j0], row[t]
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                u[t] = [-x for x in u[t]]
            p = d[t][t]
            for i in range(t + 1, m):
                if q := d[i][t] // p:
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, n):
                if q := d[t][j] // p:
                    for row in (*d, *v):
                        row[j] -= q * row[t]
            # the row-major-first entry of least |x| left in the pivot row or column
            residue = min(
                [(abs(x), t, j) for j, x in enumerate(d[t][t + 1 :], t + 1) if x]
                + [(abs(d[i][t]), i, t) for i in range(t + 1, m) if d[i][t]],
                default=None,
            )
            if residue is None:
                # pivot must divide the whole trailing block for true Smith form
                if p == 1:
                    break
                offender = next(
                    (i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None
                )
                if offender is None:
                    break
                d[t] = [x + y for x, y in zip(d[t], d[offender])]
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
                pivot = (t, t)
            else:
                pivot = residue[1:]
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


# A's rows as {column: value} dicts, the (row, column) ±1 pivots in a triangular order
# (each pivot row's other entries lie in earlier pivot columns), the other rows
PeeledSystem = tuple[tuple[dict[int, int], ...], tuple[tuple[int, int], ...], tuple[int, ...]]


def solve_peeled(
    system: PeeledSystem, b: list[int]
) -> tuple[list[int] | None, InfeasibilityCertificate | None]:
    """The unique solution of A x = b for a triangular PeeledSystem, or an exact certificate.

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
    u, diag, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(m, n)) if diag[i][i])
    x = [0] * n
    for i, row in enumerate(u):
        ci = sum(q * bj for q, bj in zip(row, b))
        di = diag[i][i] if i < rank else 0
        if ci % di if di else ci:
            return None, None, InfeasibilityCertificate(tuple(row), di, ci)
        if ci:
            for r in range(n):
                x[r] += v[r][i] * (ci // di)
    return x, [[v[r][j] for r in range(n)] for j in range(rank, n)], None


def integer_solve(a: Matrix, b: list[int]) -> tuple[list[int], list[list[int]]] | None:
    """Particular solution and kernel lattice basis of A x = b, or None."""
    x, kernel, cert = integer_solve_explain(a, b)
    return None if cert is not None else (x, kernel)
