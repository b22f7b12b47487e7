import random
from collections import Counter
from fractions import Fraction

import pytest

import metanil.normality as normality
from metanil.core import enumerate_basics
from metanil.intsolve import (
    InfeasibilityCertificate,
    integer_solve,
    integer_solve_explain,
    smith_normal_form,
    solve_peeled,
)
from metanil.normality import _layer_system
from metanil.words import GroupParams
from metanil.words import DomainError, EngineFault


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rational_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for t in range(n):
        piv = next((i for i in range(t, n) if a[i][t]), None)
        if piv is None:
            return Fraction(0)
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, n):
            f = a[i][t] / a[t][t]
            a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return det


def mat_vec(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def matmul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_smith_normal_form(a, branches=None):
    """The Smith reduction written out step by step, kept as the reference.

    ``branches``, if given, counts the residue and offender steps taken.
    """
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
                if branches is not None:
                    branches["offender"] += 1
                d[t] = [x + y for x, y in zip(d[t], d[offender])]
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
                pivot = (t, t)
            else:
                if branches is not None:
                    branches["residue"] += 1
                pivot = residue
        t += 1
    return u, d, v


def dense_rows(system):
    """The dense matrix of a peeled system."""
    rows, pivots, _ = system
    return [[row.get(c, 0) for c in range(len(pivots))] for row in rows]


def random_test_matrix(rng, m, n):
    """Entries in -9..9, sparse +-1 or sparse non-units, with a zero row or
    column now and then; the non-units reach the offender step."""
    kind = rng.randrange(3)
    if kind == 0:
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
    else:
        entries = (0, 0, 0, 1, -1) if kind == 1 else (0, 0, 0, 2, -3, 4, 6, -6, 9)
        a = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.25:
        a[rng.randrange(m)] = [0] * n
    if rng.random() < 0.25:
        j = rng.randrange(n)
        for row in a:
            row[j] = 0
    return a


def test_smith_form_matches_the_dense_reference():
    rng = random.Random(41)
    branches = Counter()
    named = [[[2, 3]], [[2, 0], [0, 3]], [[0]], [[0, 0], [0, 0]], [[-4, 6], [6, 9]]]
    for a in named:
        assert smith_normal_form(a) == dense_smith_normal_form(a)
    seen = Counter()
    dense_smith_normal_form([[2, 3]], seen)
    assert seen == {"residue": 1}
    seen.clear()
    dense_smith_normal_form([[2, 0], [0, 3]], seen)
    assert seen["offender"] == 1
    for m in range(1, 9):
        for n in range(1, 9):
            for _ in range(32):
                a = random_test_matrix(rng, m, n)
                expected = dense_smith_normal_form(a, branches)
                assert smith_normal_form(a) == expected, a
    # both non-unit branches are exercised many times over the 2048 matrices
    assert branches["residue"] > 500 and branches["offender"] > 50, branches


@pytest.mark.parametrize("d,k", [(2, 8), (3, 6), (4, 5)])
def test_layer_systems_match_the_dense_reference(d, k):
    for w in range(2, k + 1):
        a = dense_rows(_layer_system(d, w)[0])
        expected = dense_smith_normal_form(a)
        assert smith_normal_form(a) == expected, (d, w)


def test_smith_properties_on_random_matrices():
    rng = random.Random(17)
    for _ in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        u, d, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        assert abs(rational_det(u)) == 1
        assert abs(rational_det(v)) == 1
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] and diag[i + 1] % diag[i] == 0


def test_solve_identity_and_parity():
    x, kernel = integer_solve([[1, 0], [0, 1]], [3, -4])
    assert x == [3, -4] and kernel == []
    assert integer_solve([[2]], [1]) is None


def test_certificate_is_verifiable():
    rng = random.Random(23)
    found = 0
    for _ in range(300):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        b = [rng.randrange(-9, 10) for _ in range(m)]
        x, kernel, cert = integer_solve_explain(a, b)
        if cert is None:
            assert mat_vec(a, x) == b
            continue
        found += 1
        assert isinstance(cert, InfeasibilityCertificate)
        ua = [sum(cert.row[i] * a[i][j] for i in range(m)) for j in range(n)]
        ub = sum(cert.row[i] * b[i] for i in range(m))
        assert ub == cert.value
        if cert.modulus == 0:
            assert all(v == 0 for v in ua) and ub != 0
        else:
            assert all(v % cert.modulus == 0 for v in ua)
            assert ub % cert.modulus != 0
    assert found > 10  # random systems are frequently infeasible


def test_solution_and_kernel_round_trip():
    rng = random.Random(29)
    for _ in range(150):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randrange(-4, 5) for _ in range(n)]
        b = mat_vec(a, x0)
        res = integer_solve(a, b)
        assert res is not None
        x, kernel = res
        assert mat_vec(a, x) == b
        zero = [0] * m
        for kv in kernel:
            assert mat_vec(a, kv) == zero
        # the found solution differs from the planted one by a kernel vector
        diff = [p - q for p, q in zip(x0, x)]
        if kernel:
            span = [list(col) for col in zip(*kernel)]
            res2 = integer_solve(span, diff)
            assert res2 is not None
        else:
            assert diff == [0] * n


def test_dimension_mismatch():
    for _ in range(2):  # twice: a refused call leaves nothing behind
        with pytest.raises(DomainError):
            integer_solve([[1, 2]], [1, 2])
        with pytest.raises(DomainError):
            integer_solve([[1, 2], [1]], [1, 2])
        with pytest.raises(DomainError):
            integer_solve_explain([[1, 2], [3, 4]], [1, 2, 3])
        with pytest.raises(DomainError):
            integer_solve_explain([[1, 2], [3, 4, 5]], [1, 2])
        integer_solve_explain([[1, 2], [3, 4]], [1, 2])


def test_zero_sized_systems():
    x, kernel, cert = integer_solve_explain([], [])
    assert x == [] and kernel == [] and cert is None
    x, kernel, cert = integer_solve_explain([[0, 0]], [0])
    assert cert is None and len(kernel) == 2
    _, _, cert = integer_solve_explain([[0, 0]], [5])
    assert cert is not None and cert.modulus == 0


def reference_solve(a, b):
    """The solver on the dense reference Smith form."""
    m = len(a)
    n = len(a[0]) if m else 0
    u, d, v = dense_smith_normal_form(a)
    c = mat_vec(u, b)
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < n else 0
        if di:
            if c[i] % di:
                return None, None, InfeasibilityCertificate(tuple(u[i]), di, c[i])
            y[i] = c[i] // di
        elif c[i]:
            return None, None, InfeasibilityCertificate(tuple(u[i]), 0, c[i])
    x = mat_vec(v, y) if n else []
    kernel = [[v[r][j] for r in range(n)] for j in range(n) if j >= m or d[j][j] == 0]
    return x, kernel, None


def random_unimodular(rng, n):
    p = identity_matrix(n)
    for _ in range(3 * n):
        i, t = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != t:
            q = rng.randrange(-2, 3)
            p[i] = [x + q * y for x, y in zip(p[i], p[t])]
        if rng.random() < 0.3:
            p[i] = [-x for x in p[i]]
    return p


def test_solve_matches_the_reference_solve():
    """P D Q systems with known right-hand sides of each kind."""
    rng = random.Random(31)
    kinds = {"feasible": 0, "modular": 0, "exact": 0, "exact-modulus-0": 0}
    for _ in range(120):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        r = rng.randrange(0, min(m, n) + 1)
        diag = [rng.choice([1, 1, 2, 3, 6]) for _ in range(r)]
        p, q = random_unimodular(rng, m), random_unimodular(rng, n)
        dq = [[diag[i] * x for x in q[i]] if i < r else [0] * n for i in range(m)]
        a = matmul(p, dq)
        for _ in range(3):
            z = [rng.randrange(-4, 5) for _ in range(r)]
            c = [diag[i] * z[i] if i < r else 0 for i in range(m)]
            rhs = {"feasible": c}
            big = [i for i in range(r) if diag[i] > 1]
            if big:
                i = rng.choice(big)
                rhs["modular"] = [x + (t == i) for t, x in enumerate(c)]
            if r < m:
                i = rng.randrange(r, m)
                rhs["exact"] = [x + rng.choice([-3, -1, 1, 2]) * (t == i) for t, x in enumerate(c)]
            for kind, ct in rhs.items():
                b = mat_vec(p, ct)
                got = integer_solve_explain(a, b)
                assert got == reference_solve(a, b)
                x, kernel, cert = got
                kinds[kind] += 1
                if kind == "feasible":
                    assert cert is None and mat_vec(a, x) == b
                    assert all(mat_vec(a, kv) == [0] * m for kv in kernel)
                    continue
                assert x is None and kernel is None and cert is not None
                ua = [sum(cert.row[i] * a[i][j] for i in range(m)) for j in range(n)]
                ub = sum(cert.row[i] * b[i] for i in range(m))
                assert len(cert.row) == m and ub == cert.value
                if cert.modulus:
                    assert all(v % cert.modulus == 0 for v in ua)
                    assert ub % cert.modulus
                else:
                    kinds["exact-modulus-0"] += 1
                    assert all(v == 0 for v in ua) and ub
                if kind == "modular":  # rationally feasible: no exact certificate exists
                    assert cert.modulus >= 2
    assert min(kinds.values()) >= 30, kinds


def test_returned_lists_are_not_shared_between_calls():
    a = [[1, 2, 3], [0, 2, 4]]
    x, kernel, _ = integer_solve_explain(a, [1, 2])
    expected = (list(x), [list(kv) for kv in kernel])
    x[0] += 7
    kernel[0][0] += 7
    kernel.append([1, 1, 1])
    a[0][0] = 5  # nor does the solver keep the caller's matrix
    x2, kernel2, _ = integer_solve_explain([[1, 2, 3], [0, 2, 4]], [1, 2])
    assert (x2, kernel2) == expected


# --- the triangular systems of the decision engine ------------------------------

# every layer system up to these classes
PEELED_SHAPES = [(2, 10), (3, 7), (4, 6), (5, 5), (6, 4), (7, 3), (8, 3)]


def rule_pivot(i, delta, d):
    """The named pivot of column (i, D), restated: (is case 2, generator, basic)."""
    tail = tuple(g for g, reps in enumerate(delta) for _ in range(reps))
    m = min((g for g, reps in enumerate(delta) if reps), default=d)
    if i > m:
        return True, m, (i, m) + tail
    j = d - 2 if i == d - 1 else d - 1
    return False, j, (max(i, j), min(i, j)) + tail


@pytest.mark.parametrize("d,k", PEELED_SHAPES + [(4, 7), (3, 8)])
def test_every_engine_system_peels_completely(d, k):
    # the closed-form rule of the normality docstring: every named pivot is
    # ±1 on its own row, a case-2 pivot row holds nothing else, and a case-1
    # pivot row's other entries lie in case-2 columns; so the system is
    # triangular with case-2 columns first
    for w in range(2, k + 1):
        (rows, pivots, free), cols = _layer_system(d, w)
        basics = enumerate_basics(GroupParams(d, w), w)
        row_of = {(j, seq): j * len(basics) + r for j in range(d) for r, seq in enumerate(basics)}
        named = [rule_pivot(i, delta, d) for i, delta in cols]
        case2 = {c for c, (two, _, _) in enumerate(named) if two}
        expected = [(row_of[j, seq], c) for c, (_, j, seq) in enumerate(named)]
        assert len({r for r, _ in expected}) == len(cols)
        for r, c in expected:
            assert rows[r][c] in (1, -1)
            others = set(rows[r]) - {c}
            assert not others if c in case2 else others <= case2
        assert list(pivots) == sorted(expected, key=lambda rc: rc[1] not in case2)
        assert sorted(free + tuple(r for r, _ in pivots)) == list(range(len(rows)))


def test_pivots_are_unit_and_triangular():
    for d, k in PEELED_SHAPES:
        (rows, pivots, _), _ = _layer_system(d, k)
        fixed = set()
        for r, c in pivots:
            assert rows[r][c] in (1, -1) and set(rows[r]) - fixed == {c}
            fixed.add(c)


# in the (3,3) system, with D = (1, 0, 0), column (1, D) is case 2 (m = 0):
# its pivot is row (0, (1, 0, 0)), which column (0, D), case 1, never reaches
D100 = (1, 0, 0)


@pytest.mark.parametrize(
    "col,scale,extra",
    [((1, D100), 2, None), ((0, D100), 1, (1, 0, 0))],
    ids=["non-unit", "off-triangle"],
)
def test_a_wrong_pivot_is_an_engine_fault(monkeypatch, col, scale, extra):
    # a non-unit named pivot, or an entry of a case-1 column in a case-2
    # pivot row, breaks the triangular solve; building the system must refuse
    # block 0 of column (i, D) is the generator bracket (0, i) + tail(D), so
    # the corrupted entry is (0, 1, 0) for non-unit and (0, 0, 0) for off-triangle
    assert rule_pivot(1, D100, 3) == (True, 0, (1, 0, 0))
    normalize = normality._bracket_rule

    def corrupted(seq):
        out = normalize(seq)
        if seq == (0, col[0], 0):
            out = tuple((b, v * scale) for b, v in out)
            if extra is not None:
                out += ((extra, 1),)
        return out

    monkeypatch.setattr(normality, "_bracket_rule", corrupted)
    with pytest.raises(EngineFault, match="no unit pivot"):
        _layer_system.__wrapped__(3, 3)


def test_solve_peeled_refuses_a_length_mismatch():
    with pytest.raises(DomainError):
        solve_peeled((({0: 1}, {}), ((0, 0),), (1,)), [1])


@pytest.mark.parametrize("d,k", [(2, 8), (3, 6), (4, 5)])
def test_solve_peeled_matches_the_smith_solve(d, k):
    rng = random.Random(100 * d + k)
    refused = 0
    for w in range(2, k + 1):
        system, _ = _layer_system(d, w)
        a = dense_rows(system)
        m, n = len(a), len(a[0])
        for _ in range(4):
            b = mat_vec(a, [rng.randrange(-3, 4) for _ in range(n)])
            x, cert = solve_peeled(system, b)
            assert cert is None and x == integer_solve_explain(a, b)[0]
            b[rng.randrange(m)] += rng.choice([-2, -1, 1, 2])
            x, cert = solve_peeled(system, b)
            expected = integer_solve_explain(a, b)
            if expected[2] is None:
                assert cert is None and x == expected[0]
                continue
            refused += 1
            assert x is None and cert.modulus == 0 and len(cert.row) == m
            assert [sum(cert.row[r] * a[r][c] for r in range(m)) for c in range(n)] == [0] * n
            assert sum(u * v for u, v in zip(cert.row, b)) == cert.value != 0
    # at rank 2 each layer system is square, hence unimodular: nothing refuses
    assert refused == 0 if d == 2 else refused >= 2 * (k - 1)
