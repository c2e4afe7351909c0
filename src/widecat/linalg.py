"""Dense exact linear algebra over a FieldSpec.

Matrices are lists of row lists of field elements.  Pivoting is "first
nonzero from the left, first candidate row from the top", so every result
(echelon forms, kernels, solutions) is deterministic for a given input.

Every elimination is one pass of `_echelon`, whose arithmetic is picked
once per call: residues with inline `% p` over F_p; over Q, rows cleared
to integers and eliminated fraction-free (after Bareiss, Math. Comp. 22,
1968), so no `Fraction` is made until an answer is read off.  It visits
only the nonzero columns of each pivot row.  With the same pivot rule, and
the RREF of a matrix unique, its pivot rows divided by their pivots are
exactly the RREF of Gauss-Jordan over field elements.  `rref` returns
those pivot rows and no zero rows; `rank` and `independent_columns` read
only the pivots.  No other elimination path remains: a span-membership
test is an `independent_columns` call.

A matrix with no rows cannot carry its column count, so callers pass it to
`nullspace` and `solve_matrix` wherever a matrix may have no rows.  Both
answer every zero shape (no rows, no unknowns, no right-hand sides) without
eliminating, and otherwise eliminate once; `solve` and `inverse` are the
cases b = one column and b = I of `solve_matrix`.

`independent_columns` is the one "keep the vectors independent modulo a
span" step: radicals, traces, approximations, Ext and homotopy quotients
and complements all pick their bases through it.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import FieldSpec


def zeros(field: FieldSpec, rows: int, cols: int) -> list[list]:
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def identity(field: FieldSpec, n: int) -> list[list]:
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def shape(m: list[list]) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def matmul(field: FieldSpec, a: list[list], b: list[list]) -> list[list]:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"matmul shape mismatch {ra}x{ca} * {rb}x{cb}")
    p = field.p
    out = zeros(field, ra, cb)
    for arow, orow in zip(a, out):
        for aik, brow in zip(arow, b):
            if aik == 0:
                continue
            if p:
                for j, x in enumerate(brow):
                    if x:
                        orow[j] = (orow[j] + aik * x) % p
            else:
                for j, x in enumerate(brow):
                    if x:
                        orow[j] += aik * x
    return out


def mat_add(field: FieldSpec, a, b):
    p = field.p
    if p:
        return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(field: FieldSpec, c, a):
    p = field.p
    if p:
        return [[c * x % p for x in row] for row in a]
    return [[c * x for x in row] for row in a]


def transpose(m: list[list]) -> list[list]:
    rows, cols = shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def mat_vec(field: FieldSpec, m: list[list], v: list) -> list:
    p, zero = field.p, field.zero
    nz = [(j, v[j]) for j in range(shape(m)[1]) if v[j] != 0]
    if p:
        return [sum(row[j] * x for j, x in nz) % p for row in m]
    return [sum((row[j] * x for j, x in nz if row[j] != 0), zero) for row in m]


def hstack(blocks: list[list[list]]) -> list[list]:
    rows = len(blocks[0])
    for b in blocks:
        if len(b) != rows:
            raise ValueError("hstack row mismatch")
    return [sum((b[i] for b in blocks), []) for i in range(rows)]


def vstack(blocks: list[list[list]]) -> list[list]:
    out = []
    for b in blocks:
        out.extend(row[:] for row in b)
    return out


def block_diag(field: FieldSpec, blocks: list[list[list]],
               shapes: list[tuple[int, int]]) -> list[list]:
    """The blocks along the diagonal; shapes[k] is (rows, cols) of blocks[k],
    given because a 0-row block cannot carry its column count."""
    out = zeros(field, sum(r for r, _ in shapes), sum(c for _, c in shapes))
    r0 = c0 = 0
    for b, (br, bc) in zip(blocks, shapes):
        for i in range(br):
            out[r0 + i][c0:c0 + bc] = b[i]
        r0 += br
        c0 += bc
    return out


def _integral(row: list) -> list[int]:
    """A rational row scaled to coprime integers by a positive factor."""
    d = lcm(*{x.denominator for x in row})
    ints = ([x.numerator for x in row] if d == 1 else
            [x.numerator * (d // x.denominator) for x in row])
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _echelon(field: FieldSpec, m: list[list]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of m: (rows, pivot column list).

    Pivot row k, divided by its entry in column pivots[k], is row k of the
    RREF of m; the rows past the pivots are zero.  Over F_p the rows hold
    residues and every pivot is 1.  Over Q they hold coprime integers: a
    row with entry a under the pivot pv of row y becomes
    (pv * row - a * y) / gcd(pv, a), then is divided by its own gcd; pivots
    are left unnormalised.
    """
    p = field.p
    rows = [row[:] for row in m] if p else [_integral(row) for row in m]
    cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        for pr in range(r, len(rows)):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow, pv = rows[r], rows[r][c]
        if p and pv != 1:
            inv = pow(pv, p - 2, p)
            prow = rows[r] = [x * inv % p for x in prow]
        nz = [j for j in range(c, cols) if prow[j]]
        others = [i for i, row in enumerate(rows) if row[c] and i != r]
        if p:
            for i in others:
                row, a = rows[i], rows[i][c]
                for j in nz:
                    row[j] = (row[j] - a * prow[j]) % p
        else:
            for i in others:
                row, a = rows[i], rows[i][c]
                g = gcd(pv, a)
                s, t = pv // g, a // g
                if s != 1:
                    row = [s * x for x in row]
                for j in nz:
                    row[j] -= t * prow[j]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def _over(field: FieldSpec, values: list[int], pv: int) -> list:
    """values / pv as field elements (pv is 1 over F_p)."""
    p = field.p
    if p:
        return [x % p for x in values]
    zero = field.zero
    return [Fraction(x, pv) if x else zero for x in values]


def rref(field: FieldSpec, m: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form without its zero rows: (pivot rows, pivot
    column list)."""
    rows, pivots = _echelon(field, m)
    return [_over(field, row, row[pc]) for row, pc in zip(rows, pivots)], pivots


def rank(field: FieldSpec, m: list[list]) -> int:
    if not m or not m[0]:
        return 0
    return len(_echelon(field, m)[1])


def nullspace(field: FieldSpec, m: list[list], cols: int) -> list[list]:
    """Basis of the right kernel {v : m v = 0} of m, which has `cols` columns.

    The basis is the standard rref one: free columns in increasing order,
    each basis vector has a 1 in its free column.  With no rows it is the
    identity, with no columns it is empty.
    """
    if cols == 0:
        return []
    if not m:
        return identity(field, cols)
    rows, pivots = _echelon(field, m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    # entries[k][f]: the entry at pivot column pivots[k] of basis vector f
    entries = [_over(field, [-row[fc] for fc in free], row[pc])
               for row, pc in zip(rows, pivots)]
    basis = []
    for f, fc in enumerate(free):
        v = [field.zero] * cols
        v[fc] = field.one
        for pc, row in zip(pivots, entries):
            v[pc] = row[f]
        basis.append(v)
    return basis


def solve(field: FieldSpec, m: list[list], b: list) -> list | None:
    """One solution of m x = b, or None if inconsistent (deterministic)."""
    x = solve_matrix(field, m, [[y] for y in b], shape(m)[1], 1)
    return None if x is None else [row[0] for row in x]


def solve_matrix(field: FieldSpec, m: list[list], b: list[list], cols: int,
                 bcols: int) -> list[list] | None:
    """One solution X of m X = b, or None if any column is inconsistent.

    m has `cols` columns and b has `bcols`; with no unknowns m need not carry
    its rows.  One elimination of [m | b] solves every column: the free
    unknowns are zero, and a pivot past m's columns marks an inconsistent
    column.
    """
    if bcols == 0:
        return zeros(field, cols, 0)
    if cols == 0:
        return None if any(x != 0 for row in b for x in row) else []
    if len(m) != len(b):
        raise ValueError("solve_matrix shape mismatch")
    if not m:
        return zeros(field, cols, bcols)
    rows, pivots = _echelon(field, [mr + br for mr, br in zip(m, b)])
    if pivots and pivots[-1] >= cols:
        return None
    x = zeros(field, cols, bcols)
    for row, pc in zip(rows, pivots):
        x[pc] = _over(field, row[cols:], row[pc])
    return x


def row_space_reduce(field: FieldSpec, vectors: list[list]) -> list[list]:
    """Echelonized basis of the span of the given vectors (rows)."""
    return rref(field, vectors)[0]


def is_invertible(field: FieldSpec, m: list[list]) -> bool:
    rows, cols = shape(m)
    return rows == cols and rank(field, m) == rows


def inverse(field: FieldSpec, m: list[list]) -> list[list]:
    rows, cols = shape(m)
    if rows != cols:
        raise ValueError("inverse of non-square matrix")
    x = solve_matrix(field, m, identity(field, rows), rows, rows)
    if x is None:
        raise ValueError("matrix is singular")
    return x


def independent_columns(field: FieldSpec, base: list[list], vectors: list[list]) -> list[int]:
    """Indices of the vectors that are independent modulo span(base), greedily.

    Vector k is kept when it lies outside the span of `base` and of the
    vectors kept before it.  These are the pivot columns, past `base`, of one
    elimination of the matrix whose columns are `base` followed by `vectors`.
    """
    cols = list(base) + list(vectors)
    if not cols or not cols[0]:
        return []
    pivots = _echelon(field, transpose(cols))[1]
    return [c - len(base) for c in pivots if c >= len(base)]


def complement_basis(field: FieldSpec, inside: list[list], dim: int) -> list[list]:
    """Coordinate vectors completing span(inside) to the full space k^dim.

    Deterministic: standard basis vectors are kept in index order when
    independent from span(inside) and the ones kept before them.
    """
    units = identity(field, dim)
    return [units[i] for i in independent_columns(field, inside, units)]
