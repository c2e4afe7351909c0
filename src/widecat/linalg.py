"""Dense exact linear algebra over a FieldSpec.

Matrices are lists of row lists of field elements.  Pivoting is "first
nonzero from the left, first candidate row from the top", so every result
(echelon forms, kernels, solutions) is deterministic for a given input.
The scale here is tiny (corpus matrices stay under ~50 rows) so no effort
is spent on asymptotics; correctness and reproducibility only.

A matrix with no rows cannot carry its column count, so callers pass it to
`nullspace` and `solve_matrix` wherever a matrix may have no rows.  Both
answer every zero shape (no rows, no unknowns, no right-hand sides) without
eliminating, and otherwise make one `rref`; `solve` and `inverse` are the
cases b = one column and b = I of `solve_matrix`.

`independent_columns` is the one "keep the vectors independent modulo a
span" step: radicals, traces, approximations, Ext and homotopy quotients
and complements all pick their bases through it.
"""
from __future__ import annotations

from .fields import FieldSpec


def zeros(field: FieldSpec, rows: int, cols: int) -> list[list]:
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def identity(field: FieldSpec, n: int) -> list[list]:
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def copy_matrix(m: list[list]) -> list[list]:
    return [row[:] for row in m]


def shape(m: list[list]) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def matmul(field: FieldSpec, a: list[list], b: list[list]) -> list[list]:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"matmul shape mismatch {ra}x{ca} * {rb}x{cb}")
    out = zeros(field, ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b[k]
            for j in range(cb):
                if brow[j] != 0:
                    orow[j] = field.add(orow[j], field.mul(aik, brow[j]))
    return out


def mat_add(field: FieldSpec, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(field: FieldSpec, c, a):
    return [[field.mul(c, x) for x in row] for row in a]


def transpose(m: list[list]) -> list[list]:
    rows, cols = shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def mat_vec(field: FieldSpec, m: list[list], v: list) -> list:
    rows, cols = shape(m)
    out = [field.zero] * rows
    for i in range(rows):
        acc = field.zero
        row = m[i]
        for j in range(cols):
            if row[j] != 0 and v[j] != 0:
                acc = field.add(acc, field.mul(row[j], v[j]))
        out[i] = acc
    return out


def hstack(blocks: list[list[list]]) -> list[list]:
    rows = len(blocks[0])
    for b in blocks:
        if len(b) != rows:
            raise ValueError("hstack row mismatch")
    return [sum((b[i] for b in blocks), []) for i in range(rows)]


def vstack(blocks: list[list[list]]) -> list[list]:
    out = []
    for b in blocks:
        out.extend(copy_matrix(b))
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


def rref(field: FieldSpec, m: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = copy_matrix(m)
    rows, cols = shape(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(field: FieldSpec, m: list[list]) -> int:
    if not m or not m[0]:
        return 0
    return len(rref(field, m)[1])


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
    red, pivots = rref(field, m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
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
    its rows.  One rref of [m | b] solves every column: the free unknowns are
    zero, and a pivot past m's columns marks an inconsistent column.
    """
    if bcols == 0:
        return zeros(field, cols, 0)
    if cols == 0:
        return None if any(x != 0 for row in b for x in row) else []
    if len(m) != len(b):
        raise ValueError("solve_matrix shape mismatch")
    if not m:
        return zeros(field, cols, bcols)
    red, pivots = rref(field, [mr + br for mr, br in zip(m, b)])
    if pivots and pivots[-1] >= cols:
        return None
    x = zeros(field, cols, bcols)
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols:]
    return x


def row_space_reduce(field: FieldSpec, vectors: list[list]) -> list[list]:
    """Echelonized basis of the span of the given vectors (rows)."""
    if not vectors:
        return []
    red, pivots = rref(field, vectors)
    return [red[i] for i in range(len(pivots))]


def in_row_span(field: FieldSpec, basis_rref: list[list], v: list) -> bool:
    """Is v in the span of an already-echelonized row basis?"""
    v = v[:]
    for row in basis_rref:
        pc = next((j for j, x in enumerate(row) if x != 0), None)
        if pc is None:
            continue
        if v[pc] != 0:
            f = field.div(v[pc], row[pc])
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return all(x == 0 for x in v)


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
    rref of the matrix whose columns are `base` followed by `vectors`.
    """
    cols = list(base) + list(vectors)
    if not cols or not cols[0]:
        return []
    _, pivots = rref(field, transpose(cols))
    return [c - len(base) for c in pivots if c >= len(base)]


def complement_basis(field: FieldSpec, inside: list[list], dim: int) -> list[list]:
    """Coordinate vectors completing span(inside) to the full space k^dim.

    Deterministic: standard basis vectors are kept in index order when
    independent from span(inside) and the ones kept before them.
    """
    units = identity(field, dim)
    return [units[i] for i in independent_columns(field, inside, units)]
