"""Exact linear algebra over Q and prime fields."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widecat import linalg
from widecat.fields import QQ, FieldSpec, field_from_name

F101 = field_from_name("F101")
FIELDS = [QQ, F101]


@pytest.mark.parametrize("fd", FIELDS, ids=lambda f: f.name())
class TestBasics:
    def test_rref_idempotent(self, fd):
        m = [[fd.of(x) for x in row] for row in [[1, 2, 3], [2, 4, 7], [0, 1, 1]]]
        r1, piv1 = linalg.rref(fd, m)
        r2, piv2 = linalg.rref(fd, r1)
        assert r1 == r2 and piv1 == piv2

    def test_rank_and_nullspace(self, fd):
        m = [[fd.of(x) for x in row] for row in [[1, 2, 3], [2, 4, 6], [1, 0, 1]]]
        assert linalg.rank(fd, m) == 2
        ns = linalg.nullspace(fd, m, 3)
        assert len(ns) == 1
        for row in m:
            s = fd.zero
            for a, b in zip(row, ns[0]):
                s = fd.add(s, fd.mul(a, b))
            assert s == fd.zero

    def test_solve_and_inverse(self, fd):
        m = [[fd.of(x) for x in row] for row in [[2, 1], [1, 1]]]
        b = [fd.of(3), fd.of(2)]
        x = linalg.solve(fd, m, b)
        assert x == [fd.of(1), fd.of(1)]
        inv = linalg.inverse(fd, m)
        assert linalg.matmul(fd, m, inv) == linalg.identity(fd, 2)

    def test_solve_inconsistent(self, fd):
        m = [[fd.of(1), fd.of(1)], [fd.of(1), fd.of(1)]]
        assert linalg.solve(fd, m, [fd.of(0), fd.of(1)]) is None

    def test_complement_basis(self, fd):
        inside = [[fd.of(1), fd.of(1), fd.of(0)]]
        comp = linalg.complement_basis(fd, inside, 3)
        assert len(comp) == 2
        assert linalg.rank(fd, inside + comp) == 3

    def test_column_space_and_row_span(self, fd):
        m = [[fd.of(1), fd.of(2)], [fd.of(2), fd.of(4)]]
        assert linalg.independent_columns(fd, [], linalg.transpose(m)) == [0]
        basis = linalg.row_space_reduce(fd, m)
        assert basis == [[fd.of(1), fd.of(2)]]
        assert linalg.independent_columns(
            fd, basis, [[fd.of(2), fd.of(4)], [fd.of(1), fd.of(0)]]) == [1]


def test_field_arithmetic_q():
    assert QQ.of("3/2") == Fraction(3, 2)
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    assert QQ.to_str(Fraction(-1, 3)) == "-1/3"


def test_field_arithmetic_f101():
    assert F101.of(102) == 1
    assert F101.mul(F101.inv(2), 2) == 1
    assert F101.of("1/2") == F101.inv(2)
    with pytest.raises(ZeroDivisionError):
        F101.inv(0)


def test_unknown_field_rejected():
    from widecat.fields import FieldError
    with pytest.raises(FieldError):
        field_from_name("Z")
    with pytest.raises(FieldError):
        field_from_name("Fp 4")


_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def _matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    data = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return data


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.sampled_from(FIELDS))
def test_rank_nullity(data, fd):
    m = [[fd.of(x) for x in row] for row in data]
    cols = len(m[0])
    assert linalg.rank(fd, m) + len(linalg.nullspace(fd, m, cols)) == cols


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.sampled_from(FIELDS))
def test_solve_consistency(data, fd):
    """Whenever solve succeeds the solution checks out; rref certifies failure."""
    m = [[fd.of(x) for x in row] for row in data]
    rows, cols = len(m), len(m[0])
    b = [fd.of((i * 2 - 1) % 3) for i in range(rows)]
    x = linalg.solve(fd, m, b)
    if x is not None:
        got = linalg.mat_vec(fd, m, x)
        assert got == b
    else:
        aug = [row + [bb] for row, bb in zip(m, b)]
        assert linalg.rank(fd, aug) == linalg.rank(fd, m) + 1


@st.composite
def _span_problems(draw):
    """(base, vectors) of one length, with zero and repeated vectors mixed in."""
    dim = draw(st.integers(min_value=0, max_value=4))
    vec = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
    base = draw(st.lists(vec, max_size=3))
    vectors: list[list[int]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        earlier = base + vectors + [[0] * dim]
        vectors.append(draw(st.one_of(vec, st.sampled_from(earlier))))
    return base, vectors


def _greedy_independent(fd, base, vectors):
    """Reference: keep v when it raises the rank of the running span, both
    ranks read off the per-cell Gauss-Jordan `_reference_rref`."""
    span, kept = list(base), []
    rank = len(_reference_rref(fd, span)[1])
    for k, v in enumerate(vectors):
        grown = len(_reference_rref(fd, span + [v])[1])
        if grown > rank:
            kept.append(k)
            span.append(v)
            rank = grown
    return kept


@settings(max_examples=150, deadline=None)
@given(_span_problems(), st.sampled_from(FIELDS))
@example(([], [[1, 0], [0, 0], [1, 0], [2, 1]]), QQ)
@example(([[1, 1]], [[0, 0], [2, 2], [1, 0], [1, 0]]), F101)
@example(([[], []], [[], []]), QQ)
@example(([], [[], [], []]), F101)
def test_independent_columns_matches_greedy_span_loop(problem, fd):
    base, vectors = ([[fd.of(x) for x in v] for v in vs] for vs in problem)
    assert linalg.independent_columns(fd, base, vectors) == \
        _greedy_independent(fd, base, vectors)


@pytest.mark.parametrize("fd", FIELDS, ids=lambda f: f.name())
class TestZeroShapes:
    """A matrix with no rows cannot carry its column count, so the caller
    passes it; these shapes are answered without an elimination."""

    @pytest.fixture(autouse=True)
    def no_elimination(self, monkeypatch):
        def boom(field, m):
            raise AssertionError("zero shape reached an elimination")
        monkeypatch.setattr(linalg, "_echelon", boom)

    def test_nullspace_without_rows_is_the_identity(self, fd):
        assert linalg.nullspace(fd, [], 3) == linalg.identity(fd, 3)

    def test_nullspace_without_columns_is_empty(self, fd):
        assert linalg.nullspace(fd, [], 0) == []
        assert linalg.nullspace(fd, [[], []], 0) == []

    def test_solve_matrix_without_rows(self, fd):
        assert linalg.solve_matrix(fd, [], [], 2, 3) == linalg.zeros(fd, 2, 3)

    def test_solve_matrix_without_unknowns(self, fd):
        zero = [[fd.zero, fd.zero]]
        assert linalg.solve_matrix(fd, [[]], zero, 0, 2) == []
        assert linalg.solve_matrix(fd, [], [[fd.zero, fd.one]], 0, 2) is None

    def test_solve_matrix_without_right_hand_sides(self, fd):
        m = [[fd.one, fd.one], [fd.one, fd.one]]
        assert linalg.solve_matrix(fd, m, [[], []], 2, 0) == [[], []]


@st.composite
def _systems(draw):
    """(m, B): an r x c matrix and an r x k right-hand side, r, c, k >= 1."""
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    bcols = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(_entries, min_size=bcols, max_size=bcols),
                      min_size=rows, max_size=rows))
    return m, b


@settings(max_examples=100, deadline=None)
@given(_systems(), st.sampled_from(FIELDS))
@example(([[1, 1], [1, 1]], [[1, 0], [1, 1]]), QQ)
def test_solve_matrix_is_columnwise_solve(system, fd):
    m, b = ([[fd.of(x) for x in row] for row in mat] for mat in system)
    cols, bcols = len(m[0]), len(b[0])
    x = linalg.solve_matrix(fd, m, b, cols, bcols)
    per_column = [linalg.solve(fd, m, [row[j] for row in b])
                  for j in range(bcols)]
    if any(c is None for c in per_column):
        assert x is None
    else:
        assert x == linalg.transpose(per_column)
        assert linalg.matmul(fd, m, x) == b


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.sampled_from(FIELDS))
def test_inverse_is_solve_matrix_against_the_identity(data, fd):
    n = min(len(data), len(data[0]))
    m = [[fd.of(x) for x in row[:n]] for row in data[:n]]
    if not linalg.is_invertible(fd, m):
        with pytest.raises(ValueError):
            linalg.inverse(fd, m)
        return
    inv = linalg.inverse(fd, m)
    assert inv == linalg.solve_matrix(fd, m, linalg.identity(fd, n), n, n)
    assert linalg.matmul(fd, m, inv) == linalg.identity(fd, n)


# -- the elimination kernel against generic Gauss-Jordan --------------------

ALL_FIELDS = [QQ] + [field_from_name(f"F{p}") for p in (2, 3, 101)]


def _reference_rref(fd, m):
    """Gauss-Jordan with one FieldSpec operation per cell: pivot on the first
    nonzero from the left, first row from the top, normalise, clear."""
    m = [row[:] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = fd.inv(m[r][c])
        m[r] = [fd.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [fd.sub(x, fd.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _reference_nullspace(fd, m, cols):
    red, pivots = _reference_rref(fd, m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [fd.zero] * cols
        v[fc] = fd.one
        for r, pc in enumerate(pivots):
            v[pc] = fd.neg(red[r][fc])
        basis.append(v)
    return basis


def _reference_solve_matrix(fd, m, b, cols):
    red, pivots = _reference_rref(fd, [mr + br for mr, br in zip(m, b)])
    if pivots and pivots[-1] >= cols:
        return None
    x = linalg.zeros(fd, cols, len(b[0]))
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols:]
    return x


@st.composite
def _field_matrices(draw, fd, rows=None, cols=None):
    """Tall, wide and square matrices with zero rows, zero columns and
    repeated (scaled) rows mixed in; over Q the entries are non-integral
    and negative, with denominators up to 6."""
    rows = rows or draw(st.integers(min_value=1, max_value=7))
    cols = cols or draw(st.integers(min_value=1, max_value=7))
    if fd is QQ:
        nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    else:
        nonzero = st.integers(1, fd.p - 1)
    entry = st.one_of(st.just(fd.zero), nonzero)
    m = []
    for i in range(rows):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat"]))
        if kind == "zero":
            m.append([fd.zero] * cols)
        elif kind == "repeat" and m:
            c = draw(nonzero)
            m.append([fd.mul(c, x) for x in draw(st.sampled_from(m))])
        else:
            m.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        for row in m:
            row[j] = fd.zero
    return m


def _assert_elements(fd, mat):
    cells = [x for row in mat for x in row]
    if fd is QQ:
        assert all(type(x) is Fraction for x in cells)
    else:
        assert all(type(x) is int and 0 <= x < fd.p for x in cells)


_fields = st.sampled_from(ALL_FIELDS)


@settings(max_examples=200, deadline=None)
@given(_fields, st.data())
def test_rref_rank_and_nullspace_match_generic_gauss_jordan(fd, data):
    m = data.draw(_field_matrices(fd))
    cols = len(m[0])
    want, want_pivots = _reference_rref(fd, m)
    red, pivots = linalg.rref(fd, m)
    assert (red, pivots) == (want[:len(want_pivots)], want_pivots)
    assert all(x == 0 for row in want[len(want_pivots):] for x in row)
    _assert_elements(fd, red)
    assert linalg.rank(fd, m) == len(want_pivots)
    basis = linalg.nullspace(fd, m, cols)
    assert basis == _reference_nullspace(fd, m, cols)
    _assert_elements(fd, basis)


@settings(max_examples=200, deadline=None)
@given(_fields, st.data())
def test_solve_matrix_matches_generic_gauss_jordan(fd, data):
    m = data.draw(_field_matrices(fd))
    bcols = data.draw(st.integers(min_value=1, max_value=3))
    b = data.draw(_field_matrices(fd, rows=len(m), cols=bcols))
    if data.draw(st.booleans()):  # a consistent system half of the time
        x0 = data.draw(_field_matrices(fd, rows=len(m[0]), cols=bcols))
        b = linalg.matmul(fd, m, x0)
    x = linalg.solve_matrix(fd, m, b, len(m[0]), bcols)
    assert x == _reference_solve_matrix(fd, m, b, len(m[0]))
    if x is not None:
        _assert_elements(fd, x)


@settings(max_examples=200, deadline=None)
@given(_fields, st.data())
def test_independent_columns_match_generic_gauss_jordan(fd, data):
    vecs = data.draw(_field_matrices(fd))
    nbase = data.draw(st.integers(min_value=0, max_value=len(vecs)))
    base, vectors = vecs[:nbase], vecs[nbase:]
    _, pivots = _reference_rref(fd, linalg.transpose(vecs))
    assert linalg.independent_columns(fd, base, vectors) == \
        [c - nbase for c in pivots if c >= nbase]


def _reference_products(fd, m, x0, v, c):
    """matmul, mat_vec, mat_add and mat_scale with one FieldSpec call per cell."""
    def dot(row, col):
        s = fd.zero
        for a, b in zip(row, col):
            s = fd.add(s, fd.mul(a, b))
        return s
    return ([[dot(row, col) for col in zip(*x0)] for row in m],
            [dot(row, v) for row in m],
            [[fd.add(a, b) for a, b in zip(r, r2)] for r, r2 in zip(m, m[::-1])],
            [[fd.mul(c, a) for a in row] for row in m])


@pytest.mark.parametrize("fd", FIELDS, ids=lambda f: f.name())
def test_kernel_makes_no_per_cell_field_calls(fd, monkeypatch):
    """Every elimination of `linalg` and the four products run without
    FieldSpec arithmetic, and keep the values and element types."""
    m = [[fd.of(Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4)) for j in range(8)]
         for i in range(6)]
    m[4] = [fd.mul(fd.of(2), x) for x in m[1]]  # a repeated row
    x0 = [[fd.of(j - i) for j in range(2)] for i in range(8)]
    v, c = [fd.of(Fraction(j % 3, 2)) for j in range(8)], fd.of(Fraction(-5, 3))
    b = _reference_products(fd, m, x0, v, c)[0]
    # an invertible 5 x 5 matrix: lower times upper unitriangular
    low = [[fd.of(Fraction(i - j + 2, 1 + j)) if j <= i else fd.zero for j in range(5)]
           for i in range(5)]
    up = [[fd.of(Fraction(j - i, 2)) if j > i else fd.of(int(i == j)) for j in range(5)]
          for i in range(5)]
    sq = _reference_products(fd, low, up, v[:5], c)[0]
    red, pivots = _reference_rref(fd, m)
    rank = len(pivots)
    assert rank == 5 and all(x == 0 for row in red[rank:] for x in row)
    free_units = _reference_rref(fd, linalg.transpose(m + linalg.identity(fd, 8)))[1]
    inv = _reference_solve_matrix(fd, sq, linalg.identity(fd, 5), 5)
    assert inv is not None
    want = ((red[:rank], pivots), _reference_nullspace(fd, m, 8),
            _reference_solve_matrix(fd, m, b, 8), rank,
            [k - 2 for k in _reference_rref(fd, linalg.transpose(m))[1] if k >= 2],
            red[:rank], [linalg.identity(fd, 8)[k - 6] for k in free_units if k >= 6],
            [row[0] for row in _reference_solve_matrix(fd, m, [[r[0]] for r in b], 8)],
            inv) + _reference_products(fd, m, x0, v, c)

    def boom(*args):
        raise AssertionError("per-cell FieldSpec arithmetic in the kernel")
    for name in ("add", "sub", "mul", "inv"):
        monkeypatch.setattr(FieldSpec, name, boom)
    got = (linalg.rref(fd, m), linalg.nullspace(fd, m, 8),
           linalg.solve_matrix(fd, m, b, 8, 2), linalg.rank(fd, m),
           linalg.independent_columns(fd, m[:2], m[2:]),
           linalg.row_space_reduce(fd, m), linalg.complement_basis(fd, m, 8),
           linalg.solve(fd, m, [r[0] for r in b]), linalg.inverse(fd, sq),
           linalg.matmul(fd, m, x0), linalg.mat_vec(fd, m, v),
           linalg.mat_add(fd, m, m[::-1]), linalg.mat_scale(fd, c, m))
    monkeypatch.undo()
    assert got == want
    for mat in (got[0][0], got[1], got[2], got[5], [got[7]], got[8]):
        _assert_elements(fd, mat)
    cells = [x for k in (9, 11, 12) for row in got[k] for x in row] + got[10]
    assert {type(x) for x in cells} == {int if fd.p else Fraction}
    assert len(want[1]) == 8 - rank >= 3
