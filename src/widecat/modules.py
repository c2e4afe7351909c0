"""Modules (quiver representations) over a bound path algebra.

A Module assigns to each vertex an exact vector space dimension and to each
arrow a matrix (target_dim x source_dim).  Everything downstream — Hom
spaces, kernels, images, cokernels, traces, decompositions — is plain exact
linear algebra from `linalg`.

Every subrepresentation (kernel, image, radical, trace, socle) is built by
`submodule` from a per-vertex basis of its subspaces.

Modules are treated as immutable after construction.
"""
from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .algebra import Algebra
from .errors import AlgebraMismatch, DecompositionFailure, WidecatError


def _mm(field, a, b, r: int, k: int, c: int):
    """Product of an r x k and a k x c matrix with shapes given explicitly.

    Plain list-of-rows matrices cannot represent the column count of a
    0-row matrix, so every multiplication that may touch a 0-dimensional
    vertex space goes through here.
    """
    if r == 0 or c == 0 or k == 0:
        return linalg.zeros(field, r, c)
    return linalg.matmul(field, a, b)


class Module:
    def __init__(self, alg: Algebra, dims, mats, check: bool = False):
        self.alg = alg
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != alg.n:
            raise ValueError("dimension vector length != number of vertices")
        self.mats = {}
        for ai, a in enumerate(alg.arrows):
            r, c = self.dims[a.target], self.dims[a.source]
            m = mats.get(ai)
            if m is None or r == 0 or c == 0:
                m = linalg.zeros(alg.field, r, c)
            self.mats[ai] = m
        if check:
            self._validate()

    def _validate(self):
        for ai, a in enumerate(self.alg.arrows):
            r, c = linalg.shape(self.mats[ai])
            er, ec = self.dims[a.target], self.dims[a.source]
            if r != er or (r > 0 and c != ec):
                raise ValueError(f"arrow {a.label}: matrix is {r}x{c}, expected "
                                 f"{er}x{ec}")
        for rel in self.alg._relations:
            src = self.alg.arrows[rel[0][1][0]].source
            tgt = self.alg.arrows[rel[0][1][-1]].target
            acc = linalg.zeros(self.alg.field, self.dims[tgt], self.dims[src])
            for coeff, arrs in rel:
                m = self.path_action((src, arrs))
                acc = linalg.mat_add(self.alg.field, acc, linalg.mat_scale(self.alg.field, coeff, m))
            if any(x != 0 for row in acc for x in row):
                raise ValueError("relation does not vanish on the module")

    # -- structure --------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_action(self, path) -> list[list]:
        """Matrix of a path acting M_source -> M_target."""
        src, arrs = path
        m = linalg.identity(self.alg.field, self.dims[src])
        for ai in arrs:
            a = self.alg.arrows[ai]
            m = _mm(self.alg.field, self.mats[ai], m,
                    self.dims[a.target], self.dims[a.source], self.dims[src])
        return m

    def __repr__(self):
        return f"Module{self.dims}"


class ModuleMorphism:
    def __init__(self, source: Module, target: Module, mats):
        if source.alg is not target.alg:
            raise AlgebraMismatch("morphism between modules over different algebras")
        self.source = source
        self.target = target
        self.mats = {}
        for v in range(source.alg.n):
            r, c = target.dims[v], source.dims[v]
            self.mats[v] = mats[v] if r and c else linalg.zeros(source.alg.field, r, c)

    def compose(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """self o other (apply `other` first)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise AlgebraMismatch("composition endpoint mismatch")
        alg = self.source.alg
        mats = {v: _mm(alg.field, self.mats[v], other.mats[v],
                       self.target.dims[v], self.source.dims[v], other.source.dims[v])
                for v in range(alg.n)}
        return ModuleMorphism(other.source, self.target, mats)

    def add(self, other: "ModuleMorphism") -> "ModuleMorphism":
        alg = self.source.alg
        mats = {v: linalg.mat_add(alg.field, self.mats[v], other.mats[v])
                for v in range(alg.n)}
        return ModuleMorphism(self.source, self.target, mats)

    def scale(self, c) -> "ModuleMorphism":
        alg = self.source.alg
        mats = {v: linalg.mat_scale(alg.field, c, self.mats[v]) for v in range(alg.n)}
        return ModuleMorphism(self.source, self.target, mats)

    def neg(self) -> "ModuleMorphism":
        return self.scale(self.source.alg.field.of(-1))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for m in self.mats.values() for row in m for x in row)

    def rank(self) -> int:
        f = self.source.alg.field
        return sum(linalg.rank(f, m) for m in self.mats.values())

    def is_injective(self) -> bool:
        return self.rank() == self.source.total_dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.total_dim

    def is_invertible(self) -> bool:
        return (self.source.dims == self.target.dims
                and all(linalg.is_invertible(self.source.alg.field, m)
                        for m in self.mats.values()))

    def flatten(self) -> list:
        out = []
        for v in range(self.source.alg.n):
            for row in self.mats[v]:
                out.extend(row)
        return out

    def __repr__(self):
        return f"ModuleMorphism({self.source.dims} -> {self.target.dims})"


def identity_morphism(m: Module) -> ModuleMorphism:
    f = m.alg.field
    return ModuleMorphism(m, m, {v: linalg.identity(f, m.dims[v]) for v in range(m.alg.n)})


def zero_morphism(source: Module, target: Module) -> ModuleMorphism:
    f = source.alg.field
    return ModuleMorphism(source, target,
                          {v: linalg.zeros(f, target.dims[v], source.dims[v])
                           for v in range(source.alg.n)})


def linear_combination(coeffs, maps: list[ModuleMorphism], source: Module,
                       target: Module) -> ModuleMorphism:
    """Sum of c * f over coeffs and maps; the zero map source -> target if empty."""
    out = None
    for c, f in zip(coeffs, maps):
        term = f.scale(c)
        out = term if out is None else out.add(term)
    return zero_morphism(source, target) if out is None else out


def morphism_from_flat(source: Module, target: Module, flat: list) -> ModuleMorphism:
    mats = {}
    pos = 0
    for v in range(source.alg.n):
        r, c = target.dims[v], source.dims[v]
        mats[v] = [flat[pos + i * c: pos + (i + 1) * c] for i in range(r)]
        pos += r * c
    return ModuleMorphism(source, target, mats)


# -- basic module constructions -------------------------------------------

def zero_module(alg: Algebra) -> Module:
    return Module(alg, [0] * alg.n, {})


def simple_module(alg: Algebra, v: int) -> Module:
    dims = [0] * alg.n
    dims[v] = 1
    return Module(alg, dims, {})


def direct_sum(mods: list[Module]) -> Module:
    if not mods:
        raise ValueError("direct_sum of empty list; use zero_module")
    alg = mods[0].alg
    for m in mods:
        if m.alg is not alg:
            raise AlgebraMismatch("direct sum across algebras")
    dims = [sum(m.dims[v] for m in mods) for v in range(alg.n)]
    mats = {ai: linalg.block_diag(alg.field, [m.mats[ai] for m in mods],
                                  [(m.dims[a.target], m.dims[a.source]) for m in mods])
            for ai, a in enumerate(alg.arrows)}
    return Module(alg, dims, mats)


def sum_inclusion(mods: list[Module], k: int, total: Module | None = None) -> ModuleMorphism:
    total = total or direct_sum(mods)
    alg = mods[0].alg
    f = alg.field
    mats = {}
    for v in range(alg.n):
        m = linalg.zeros(f, total.dims[v], mods[k].dims[v])
        off = sum(mods[i].dims[v] for i in range(k))
        for i in range(mods[k].dims[v]):
            m[off + i][i] = f.one
        mats[v] = m
    return ModuleMorphism(mods[k], total, mats)


def hstack_morphisms(fs: list[ModuleMorphism], source_sum: Module | None = None) -> ModuleMorphism:
    """Combine maps f_k: M_k -> N into one map from the direct sum of sources."""
    target = fs[0].target
    alg = target.alg
    source_sum = source_sum or direct_sum([f.source for f in fs])
    mats = {v: linalg.hstack([f.mats[v] for f in fs]) for v in range(alg.n)}
    return ModuleMorphism(source_sum, target, mats)


def vstack_morphisms(fs: list[ModuleMorphism], target_sum: Module | None = None) -> ModuleMorphism:
    """Combine maps f_k: M -> N_k into one map into the direct sum of targets."""
    source = fs[0].source
    alg = source.alg
    target_sum = target_sum or direct_sum([f.target for f in fs])
    mats = {v: linalg.vstack([f.mats[v] for f in fs]) for v in range(alg.n)}
    return ModuleMorphism(source, target_sum, mats)


# -- projectives and injectives -------------------------------------------

def projective_sum(alg: Algebra, vertices: list[int]) -> tuple[Module, list[dict]]:
    """Direct sum of indecomposable projectives P_v for v in `vertices`.

    Returns (module, layout) with layout[k][w] = (offset, path_indices): the
    coordinates of summand k at vertex w are indexed by the listed basis
    paths of the algebra (paths from vertices[k] to w).
    """
    f = alg.field
    dims = [0] * alg.n
    layout: list[dict] = []
    for v in vertices:
        entry = {}
        for w in range(alg.n):
            paths = alg.paths_from_to(v, w)
            entry[w] = (dims[w], paths)
            dims[w] += len(paths)
        layout.append(entry)
    mats = {}
    for ai, a in enumerate(alg.arrows):
        m = linalg.zeros(f, dims[a.target], dims[a.source])
        arrow = alg.path_pos[(a.source, (ai,))]
        for k, v in enumerate(vertices):
            s_off, s_paths = layout[k][a.source]
            t_off, t_paths = layout[k][a.target]
            t_pos = {pi: r for r, pi in enumerate(t_paths)}
            for c, pi in enumerate(s_paths):
                for qi, coeff in alg.mult(arrow, pi).items():
                    m[t_off + t_pos[qi]][s_off + c] = coeff
        mats[ai] = m
    return Module(alg, dims, mats), layout


def projective_module(alg: Algebra, v: int) -> Module:
    return projective_sum(alg, [v])[0]


def injective_sum(alg: Algebra, vertices: list[int]) -> tuple[Module, list[dict]]:
    """Direct sum of indecomposable injectives I_v (duals of paths into v)."""
    f = alg.field
    dims = [0] * alg.n
    layout: list[dict] = []
    for v in vertices:
        entry = {}
        for w in range(alg.n):
            paths = alg.paths_from_to(w, v)  # coordinates dual to paths w -> v
            entry[w] = (dims[w], paths)
            dims[w] += len(paths)
        layout.append(entry)
    mats = {}
    for ai, a in enumerate(alg.arrows):
        # a: w -> u acts (I_v)_w -> (I_v)_u by (a.phi)(q) = phi(q composed after a)
        m = linalg.zeros(f, dims[a.target], dims[a.source])
        arrow = alg.path_pos[(a.source, (ai,))]
        for k, v in enumerate(vertices):
            s_off, s_paths = layout[k][a.source]
            t_off, t_paths = layout[k][a.target]
            s_pos = {pi: c for c, pi in enumerate(s_paths)}
            for r, qi in enumerate(t_paths):
                for pi, coeff in alg.mult(qi, arrow).items():
                    m[t_off + r][s_off + s_pos[pi]] = coeff
        mats[ai] = m
    return Module(alg, dims, mats), layout


def injective_module(alg: Algebra, v: int) -> Module:
    return injective_sum(alg, [v])[0]


# -- hom spaces -------------------------------------------------------------

def hom_basis(m: Module, n: Module) -> list[ModuleMorphism]:
    """Deterministic basis of Hom(m, n)."""
    if m.alg is not n.alg:
        raise AlgebraMismatch("hom between modules over different algebras")
    alg = m.alg
    f = alg.field
    offsets = []
    pos = 0
    for v in range(alg.n):
        offsets.append(pos)
        pos += n.dims[v] * m.dims[v]
    nvars = pos
    if nvars == 0:
        return []
    rows = []
    for ai, a in enumerate(alg.arrows):
        s, t = a.source, a.target
        ma, na = m.mats[ai], n.mats[ai]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = [f.zero] * nvars
                # (f_t . m_a)[i][j] = sum_k f_t[i,k] m_a[k,j]
                for k in range(m.dims[t]):
                    if ma[k][j] != 0:
                        row[offsets[t] + i * m.dims[t] + k] = \
                            f.add(row[offsets[t] + i * m.dims[t] + k], ma[k][j])
                # -(n_a . f_s)[i][j] = -sum_k n_a[i,k] f_s[k,j]
                for k in range(n.dims[s]):
                    if na[i][k] != 0:
                        idx = offsets[s] + k * m.dims[s] + j
                        row[idx] = f.sub(row[idx], na[i][k])
                if any(x != 0 for x in row):
                    rows.append(row)
    return [morphism_from_flat(m, n, vec) for vec in linalg.nullspace(f, rows, nvars)]


def hom_dim(m: Module, n: Module) -> int:
    return len(hom_basis(m, n))


# -- kernels, images, cokernels --------------------------------------------

def submodule(m: Module, vecs: dict[int, list[list]], what: str
              ) -> tuple[Module, ModuleMorphism]:
    """(S, inclusion S -> m) for per-vertex bases vecs[v] of subspaces of m_v.

    The subspaces must be closed under the arrows; the arrow matrices of S
    are solved through the inclusion, and `what` names S in the error raised
    when they are not.
    """
    alg = m.alg
    dims = [len(vecs[v]) for v in range(alg.n)]
    incls = {v: linalg.transpose(vecs[v]) for v in range(alg.n)}
    mats = {}
    for ai, a in enumerate(alg.arrows):
        mats[ai] = _solve_through(alg.field, incls[a.target], m.mats[ai], incls[a.source],
                                  m.dims[a.target], dims[a.target],
                                  m.dims[a.source], dims[a.source], what)
    s = Module(alg, dims, mats)
    return s, ModuleMorphism(s, m, incls)


def kernel(f: ModuleMorphism) -> tuple[Module, ModuleMorphism]:
    """(K, inclusion K -> source)."""
    alg = f.source.alg
    vecs = {v: linalg.nullspace(alg.field, f.mats[v], f.source.dims[v])
            for v in range(alg.n)}
    return submodule(f.source, vecs, "kernel")


def _solve_through(fd, incl_t, big_mat, incl_s, amb_t: int, sub_t: int,
                   amb_s: int, sub_s: int, what: str):
    """Induced arrow matrix of a subrepresentation.

    Solves incl_t . X = big_mat . incl_s, where incl_t (amb_t x sub_t) and
    incl_s (amb_s x sub_s) have full column rank.  The shapes are passed
    because a 0-dimensional space leaves a matrix with no rows.
    """
    prod = _mm(fd, big_mat, incl_s, amb_t, amb_s, sub_s)
    sol = linalg.solve_matrix(fd, incl_t, prod, sub_t, sub_s)
    if sol is None:
        raise WidecatError(
            f"{what} is not a subrepresentation: an arrow maps its {sub_s}-dimensional "
            f"subspace of k^{amb_s} outside its {sub_t}-dimensional subspace of k^{amb_t}")
    return sol


def factor_through_inclusion(incl: ModuleMorphism, g: ModuleMorphism) -> ModuleMorphism:
    """The unique h with incl . h = g, for incl a monomorphism."""
    alg = incl.source.alg
    mats = {}
    for v in range(alg.n):
        sol = linalg.solve_matrix(alg.field, incl.mats[v], g.mats[v],
                                  incl.source.dims[v], g.source.dims[v])
        if sol is None:
            raise WidecatError(f"map {g.source.dims} -> {g.target.dims} does not factor "
                               f"through the inclusion {incl.source.dims} -> "
                               f"{incl.target.dims} at vertex {alg.vertex_labels[v]}")
        mats[v] = sol
    return ModuleMorphism(g.source, incl.source, mats)


def image(f: ModuleMorphism) -> tuple[Module, ModuleMorphism]:
    """(I, inclusion I -> target)."""
    return submodule(f.target, image_span(f.target, [f]), "image")


def image_span(target: Module, maps: list[ModuleMorphism]) -> dict[int, list[list]]:
    """Per-vertex basis of the sum of the images of maps into target.

    The basis at a vertex is the greedily independent columns of the maps,
    taken in order."""
    alg = target.alg
    vecs = {}
    for v in range(alg.n):
        cols = [[f.mats[v][r][c] for r in range(target.dims[v])]
                for f in maps for c in range(f.source.dims[v])]
        vecs[v] = [cols[k] for k in linalg.independent_columns(alg.field, [], cols)]
    return vecs


def cokernel(f: ModuleMorphism) -> tuple[Module, ModuleMorphism]:
    """(C, projection target -> C)."""
    alg = f.source.alg
    fd = alg.field
    span = image_span(f.target, [f])
    projs = {}
    sections = {}
    dims = []
    for v in range(alg.n):
        d = f.target.dims[v]
        img_cols = span[v]
        comp = linalg.complement_basis(fd, img_cols, d)
        dims.append(len(comp))
        t = linalg.transpose(img_cols + comp)  # d x d, invertible
        tinv = linalg.inverse(fd, t)
        projs[v] = tinv[len(img_cols):]
        sections[v] = linalg.transpose(comp)
    mats = {}
    for ai, a in enumerate(alg.arrows):
        dt, ds = f.target.dims[a.target], f.target.dims[a.source]
        step = _mm(fd, f.target.mats[ai], sections[a.source],
                   dt, ds, dims[a.source])
        mats[ai] = _mm(fd, projs[a.target], step, dims[a.target], dt, dims[a.source])
    c = Module(alg, dims, mats)
    return c, ModuleMorphism(f.target, c, projs)


# -- radical, top, socle -----------------------------------------------------

def radical_vectors(m: Module) -> dict[int, list[list]]:
    """Per-vertex basis of rad M, the sum of the images of the arrows."""
    alg = m.alg
    vecs = {}
    for v in range(alg.n):
        cols = []
        for ai, a in enumerate(alg.arrows):
            if a.target == v:
                for j in range(m.dims[a.source]):
                    cols.append([m.mats[ai][i][j] for i in range(m.dims[v])])
        vecs[v] = [cols[k] for k in linalg.independent_columns(alg.field, [], cols)]
    return vecs


def radical_inclusion(m: Module) -> tuple[Module, ModuleMorphism]:
    """rad M as a submodule, with its inclusion."""
    return submodule(m, radical_vectors(m), "radical")


def top_lifts(m: Module) -> list[tuple[int, list]]:
    """Vectors lifting a basis of M / rad M, as (vertex, coordinate vector)."""
    fd = m.alg.field
    rad = radical_vectors(m)
    return [(v, c) for v in range(m.alg.n)
            for c in linalg.complement_basis(fd, rad[v], m.dims[v])]


def socle_vectors(m: Module) -> dict[int, list[list]]:
    """Per-vertex basis of the socle (vectors killed by every arrow)."""
    alg = m.alg
    fd = alg.field
    out = {}
    for v in range(alg.n):
        rows = []
        for ai, a in enumerate(alg.arrows):
            if a.source == v:
                rows.extend(m.mats[ai])
        out[v] = linalg.nullspace(fd, rows, m.dims[v])
    return out


# -- projective covers and injective envelopes -------------------------------

def projective_cover(m: Module) -> tuple[Module, list[int], ModuleMorphism, list[dict]]:
    """(P, cover_vertices, epimorphism P -> M, layout of P), minimal by
    construction; the layout is the one `projective_sum` gives P."""
    alg = m.alg
    fd = alg.field
    lifts = top_lifts(m)
    vertices = [v for v, _ in lifts]
    p, layout = projective_sum(alg, vertices)
    mats = {w: linalg.zeros(fd, m.dims[w], p.dims[w]) for w in range(alg.n)}
    for k, (v, lift) in enumerate(lifts):
        for w in range(alg.n):
            off, paths = layout[k][w]
            for c, pi in enumerate(paths):
                col = linalg.mat_vec(fd, m.path_action(alg.basis[pi]), lift)
                for i in range(m.dims[w]):
                    mats[w][i][off + c] = col[i]
    cover = ModuleMorphism(p, m, mats)
    return p, vertices, cover, layout


def injective_envelope(m: Module) -> tuple[Module, list[int], ModuleMorphism, list[dict]]:
    """(I, envelope_vertices, monomorphism M -> I, layout of I), minimal by
    construction; the layout is the one `injective_sum` gives I."""
    alg = m.alg
    fd = alg.field
    soc = socle_vectors(m)
    vertices = []
    functionals = []  # (vertex, row functional on M_v)
    for v in range(alg.n):
        basis = soc[v]
        if not basis:
            continue
        comp = linalg.complement_basis(fd, basis, m.dims[v])
        t = linalg.transpose([list(b) for b in basis] + [list(c) for c in comp])
        tinv = linalg.inverse(fd, t)
        for i in range(len(basis)):
            vertices.append(v)
            functionals.append((v, tinv[i]))
    i_mod, layout = injective_sum(alg, vertices)
    mats = {w: linalg.zeros(fd, i_mod.dims[w], m.dims[w]) for w in range(alg.n)}
    for k, (v, phi) in enumerate(functionals):
        for w in range(alg.n):
            off, paths = layout[k][w]
            for r, pi in enumerate(paths):
                act = m.path_action(alg.basis[pi])  # M_w -> M_v
                mats[w][off + r] = linalg.mat_vec(fd, linalg.transpose(act), phi)
    emb = ModuleMorphism(m, i_mod, mats)
    return i_mod, vertices, emb, layout


# -- minimal polynomial and eigenvalues --------------------------------------

def _total_matrix(f: ModuleMorphism) -> list[list]:
    return linalg.block_diag(f.source.alg.field, list(f.mats.values()),
                             list(zip(f.target.dims, f.source.dims)))


def minimal_polynomial(field, a: list[list]) -> list:
    """Monic minimal polynomial of a square matrix, ascending coefficients."""
    d = len(a)
    if d == 0:
        return [field.one]  # convention: minimal polynomial 1 for the empty matrix
    power = linalg.identity(field, d)
    flat = [[x for row in power for x in row]]
    while True:
        power = linalg.matmul(field, a, power)
        target = [x for row in power for x in row]
        sol = linalg.solve(field, linalg.transpose(flat), target)
        if sol is not None:
            return [field.neg(c) for c in sol] + [field.one]
        flat.append(target)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_eigenvalues(field, poly: list) -> list:
    """Roots of the polynomial lying in the field (rationals or F_p)."""
    if field.kind == "Fp":
        roots = []
        for c in range(field.p):
            acc = field.zero
            for coeff in reversed(poly):
                acc = field.add(field.mul(acc, c), coeff)
            if acc == 0:
                roots.append(c)
        return roots
    # rational roots of an integer-cleared polynomial
    fracs = [Fraction(c) for c in poly]
    lcm = 1
    for c in fracs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in fracs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return [Fraction(0)]
    roots = set()
    k = 0
    while k < len(ints) and ints[k] == 0:
        k += 1
    if k > 0:
        roots.add(Fraction(0))
        ints = ints[k:]
    if len(ints) > 1:
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    acc = Fraction(0)
                    for coeff in reversed(ints):
                        acc = acc * cand + coeff
                    if acc == 0:
                        roots.add(cand)
    return sorted(roots)


# -- decomposition ------------------------------------------------------------

def _fitting_split(m: Module, f: ModuleMorphism) -> tuple[Module, Module] | None:
    """Split M = ker f^d + im f^d if proper, else None."""
    alg = m.alg
    d = m.total_dim
    power = f
    for _ in range(max(d - 1, 0)):
        power = power.compose(f)
    k, _ = kernel(power)
    if 0 < k.total_dim < d:
        i, _ = image(power)
        return k, i
    return None


def _is_nilpotent(field, a: list[list]) -> bool:
    d = len(a)
    p = a
    k = 1
    while k < d:
        p = linalg.matmul(field, p, p)
        k *= 2
    return all(x == 0 for row in p for x in row)


def local_radical_basis(m: Module, ends: list[ModuleMorphism] | None = None
                        ) -> list[ModuleMorphism]:
    """Basis of rad End(M), certified; requires End(M) local with End/rad = k.

    Every End-basis element must have a single eigenvalue lying in the field
    (b - c id nilpotent), and the span N of the nilpotent parts must be
    closed under multiplication.  Then N is a nil subalgebra of codimension
    one, hence the radical, and End(M) is local.  Raises
    DecompositionFailure when the certificate does not apply.
    """
    fd = m.alg.field
    if ends is None:
        ends = hom_basis(m, m)
    nil_parts: list[ModuleMorphism] = []
    for b in ends:
        total = _total_matrix(b)
        poly = minimal_polynomial(fd, total)
        roots = rational_eigenvalues(fd, poly)
        shifted = None
        for c in roots:
            cand = b.add(identity_morphism(m).scale(fd.neg(c))) if c != 0 else b
            if _is_nilpotent(fd, _total_matrix(cand)):
                shifted = cand
                break
        if shifted is None:
            raise DecompositionFailure(
                "endomorphism with no rational single eigenvalue; "
                "End(M) is not local split over the base field")
        nil_parts.append(shifted)
    reduced = linalg.row_space_reduce(fd, [n.flatten() for n in nil_parts])
    if len(reduced) != len(ends) - 1:
        raise DecompositionFailure("nilpotent parts do not span a hyperplane of End(M)")
    # multiplicative closure of the nilpotent span
    products = [a.compose(b).flatten() for a in nil_parts for b in nil_parts]
    if linalg.independent_columns(fd, reduced, products):
        raise DecompositionFailure(
            "nilpotent parts are not multiplicatively closed; "
            "cannot certify End(M) local")
    # return morphisms matching the reduced basis
    return [morphism_from_flat(m, m, row) for row in reduced]


def certify_local_end(m: Module, ends: list[ModuleMorphism]) -> bool:
    try:
        local_radical_basis(m, ends)
        return True
    except DecompositionFailure:
        return False


def decompose(m: Module) -> list[Module]:
    """Indecomposable direct summands of M (with multiplicity, deterministic).

    Strategy: Fitting splits along End-basis elements and pairwise sums,
    shifted by the rational eigenvalues of their minimal polynomials.  If
    nothing splits, indecomposability is certified by dim End/rad = 1;
    otherwise DecompositionFailure.
    """
    if m.is_zero:
        return []
    ends = hom_basis(m, m)
    if len(ends) == 1:
        return [m]
    fd = m.alg.field
    candidates = list(ends)
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            candidates.append(ends[i].add(ends[j]))
    for f in candidates:
        poly = minimal_polynomial(fd, _total_matrix(f))
        for c in [fd.zero] + rational_eigenvalues(fd, poly):
            shifted = f.add(identity_morphism(m).scale(fd.neg(c))) if c != 0 else f
            split = _fitting_split(m, shifted)
            if split is not None:
                a, b = split
                return decompose(a) + decompose(b)
    if certify_local_end(m, ends):
        return [m]
    raise DecompositionFailure(
        f"cannot split module with dim vector {m.dims} and "
        f"dim End = {len(ends)}")


def is_indecomposable(m: Module) -> bool:
    return len(decompose(m)) == 1


def _invertible_in_homs(homs: list[ModuleMorphism]) -> ModuleMorphism | None:
    for f in homs:
        if f.is_invertible():
            return f
    return None


def indec_isomorphic(m: Module, n: Module) -> bool:
    """Isomorphism test, COMPLETE only for indecomposable inputs.

    For indecomposables the non-isomorphisms form a subspace of Hom, so an
    isomorphism exists iff some basis element is one.
    """
    if m.dims != n.dims:
        return False
    return _invertible_in_homs(hom_basis(m, n)) is not None


def is_isomorphic(m: Module, n: Module) -> bool:
    """Isomorphism test for arbitrary finite-dimensional modules."""
    if m.alg is not n.alg:
        raise AlgebraMismatch("isomorphism test across algebras")
    if m.dims != n.dims:
        return False
    if _invertible_in_homs(hom_basis(m, n)) is not None:
        return True
    ms, ns = decompose(m), decompose(n)
    if len(ms) == 1 and len(ns) == 1:
        return False  # both indecomposable and the basis scan found nothing
    return _match_summands(ms, ns)


def _match_summands(ms: list[Module], ns: list[Module]) -> bool:
    if len(ms) != len(ns):
        return False
    used = [False] * len(ns)
    for a in ms:
        for k, b in enumerate(ns):
            if not used[k] and indec_isomorphic(a, b):
                used[k] = True
                break
        else:
            return False
    return True

