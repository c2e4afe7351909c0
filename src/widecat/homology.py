"""Homological machinery: presentations, the AR translate, Ext groups,
two-term complexes and their homotopy category.

The AR translate is computed from a minimal projective presentation
P1 -> P0 -> M -> 0 by applying the Nakayama functor (P_v maps to I_v,
and a map between projective sums, written in path components, maps to
the dual of left multiplication) and taking the kernel.  The inverse
translate is dual, via a minimal injective copresentation.

Two-term complexes (degree -1 and 0) are pairs of modules with a
differential; morphisms in the homotopy category are chain map pairs
(f1, f0) modulo null-homotopies (s d, d s).  Mapping-cone homology in
degree -1 is the kernel/image quotient of plain module maps, which is all
the object-level data the reduction step downstream needs.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import Algebra
from .errors import WidecatError
from .modules import (Module, ModuleMorphism, cokernel, direct_sum,
                      factor_through_inclusion, hom_basis, hstack_morphisms,
                      injective_envelope, injective_sum, kernel,
                      linear_combination, projective_cover, projective_sum,
                      sum_inclusion, vstack_morphisms, zero_module,
                      zero_morphism)


@dataclass
class TwoTermComplex:
    """A complex  p1 --d--> p0  concentrated in degrees -1 and 0."""

    p1: Module
    p0: Module
    d: ModuleMorphism

    @property
    def alg(self) -> Algebra:
        return self.p0.alg


def shifted_complex(q: Module) -> TwoTermComplex:
    """The complex (q -> 0), i.e. q placed in degree -1."""
    z = zero_module(q.alg)
    return TwoTermComplex(q, z, zero_morphism(q, z))


def complex_direct_sum(cs: list[TwoTermComplex]) -> TwoTermComplex:
    if not cs:
        raise ValueError("empty complex sum")
    alg = cs[0].alg
    p1 = direct_sum([c.p1 for c in cs])
    p0 = direct_sum([c.p0 for c in cs])
    d = {v: linalg.block_diag(alg.field, [c.d.mats[v] for c in cs],
                              [(c.p0.dims[v], c.p1.dims[v]) for c in cs])
         for v in range(alg.n)}
    return TwoTermComplex(p1, p0, ModuleMorphism(p1, p0, d))


def factor_through_epi(epi: ModuleMorphism, q: ModuleMorphism) -> ModuleMorphism:
    """The unique h with h . epi = q, for epi an epimorphism killing ker q."""
    alg = epi.source.alg
    mats = {}
    for v in range(alg.n):
        sol = linalg.solve_matrix(alg.field, linalg.transpose(epi.mats[v]),
                                  linalg.transpose(q.mats[v]),
                                  epi.target.dims[v], q.target.dims[v])
        if sol is None:
            raise WidecatError(f"map {q.source.dims} -> {q.target.dims} does not factor "
                               f"through the epimorphism {epi.source.dims} -> "
                               f"{epi.target.dims} at vertex {alg.vertex_labels[v]}")
        mats[v] = linalg.transpose(sol)
    return ModuleMorphism(epi.target, q.target, mats)


# -- minimal presentations ----------------------------------------------------

@dataclass
class Presentation:
    """Minimal projective presentation p1 -> p0 -> m -> 0 with bookkeeping."""

    module: Module
    cplx: TwoTermComplex
    verts1: list[int]
    verts0: list[int]
    layout1: list[dict]
    layout0: list[dict]
    cover: ModuleMorphism      # p0 -> m
    omega: Module              # ker(cover)
    omega_incl: ModuleMorphism  # omega -> p0


def minimal_presentation(m: Module) -> Presentation:
    p0, verts0, cover, layout0 = projective_cover(m)
    omega, om_incl = kernel(cover)
    p1, verts1, cover1, layout1 = projective_cover(omega)
    d = om_incl.compose(cover1)
    return Presentation(m, TwoTermComplex(p1, p0, d), verts1, verts0,
                        layout1, layout0, cover, omega, om_incl)


def presentation_components(pres: Presentation) -> list[list[dict[int, object]]]:
    """components[j][i]: the path-coordinate element of Hom(P_{v_i}, P_{w_j}).

    A map between projective sums is a matrix of algebra elements
    x_{ji} in e_{v_i} . Lambda . e_{w_j} (spanned by paths w_j -> v_i); the
    (j, i) entry is read off the image of the i-th summand's generator.
    """
    alg = pres.cplx.alg
    comps: list[list[dict[int, object]]] = []
    for j in range(len(pres.verts0)):
        comps.append([])
        for i in range(len(pres.verts1)):
            v = pres.verts1[i]
            off_i, paths_i = pres.layout1[i][v]
            gen_col = off_i + paths_i.index(alg.trivial_path_index(v))
            off_j, paths_j = pres.layout0[j][v]
            x: dict[int, object] = {}
            for r, pidx in enumerate(paths_j):
                coeff = pres.cplx.d.mats[v][off_j + r][gen_col]
                if coeff != 0:
                    x[pidx] = coeff
            comps[j].append(x)
    return comps


def nakayama_map(alg: Algebra, verts1: list[int], verts0: list[int],
                 comps: list[list[dict[int, object]]]) -> ModuleMorphism:
    """nu(d): direct sum of I_{verts1} -> direct sum of I_{verts0}, as the
    dual of left multiplication: block (j, i) at vertex u has entry [q][p]
    = coefficient of p in x * q, where p runs over the duals of paths
    u -> v_i indexing (I_{v_i})_u and q over those of (I_{w_j})_u."""
    i1, lay1 = injective_sum(alg, verts1)
    i0, lay0 = injective_sum(alg, verts0)
    fd = alg.field
    mats = {u: linalg.zeros(fd, i0.dims[u], i1.dims[u]) for u in range(alg.n)}
    for j in range(len(verts0)):
        for i in range(len(verts1)):
            x = comps[j][i]
            if not x:
                continue
            for u in range(alg.n):
                off_s, src_paths = lay1[i][u]
                off_t, tgt_paths = lay0[j][u]
                src_pos = {pi: c for c, pi in enumerate(src_paths)}
                for r, qi in enumerate(tgt_paths):
                    row = mats[u][off_t + r]
                    for pxi, cx in x.items():
                        for pi, cp in alg.mult(pxi, qi).items():
                            if pi in src_pos:
                                c = off_s + src_pos[pi]
                                row[c] = fd.add(row[c], fd.mul(cx, cp))
    return ModuleMorphism(i1, i0, mats)


def ar_translate(m: Module) -> Module:
    """The AR translate.  Projective summands contribute zero."""
    if m.is_zero:
        return zero_module(m.alg)
    pres = minimal_presentation(m)
    comps = presentation_components(pres)
    nu_d = nakayama_map(m.alg, pres.verts1, pres.verts0, comps)
    return kernel(nu_d)[0]


# -- inverse translate --------------------------------------------------------

@dataclass
class Copresentation:
    """Minimal injective copresentation 0 -> m -> i0 -> i1."""

    module: Module
    i0: Module
    i1: Module
    d: ModuleMorphism          # i0 -> i1
    verts0: list[int]
    verts1: list[int]
    layout0: list[dict]
    layout1: list[dict]


def minimal_copresentation(m: Module) -> Copresentation:
    i0, verts0, emb, layout0 = injective_envelope(m)
    c, proj = cokernel(emb)
    i1, verts1, emb1, layout1 = injective_envelope(c)
    d = emb1.compose(proj)
    return Copresentation(m, i0, i1, d, verts0, verts1, layout0, layout1)


def copresentation_components(cop: Copresentation) -> list[list[dict[int, object]]]:
    """components[j][i] in paths(w_j -> v_i): Hom(I_v, I_w) classified by
    e_v . Lambda . e_w, read off at the w-coordinate of the trivial path."""
    alg = cop.module.alg
    comps: list[list[dict[int, object]]] = []
    for j in range(len(cop.verts1)):
        comps.append([])
        for i in range(len(cop.verts0)):
            v, w = cop.verts0[i], cop.verts1[j]
            off_j, paths_j = cop.layout1[j][w]
            row = off_j + paths_j.index(alg.trivial_path_index(w))
            off_i, paths_i = cop.layout0[i][w]
            x: dict[int, object] = {}
            for c, pidx in enumerate(paths_i):
                coeff = cop.d.mats[w][row][off_i + c]
                if coeff != 0:
                    x[pidx] = coeff
            comps[j].append(x)
    return comps


def inv_nakayama_map(alg: Algebra, verts0: list[int], verts1: list[int],
                     comps: list[list[dict[int, object]]]) -> ModuleMorphism:
    """nu^{-1}(d): direct sum of P_{verts0} -> direct sum of P_{verts1},
    block (j, i) = right multiplication by the component element."""
    p0, lay0 = projective_sum(alg, verts0)
    p1, lay1 = projective_sum(alg, verts1)
    fd = alg.field
    mats = {u: linalg.zeros(fd, p1.dims[u], p0.dims[u]) for u in range(alg.n)}
    for j, w in enumerate(verts1):
        for i, v in enumerate(verts0):
            x = comps[j][i]
            if not x:
                continue
            for u in range(alg.n):
                off_s, src_paths = lay0[i][u]   # paths v -> u
                off_t, tgt_paths = lay1[j][u]   # paths w -> u
                tgt_pos = {pi: r for r, pi in enumerate(tgt_paths)}
                for c, zi in enumerate(src_paths):
                    for pxi, cx in x.items():
                        for pi, cp in alg.mult(zi, pxi).items():
                            if pi in tgt_pos:
                                r = tgt_pos[pi]
                                mats[u][off_t + r][off_s + c] = \
                                    fd.add(mats[u][off_t + r][off_s + c],
                                           fd.mul(cx, cp))
    return ModuleMorphism(p0, p1, mats)


def ar_translate_inverse(m: Module) -> Module:
    """The inverse AR translate.  Injective summands contribute zero."""
    if m.is_zero:
        return zero_module(m.alg)
    cop = minimal_copresentation(m)
    comps = copresentation_components(cop)
    nu_inv_d = inv_nakayama_map(m.alg, cop.verts0, cop.verts1, comps)
    return cokernel(nu_inv_d)[0]


# -- Ext^1 --------------------------------------------------------------------

@dataclass
class ExtSpace:
    """Ext^1(M, N) presented on Hom(Omega M, N) modulo restrictions from P0."""

    source: Module
    target: Module
    pres: Presentation
    reps: list[ModuleMorphism]      # Omega -> N, class representatives
    restricted: list[list]          # Hom(P0, N) basis restricted to Omega, unreduced

    @property
    def dim(self) -> int:
        return len(self.reps)


def ext1_space(m: Module, n: Module, pres: Presentation | None = None) -> ExtSpace:
    pres = pres or minimal_presentation(m)
    full = hom_basis(pres.omega, n)
    restricted = [f.compose(pres.omega_incl).flatten()
                  for f in hom_basis(pres.cplx.p0, n)]
    keep = linalg.independent_columns(n.alg.field, restricted,
                                      [f.flatten() for f in full])
    return ExtSpace(m, n, pres, [full[k] for k in keep], restricted)


def ext1_dim(m: Module, n: Module, pres: Presentation | None = None) -> int:
    if m.is_zero or n.is_zero:
        return 0
    return ext1_space(m, n, pres).dim


def realize_extension(ext: ExtSpace, h: ModuleMorphism
                      ) -> tuple[Module, ModuleMorphism, ModuleMorphism]:
    """Middle term of the extension class h: (E, incl N -> E, proj E -> M)."""
    n, m = ext.target, ext.source
    p0 = ext.pres.cplx.p0
    glue = vstack_morphisms([h, ext.pres.omega_incl.neg()])
    big = glue.target
    e, proj_big = cokernel(glue)
    mods = [n, p0]
    incl_n = proj_big.compose(sum_inclusion(mods, 0, big))
    q = hstack_morphisms([zero_morphism(n, m), ext.pres.cover], source_sum=big)
    proj_m = factor_through_epi(proj_big, q)
    return e, incl_n, proj_m


# -- homotopy category of two-term complexes ----------------------------------

def chain_maps_mod_homotopy(c: TwoTermComplex, d: TwoTermComplex
                            ) -> list[tuple[ModuleMorphism, ModuleMorphism]]:
    """Basis representatives of Hom_K(c, d) as chain-map pairs (f1, f0)."""
    fd = c.alg.field
    h1 = hom_basis(c.p1, d.p1)
    h0 = hom_basis(c.p0, d.p0)
    if not h1 and not h0:
        return []
    # chain condition: d.d . f1 - f0 . c.d = 0 in Hom(c.p1, d.p0) coordinates
    cols = []
    for g in h1:
        cols.append(d.d.compose(g).flatten())
    for g in h0:
        cols.append([fd.neg(x) for x in g.compose(c.d).flatten()])
    coeffs = linalg.nullspace(fd, linalg.transpose(cols), len(cols))
    chain_pairs = [(linear_combination(vec[:len(h1)], h1, c.p1, d.p1),
                    linear_combination(vec[len(h1):], h0, c.p0, d.p0))
                   for vec in coeffs]
    # homotopies: pairs (s . c.d, d.d . s)
    homotopy_vecs = []
    for s in hom_basis(c.p0, d.p1):
        pair_vec = s.compose(c.d).flatten() + d.d.compose(s).flatten()
        if any(x != 0 for x in pair_vec):
            homotopy_vecs.append(pair_vec)
    keep = linalg.independent_columns(
        fd, homotopy_vecs, [f1.flatten() + f0.flatten() for f1, f0 in chain_pairs])
    return [chain_pairs[k] for k in keep]


def shifted_hom_dim(c: TwoTermComplex, d: TwoTermComplex) -> int:
    """dim Hom_K(c, d[1]) = Hom(c.p1, d.p0) modulo boundaries."""
    fd = c.alg.field
    full = hom_basis(c.p1, d.p0)
    if not full:
        return 0
    boundary = []
    for g in hom_basis(c.p1, d.p1):
        boundary.append(d.d.compose(g).flatten())
    for g in hom_basis(c.p0, d.p0):
        boundary.append(g.compose(c.d).flatten())
    boundary = [b for b in boundary if any(x != 0 for x in b)]
    return len(full) - linalg.rank(fd, boundary)


def cone_homology(f1: ModuleMorphism, f0: ModuleMorphism,
                  c: TwoTermComplex, d: TwoTermComplex
                  ) -> tuple[Module, bool]:
    """H^{-1} of the mapping cone of (f1, f0): c -> d, and whether H^0 = 0.

    H^{-1} = ker(c.p0 + d.p1 -> d.p0) / im(c.p1 -> c.p0 + d.p1), and
    H^0 = coker(c.p0 + d.p1 -> d.p0) vanishes iff that map is onto, which is
    all the callers ask of it, so H^0 is not built.
    """
    mid = direct_sum([c.p0, d.p1])
    u = hstack_morphisms([f0, d.d], source_sum=mid)
    w = vstack_morphisms([c.d.neg(), f1], target_sum=mid)
    k, incl = kernel(u)
    w_into_k = factor_through_inclusion(incl, w)
    return cokernel(w_into_k)[0], u.is_surjective()
