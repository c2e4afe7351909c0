"""Almost split sequences and the Auslander-Reiten quiver.

The sequence starting at a non-injective indecomposable M is found inside
Ext^1(tau^{-1}M, M), presented on Hom(Omega, M) classes: the radical of
End(tau^{-1}M) acts on that Ext space by precomposition with lifted
endomorphisms, and the almost split class is the (one-dimensional) common
kernel of that action.  Realizing the class as a pushout gives the middle
term explicitly.

Irreducible-map multiplicities between indecomposables X, Y are
dim rad(X,Y)/rad^2(X,Y), with rad(X,X) = the certified radical of End(X).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import InjectiveInput, WidecatError
from .homology import (ar_translate_inverse, ext1_space, factor_through_inclusion,
                       minimal_presentation, realize_extension)
from .modules import (Module, ModuleMorphism, hom_basis, linear_combination,
                      local_radical_basis)


@dataclass
class AlmostSplitSequence:
    left: Module
    middle: Module
    right: Module
    incl: ModuleMorphism   # left -> middle
    proj: ModuleMorphism   # middle -> right


def _lifts_to_cover(pres, endos: list[ModuleMorphism]) -> list[ModuleMorphism]:
    """For each phi, some phi0: P0 -> P0 with cover . phi0 = phi . cover
    (projectivity); one solve over the Hom(P0, P0) basis lifts them all."""
    if not endos:
        return []
    fd = pres.module.alg.field
    p0 = pres.cplx.p0
    basis = hom_basis(p0, p0)
    cols = [pres.cover.compose(b).flatten() for b in basis]
    targets = [phi.compose(pres.cover).flatten() for phi in endos]
    sol = linalg.solve_matrix(fd, linalg.transpose(cols), linalg.transpose(targets),
                              len(basis), len(endos))
    if sol is None:
        raise WidecatError("projective lift failed (bug)")
    return [linear_combination(coeffs, basis, p0, p0) for coeffs in linalg.transpose(sol)]


def almost_split_sequence(m: Module) -> AlmostSplitSequence:
    """The almost split sequence 0 -> M -> E -> tau^{-1}M -> 0.

    M must be indecomposable and non-injective; raises InjectiveInput for
    injective input.
    """
    n = ar_translate_inverse(m)
    if n.is_zero:
        raise InjectiveInput(
            f"module with dimension vector {m.dims} is injective; it starts "
            "no almost split sequence")
    fd = m.alg.field
    pres = minimal_presentation(n)
    ext = ext1_space(n, m, pres)
    if ext.dim == 0:
        raise WidecatError("Ext^1(tau^{-1}M, M) vanished unexpectedly (bug)")
    # coordinates on [restricted | reps]: only the class part is unique
    ext_cols = linalg.transpose(ext.restricted + [r.flatten() for r in ext.reps])
    nsub = len(ext.restricted)
    action_rows = []
    for phi0 in _lifts_to_cover(pres, local_radical_basis(n)):
        omega_map = factor_through_inclusion(
            pres.omega_incl, phi0.compose(pres.omega_incl))
        images = [h.compose(omega_map).flatten() for h in ext.reps]
        coords = linalg.solve_matrix(fd, ext_cols, linalg.transpose(images),
                                     nsub + ext.dim, ext.dim)
        if coords is None:
            raise WidecatError("vector not in Ext presentation space (bug)")
        # columns of the action matrix are images of the basis classes
        action_rows.extend(coords[nsub:])
    soc = linalg.nullspace(fd, action_rows, ext.dim)
    if len(soc) != 1:
        raise WidecatError(
            f"almost split class is not unique (socle dimension {len(soc)}); "
            "endomorphism rings are not split over the base field")
    h = linear_combination(soc[0], ext.reps, pres.omega, m)
    e, incl, proj = realize_extension(ext, h)
    # the class h is a nonzero element of Ext^1, so the sequence cannot split
    if not (incl.is_injective() and proj.is_surjective()
            and proj.compose(incl).is_zero):
        raise WidecatError("realized sequence is not exact (bug)")
    return AlmostSplitSequence(m, e, n, incl, proj)


# -- the AR quiver -------------------------------------------------------------

@dataclass
class ARQuiver:
    """Iso-class nodes, irreducible-map multiplicities, and the translate."""

    dims: list[tuple[int, ...]]
    labels: list[str]
    projective_ids: list[int]
    injective_ids: list[int]
    edges: dict[tuple[int, int], int] = dc_field(default_factory=dict)
    tau: dict[int, int | None] = dc_field(default_factory=dict)
    tau_inv: dict[int, int | None] = dc_field(default_factory=dict)


def radical_hom_basis(ctx, i: int, j: int) -> list[ModuleMorphism]:
    """Basis of rad(X_i, X_j) between registered indecomposables; rad End(X_i)
    is computed once per class."""
    if i != j:
        return ctx.hom(i, j)
    return ctx.cached(("rad", i), local_radical_basis, ctx.rep(i), ctx.hom(i, i))


def irreducible_multiplicity(ctx, i: int, j: int) -> int:
    """dim rad(X_i, X_j) / rad^2(X_i, X_j)."""
    fd = ctx.alg.field
    rad = radical_hom_basis(ctx, i, j)
    if not rad:
        return 0
    sq = []
    for z in range(ctx.ind_count()):
        first = radical_hom_basis(ctx, i, z)
        second = radical_hom_basis(ctx, z, j)
        for h in first:
            for g in second:
                vec = g.compose(h).flatten()
                if any(x != 0 for x in vec):
                    sq.append(vec)
    return len(rad) - linalg.rank(fd, sq)


def build_ar_quiver(ctx) -> ARQuiver:
    n_ind = ctx.ind_count()
    arq = ARQuiver(
        dims=[ctx.rep(i).dims for i in range(n_ind)],
        labels=[ctx.label(i) for i in range(n_ind)],
        projective_ids=list(ctx.projective_ids),
        injective_ids=list(ctx.injective_ids),
    )
    for i in range(n_ind):
        arq.tau[i] = ctx.tau(i)
        arq.tau_inv[i] = ctx.tau_inv(i)
    for i in range(n_ind):
        for j in range(n_ind):
            mult = irreducible_multiplicity(ctx, i, j)
            if mult:
                arq.edges[(i, j)] = mult
    return arq


def ar_quiver_dot(arq: ARQuiver) -> str:
    lines = ["digraph ar_quiver {", '  rankdir="LR";',
             '  node [shape=box, fontsize=11];']
    for i, dims in enumerate(arq.dims):
        decor = ""
        if i in arq.projective_ids:
            decor = ", style=bold"
        elif i in arq.injective_ids:
            decor = ", style=dashed"
        dimtxt = ",".join(str(d) for d in dims)
        lines.append(f'  n{i} [label="{arq.labels[i]}\\n({dimtxt})"{decor}];')
    for (i, j), mult in sorted(arq.edges.items()):
        attr = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  n{i} -> n{j}{attr};")
    for i, t in sorted(arq.tau.items()):
        if t is not None:
            lines.append(f'  n{i} -> n{t} [style=dotted, arrowhead=empty, constraint=false];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ar_quiver_json(arq: ARQuiver) -> dict:
    return {
        "nodes": [
            {"id": i, "label": arq.labels[i], "dimension_vector": list(arq.dims[i]),
             "projective": i in arq.projective_ids,
             "injective": i in arq.injective_ids,
             "tau": arq.tau[i], "tau_inverse": arq.tau_inv[i]}
            for i in range(len(arq.dims))
        ],
        "irreducible_maps": [
            {"source": i, "target": j, "multiplicity": mult}
            for (i, j), mult in sorted(arq.edges.items())
        ],
    }
