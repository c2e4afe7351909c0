"""Reduction along a support tau-rigid object.

Given a support tau-rigid object in the world W, `wide_of` computes the
associated wide subcategory: the members X of W with no maps from the module
part or the shifted projectives, and with Hom_W(X, tau_W U) = 0 for every
module summand U (`hom_tau_vanishes`).  Like Jasso's reduction
U^perp & perp(tau U), that is an intersection over the summands: each
summand's set is kept under `("perp", w.key, key)`, so `wide_of` of an object
intersects the sets of its summands.  It returns the context's one
`WideSubcategory` for the result (`taurigid.world`), shared by every object
and every morphism that reaches it.  The reduction bijection E is
computed on one summand by `e_map_key`, tabulated once per (W, object) by
`e_table`, and read from that table by `e_map` and its inverse `f_map`.
The table's domain is read from the clique set of C(W): the keys k, sharing
no class with the object, for which object + k is support tau-rigid.
`e_map_key` works as follows:

* module part U first (case I):
  (a) X not generated by U inside W: E(X) = X / trace of U;
  (b) X generated by U: take a right approximation by the relative
      presentations of the U-summands in the two-term homotopy category,
      and shift the torsion-free part of the degree -1 cone homology;
  (c) a shifted summand Q[1]: the same cone construction aimed at (Q -> 0).
* then the image of the shifted part acts on the result (case II):
  modules pass through, shifted summands get the torsion-free quotient.

Two memos sit on top of the table, both kept by `Context.cached`.  The
inverse bijection F is read from the inverse of the table, `("finv", w.key,
obj)`, built once per (W, object) by `f_map_keys`, which works on summand
keys; `f_map` and `sequences.phi` both go through it.  Cases I(a) and II(b)
apply f_U to an enumerated class X; f_U is computed in mod A and does not
depend on W, so its class id is kept under `("f_U", frozenset(U), X)`, and
its trace reads Hom(U, X) from `Context.hom`.  Only modules that are not
enumerated classes (a syzygy in a relative presentation, a cone homology)
get their Hom bases from `hom_basis`.

The cone route tolerates non-minimal approximations: a surplus summand that
factors through the rest contributes only add(U) pieces to the degree -1
homology, and the torsion-free quotient deletes those.  Every case asserts
its postconditions (indecomposable outputs landing in the reduced world) and
raises CaseDispatchError, naming W, the object and the summand, when they
fail, so a wrong branch can never return a plausible-looking value silently.
"""
from __future__ import annotations

from .context import Context
from .errors import CaseDispatchError, NotCompatible, NotInImage, NotSupportTauRigid
from .homology import (TwoTermComplex, chain_maps_mod_homotopy,
                       complex_direct_sum, cone_homology, shifted_complex)
from .modules import (Module, decompose, hom_basis, hstack_morphisms, kernel,
                      zero_module, zero_morphism)
from .taurigid import (CObject, Homs, Key, WideSubcategory, candidate_keys, cover_in,
                       ext_projective_ids, hom_tau_vanishes,
                       is_support_tau_rigid, strigid_positions, torsion_free_quotient,
                       world)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CaseDispatchError(msg)


def wide_of(ctx: Context, w: WideSubcategory, obj: CObject) -> WideSubcategory:
    """The wide subcategory of W attached to a support tau-rigid object."""
    return ctx.cached(("wide_of", w.key, obj), _wide_of, ctx, w, obj)


def _wide_of(ctx: Context, w: WideSubcategory, obj: CObject) -> WideSubcategory:
    if not is_support_tau_rigid(ctx, w, obj):
        raise NotSupportTauRigid(f"object {obj.describe(ctx)} is not support "
                                 f"tau-rigid in {w.describe(ctx)}")
    members = w.members
    for key in obj.keys():
        members = members & ctx.cached(("perp", w.key, key), _perp, ctx, w, key)
    return world(ctx, members)


def _perp(ctx: Context, w: WideSubcategory, key: Key) -> frozenset[int]:
    """The members of W that one summand of an object leaves in its wide_of."""
    kind, u = key
    return frozenset(x for x in w.key if ctx.hom_dim(u, x) == 0
                     and (kind == "s" or hom_tau_vanishes(ctx, w, x, u)))


def rel_presentation(ctx: Context, w: WideSubcategory, i: int) -> TwoTermComplex:
    """Presentation of a member of W by the Ext-projectives of W (cached)."""
    return ctx.cached(("relpres", w.key, i), _rel_presentation, ctx, w, i)


def _rel_presentation(ctx: Context, w: WideSubcategory, i: int) -> TwoTermComplex:
    pw = ext_projective_ids(ctx, w)
    cover0, _ = cover_in(ctx, {j: ctx.hom(j, i) for j in pw}, ctx.rep(i))
    om, om_incl = kernel(cover0)
    cover1, _ = cover_in(ctx, {j: hom_basis(ctx.rep(j), om) for j in pw}, om)
    d = om_incl.compose(cover1)
    return TwoTermComplex(cover1.source, cover0.source, d)


def _strip_and_register(ctx: Context, m: Module, homs: Homs, what: str) -> int:
    """f_U of a module, given Hom(U, m), asserted indecomposable, as a class id."""
    pieces = decompose(torsion_free_quotient(m, homs)[0])
    _expect(len(pieces) == 1,
            f"{what}: torsion-free part decomposed into {len(pieces)} pieces")
    idx = ctx.id_of(pieces[0])
    _expect(idx is not None, f"{what}: result escaped the enumerated classes")
    return idx


def _f_class(ctx: Context, u_ids, x: int, what: str) -> int:
    """f_U of the enumerated class x, as a class id (memoized on ids)."""
    return ctx.cached(("f_U", frozenset(u_ids), x), _f_of_class, ctx, u_ids, x, what)


def _f_of_class(ctx: Context, u_ids, x: int, what: str) -> int:
    homs = {u: ctx.hom(u, x) for u in sorted(set(u_ids))}
    return _strip_and_register(ctx, ctx.rep(x), homs, what)


def _cone_reduction(ctx: Context, w: WideSubcategory, w1: WideSubcategory, u_ids,
                    target: TwoTermComplex, require_h0_zero: bool, what: str) -> int:
    """Common core of cases I(b) and I(c): approximate, cone, strip, shift.

    The result is asserted Ext-projective in w1, the world U cuts out of W."""
    sources: list[TwoTermComplex] = []
    maps1 = []
    maps0 = []
    for u in u_ids:
        src = rel_presentation(ctx, w, u)
        for f1, f0 in chain_maps_mod_homotopy(src, target):
            sources.append(src)
            maps1.append(f1)
            maps0.append(f0)
    if sources:
        total = complex_direct_sum(sources)
        big1 = hstack_morphisms(maps1, source_sum=total.p1)
        big0 = hstack_morphisms(maps0, source_sum=total.p0)
    else:
        z = zero_module(ctx.alg)
        total = TwoTermComplex(z, z, zero_morphism(z, z))
        big1 = zero_morphism(z, target.p1)
        big0 = zero_morphism(z, target.p0)
    b, onto = cone_homology(big1, big0, total, target)
    if require_h0_zero:
        _expect(onto, f"{what}: approximation is not surjective on degree 0")
    homs = {u: hom_basis(ctx.rep(u), b) for u in sorted(set(u_ids))}
    idx = _strip_and_register(ctx, b, homs, what)
    _expect(idx in set(ext_projective_ids(ctx, w1)),
            f"{what}: result is not Ext-projective in the reduced world")
    return idx


def _e_module_stage(ctx: Context, w: WideSubcategory, u_ids: tuple[int, ...],
                    key: Key) -> Key:
    """E along the module part U (case I), on one summand key."""
    if not u_ids:
        return key
    w1 = wide_of(ctx, w, CObject.of(u_ids))
    kind, x = key
    if kind == "m":
        if x in ctx.gen_members(frozenset(u_ids)):
            # I(b): generated by U; two-term cone, result is shifted
            target = rel_presentation(ctx, w, x)
            return ("s", _cone_reduction(ctx, w, w1, u_ids, target, True, "case I(b)"))
        # I(a): plain torsion-free quotient
        idx = _f_class(ctx, u_ids, x, "case I(a)")
        _expect(idx in w1.members, "case I(a): result left the reduced world")
        return ("m", idx)
    # I(c): shifted summand, cone against (Q -> 0)
    target = shifted_complex(ctx.rep(x))
    return ("s", _cone_reduction(ctx, w, w1, u_ids, target, False, "case I(c)"))


def _e_shift_stage(ctx: Context, w1: WideSubcategory, q_ids: tuple[int, ...],
                   key: Key) -> Key:
    """E along a purely shifted object Q[1] inside the world w1 (case II)."""
    if not q_ids:
        return key
    kind, x = key
    if kind == "m":
        _expect(all(ctx.hom_dim(q, x) == 0 for q in q_ids),
                "case II(a): module summand admits maps from the support part")
        return key
    _expect(x not in q_ids, "case II(b): summand collides with the support part")
    idx = _f_class(ctx, q_ids, x, "case II(b)")
    return ("s", idx)


def e_map_key(ctx: Context, w: WideSubcategory, obj: CObject, key: Key) -> Key:
    """The reduction bijection on a single summand key.

    A failed postcondition of any stage is re-raised naming W, the object
    and the summand by their labels, and holding them as its fields."""
    try:
        if obj.mods and obj.shifts:
            # E along U + Q[1] is E along E_U(Q[1]) after E along U: read both
            # E_U values from U's table instead of recomputing them per key
            u_table = e_table(ctx, w, CObject.of(obj.mods))
            stage1 = u_table[key]
            q_ids = tuple(u_table[("s", p)][1] for p in obj.shifts)
        else:
            stage1 = _e_module_stage(ctx, w, obj.mods, key)
            q_ids = obj.shifts
        w1 = wide_of(ctx, w, CObject.of(obj.mods))
        out = _e_shift_stage(ctx, w1, q_ids, stage1)
        w_final = wide_of(ctx, w, obj)
        if out[0] == "m":
            _expect(out[1] in w_final.members, "reduction image left the target world")
        else:
            _expect(out[1] in set(ext_projective_ids(ctx, w_final)),
                    "reduction image is not supported in the target world")
        return out
    except CaseDispatchError as exc:
        raise CaseDispatchError(
            f"reducing {CObject.from_keys((key,)).describe(ctx)} by "
            f"{obj.describe(ctx)} in {w.describe(ctx)}: {exc}", w, obj, key) from exc


def e_map(ctx: Context, w: WideSubcategory, obj: CObject, x: CObject) -> CObject:
    """E applied summand-wise to a compatible support tau-rigid object."""
    try:
        union = obj.union(x)
    except NotSupportTauRigid as exc:
        raise NotCompatible(str(exc)) from exc
    if not is_support_tau_rigid(ctx, w, union):
        raise NotCompatible(
            "the direct sum with the reduction object is not support tau-rigid")
    table = e_table(ctx, w, obj)
    keys = [table[k] for k in x.keys()]
    _expect(len(set(keys)) == len(keys), "reduction images of summands collided")
    return CObject.from_keys(keys)


def e_table(ctx: Context, w: WideSubcategory, obj: CObject) -> dict[Key, Key]:
    """The full value table of the reduction on compatible single summands.

    Raises NotSupportTauRigid when obj is not support tau-rigid in W."""
    return ctx.cached(("etable", w.key, obj), _e_table, ctx, w, obj)


def _e_table(ctx: Context, w: WideSubcategory, obj: CObject) -> dict[Key, Key]:
    wide_of(ctx, w, obj)  # raises NotSupportTauRigid unless obj is rigid in W
    positions = strigid_positions(ctx, w)
    return {k: e_map_key(ctx, w, obj, k) for k in candidate_keys(ctx, w)
            if obj.extended(k) in positions}


def f_map(ctx: Context, w: WideSubcategory, obj: CObject, y: CObject) -> CObject:
    """The inverse bijection: summands of C(J_W(obj)) pulled back to C(W)."""
    return CObject.from_keys(f_map_keys(ctx, w, obj, y.keys()))


def f_map_keys(ctx: Context, w: WideSubcategory, obj: CObject, keys) -> list[Key]:
    """The inverse bijection on summand keys, read from the inverse table."""
    inverse = ctx.cached(("finv", w.key, obj), _inverse_table, ctx, w, obj)
    for k in keys:
        if k not in inverse:
            raise NotInImage(
                f"summand {CObject.from_keys((k,)).describe(ctx)} is not a "
                f"reduction image for {obj.describe(ctx)} in {w.describe(ctx)}")
    return [inverse[k] for k in keys]


def _inverse_table(ctx: Context, w: WideSubcategory, obj: CObject) -> dict[Key, Key]:
    inverse: dict[Key, Key] = {}
    for k, v in e_table(ctx, w, obj).items():
        inverse.setdefault(v, k)
    return inverse
