"""The reduction tables against Jasso's reduction of torsion classes.

Jasso ("Reduction of tau-tilting modules and torsion pairs", IMRN 2015)
reduces along a support tau-rigid object: with J its wide subcategory of W,
the support tau-tilting objects T of W that contain it correspond to those
of J through the torsion classes, Fac_W(T) |-> Fac(T) & J.  Buan and Marsh
(arXiv 1802.03812) build the reduction E of the category of wide
subcategories on that correspondence: E applied to the summands of T
outside the object is the support tau-tilting object of J for Fac(T) & J.
So an independent table: mutate T at one summand k, and E(k) is the summand
by which the two objects of J differ.

The oracle reads only `Context` accessors, the clique set and `wide_of` for
J; it builds no module and no complex, and shares no code with `e_table`.
"""
import pytest

from widecat.category import enumerate_wide_subcategories
from widecat.reduction import e_table, wide_of
from widecat.taurigid import CObject, stilting_objects, strigid_objects
from conftest import load_context

BUNDLED = ["a2.alg", "a3.alg", "a4.alg", "d4.alg", "preproj_a2.alg",
           "preproj_a3.alg", "triangle.alg"]


def _tilting_in(ctx, j, t):
    """The support tau-tilting object of J for the torsion class Fac(T) & J:
    the Ext-projectives of that class, and the shifted Ext-projectives of J
    with no maps into it.  J lies in W, so Fac(T) & J is Fac_W(T) & J."""
    cls = ctx.gen_members(frozenset(t.mods)) & j.members
    proj = {("m", p) for p in cls if all(ctx.ext1(p, x) == 0 for x in cls)}
    return proj | {("s", q) for q in j.members
                   if all(ctx.ext1(q, x) == 0 for x in j.members)
                   and all(ctx.hom_dim(q, x) == 0 for x in cls)}


def torsion_table(ctx, w, obj):
    """E on each summand k that extends obj, read off a mutation at k."""
    j = wide_of(ctx, w, obj)
    tilting = stilting_objects(ctx, w)
    table = {}
    for k in (k for o in strigid_objects(ctx, w) if o.delta == 1 for k in o.keys()):
        bit = CObject.from_keys((k,)).mask
        if obj.mask & bit:
            continue
        # obj + k is support tau-rigid iff it lies in a support tau-tilting T
        t = next((t for t in tilting if t.mask & (obj.mask | bit) == obj.mask | bit), None)
        if t is None:
            continue
        [mutated] = [u for u in tilting
                     if u is not t and u.mask & (t.mask ^ bit) == t.mask ^ bit]
        [table[k]] = _tilting_in(ctx, j, t) - _tilting_in(ctx, j, mutated)
    return table


@pytest.mark.parametrize("name", BUNDLED)
def test_reduction_tables_agree_with_the_torsion_oracle(name):
    ctx = load_context(name)
    mismatches, tables = [], 0
    for w in enumerate_wide_subcategories(ctx):
        for obj in strigid_objects(ctx, w):
            if obj.is_zero:
                continue
            tables += 1
            want = torsion_table(ctx, w, obj)
            if e_table(ctx, w, obj) != want:
                mismatches.append((w.describe(ctx), obj.describe(ctx)))
    assert tables > 0 and mismatches == []
