"""Support tau-rigid objects, torsion quotients, and approximations.

Everything here is computed inside an ambient extension-closed "world" W
given as a set of iso-class ids (the module category itself is the full
set).  The key translation making relative computations cheap:

    Hom_W(A, tau_W B) = 0   iff   Ext^1(B, X) = 0 for every X in Gen(A) & W

so relative rigidity needs only absolute Ext groups and generated-class
membership, never an explicit equivalence with a second algebra.  A
support tau-rigid object in W is a pair (module part, shifted part): the
module part is a basic tau_W-rigid module in W, the shifted part a basic
Ext-projective of W with no maps into the module part, and the whole thing
is determined by pairwise conditions — so enumeration is clique search in
the compatibility graph.  That search is the only place rigidity is proved:
`is_support_tau_rigid` is membership in the (memoized) cliques of W.

The trace, the torsion-free quotient and the minimal approximations take
their Hom bases from the caller, which reads `Context.hom` when the target
is an enumerated class and computes them only for a module that is not.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from . import linalg
from .arquiver import radical_hom_basis
from .context import Context
from .errors import NotSupportTauRigid, WidecatError
from .modules import (Module, ModuleMorphism, cokernel, hstack_morphisms,
                      image_span, submodule, zero_module, zero_morphism)

# A summand key: ('m', class_id) for a module summand, ('s', class_id) for a
# shifted Ext-projective summand.
Key = tuple[str, int]

# Bases of Hom(A_i, x), keyed by the source class ids i in increasing order.
Homs = dict[int, list[ModuleMorphism]]


# The bit of a summand in a CObject mask: module i is bit 2i, shift i 2i + 1.
_KIND_BIT = {"m": 0, "s": 1}


class CObject:
    """A basic object of the shifted-projectives category: U + P[1].

    One int `mask` of summand bits and what it derives, made once: `_INTERNED`
    keeps one instance per mask, as `sys.intern` keeps one string per value (a
    mask means the same in every context, so this is not a memo).  Every
    constructor, copy and pickle returns it, so == and hash are identity."""

    __slots__ = ("mask", "classes", "mods", "shifts", "delta", "_keys")

    def __new__(cls, mods=(), shifts=()):
        for part, what in ((mods, "module"), (shifts, "shifted")):
            if list(part) != sorted(set(part)):
                raise NotSupportTauRigid(f"{what} summands must be distinct (basic object)")
        return CObject.of(mods, shifts)

    @staticmethod
    def of(mods=(), shifts=()) -> "CObject":
        return _interned(sum({1 << 2 * i for i in mods} | {2 << 2 * i for i in shifts}))

    @staticmethod
    def from_keys(keys) -> "CObject":
        mask = 0
        for kind, i in keys:
            mask |= 1 << 2 * i + _KIND_BIT[kind]
        return _interned(mask)

    def __setattr__(self, name, value):
        raise AttributeError("CObject is immutable")

    def __reduce__(self):
        return _interned, (self.mask,)

    @property
    def is_zero(self) -> bool:
        return not self.mask

    def keys(self) -> tuple[Key, ...]:
        return self._keys

    def union(self, other: "CObject") -> "CObject":
        if self.classes & other.classes:
            raise NotSupportTauRigid("summand sets overlap; union is not basic")
        return _interned(self.mask | other.mask)

    def extended(self, key: Key) -> "CObject | None":
        """self + key if key's class is new to self and that object exists
        (every clique does), else None; it makes no object."""
        if self.classes >> 2 * key[1] & 1:
            return None
        return _INTERNED.get(self.mask | 1 << 2 * key[1] + _KIND_BIT[key[0]])

    def describe(self, ctx: Context) -> str:
        parts = [ctx.label(i) for i in self.mods] + \
                [ctx.label(i) + "[1]" for i in self.shifts]
        return "+".join(parts) if parts else "0"


_INTERNED: dict[int, CObject] = {}


def _interned(mask: int) -> CObject:
    """The one CObject with this mask, made on first sight if it is basic."""
    try:
        return _INTERNED[mask]
    except KeyError:
        pass
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    mods = tuple(b >> 1 for b in bits if not b & 1)
    shifts = tuple(b >> 1 for b in bits if b & 1)
    plain = sum(1 << 2 * i for i in mods)
    if plain & mask >> 1:
        raise NotSupportTauRigid("a class appears both plain and shifted")
    keys = tuple([("m", i) for i in mods] + [("s", i) for i in shifts])
    obj = _INTERNED[mask] = object.__new__(CObject)
    for name, value in zip(CObject.__slots__, (mask, plain | (mask ^ plain) >> 1,
                                               mods, shifts, len(bits), keys)):
        object.__setattr__(obj, name, value)
    return obj


ZERO_COBJECT = CObject.of()


@dataclass(frozen=True)
class WideSubcategory:
    """A wide subcategory of the module category, as its set of class ids."""

    members: frozenset[int]

    @functools.cached_property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def describe(self, ctx: Context) -> str:
        if len(self.members) == ctx.ind_count():
            return "mod"
        if not self.members:
            return "0"
        return "{" + ",".join(ctx.label(i) for i in self.key) + "}"


def world(ctx: Context, members: frozenset[int]) -> WideSubcategory:
    """The context's one `WideSubcategory` with these members."""
    return ctx.cached(("world", members), WideSubcategory, members)


def full_subcategory(ctx: Context) -> WideSubcategory:
    return world(ctx, frozenset(ctx.ind_ids()))


# -- torsion machinery ----------------------------------------------------------

def trace_submodule(x: Module, homs: Homs) -> tuple[Module, ModuleMorphism]:
    """The trace of the sources of homs in x: the sum of the images of all maps."""
    return submodule(x, image_span(x, [f for fs in homs.values() for f in fs]), "trace")


def torsion_free_quotient(x: Module, homs: Homs) -> tuple[Module, ModuleMorphism]:
    """x / trace(U, x) with its projection (the functor f_U)."""
    return cokernel(trace_submodule(x, homs)[1])


# -- rigidity predicates ---------------------------------------------------------

def hom_tau_vanishes(ctx: Context, w: WideSubcategory, i: int, j: int) -> bool:
    """Hom_W(X_i, tau_W X_j) = 0, via the Ext-Gen translation for proper W."""
    if len(w.members) == ctx.ind_count():
        t = ctx.tau(j)
        return t is None or ctx.hom_dim(i, t) == 0
    gen = ctx.gen_members(frozenset([i])) & w.members
    return all(ctx.ext1(j, g) == 0 for g in sorted(gen))


def ext_projective_ids(ctx: Context, w: WideSubcategory) -> list[int]:
    """Ext-projectives of W (extensions in W are absolute, so Ext^1 is too)."""
    return list(ctx.cached(("extproj", w.key), _ext_projectives, ctx, w))


def _ext_projectives(ctx: Context, w: WideSubcategory) -> tuple[int, ...]:
    return tuple(i for i in w.key if all(ctx.ext1(i, j) == 0 for j in w.key))


def keys_compatible(ctx: Context, w: WideSubcategory, a: Key, b: Key) -> bool:
    """Can the two summands coexist in one support tau-rigid object of C(W)?"""
    (ka, ia), (kb, ib) = a, b
    if ka == "m" and kb == "m":
        return hom_tau_vanishes(ctx, w, ia, ib) and hom_tau_vanishes(ctx, w, ib, ia)
    if ka == "s" and kb == "s":
        return True
    if ka == "s":
        (ka, ia), (kb, ib) = b, a
    # module + shifted projective: no maps from the projective to the module
    return ctx.hom_dim(ib, ia) == 0


def candidate_keys(ctx: Context, w: WideSubcategory) -> list[Key]:
    """All single-summand keys valid in C(W), deterministically ordered."""
    keys: list[Key] = []
    for i in w.key:
        if hom_tau_vanishes(ctx, w, i, i):
            keys.append(("m", i))
    for p in ext_projective_ids(ctx, w):
        keys.append(("s", p))
    return keys


def is_support_tau_rigid(ctx: Context, w: WideSubcategory, obj: CObject) -> bool:
    """Membership in the clique set of C(W) (see `strigid_objects`)."""
    return obj in strigid_positions(ctx, w)


def strigid_objects(ctx: Context, w: WideSubcategory) -> list[CObject]:
    """All basic support tau-rigid objects of C(W), the zero object included.

    Clique enumeration over the pairwise compatibility graph; pairwise
    compatibility (including each key with itself) is exactly support
    tau-rigidity of the direct sum.
    """
    return list(strigid_positions(ctx, w))


def strigid_positions(ctx: Context, w: WideSubcategory) -> dict[CObject, int]:
    """Each object of `strigid_objects`, in order, mapped to its position."""
    return ctx.cached(("strigid", w.key), _enumerate_cliques, ctx, w)


def _enumerate_cliques(ctx: Context, w: WideSubcategory) -> dict[CObject, int]:
    keys = candidate_keys(ctx, w)
    adj: dict[Key, set[Key]] = {k: set() for k in keys}
    for x in range(len(keys)):
        for y in range(x + 1, len(keys)):
            if keys_compatible(ctx, w, keys[x], keys[y]):
                adj[keys[x]].add(keys[y])
                adj[keys[y]].add(keys[x])
    out: list[CObject] = []

    def extend(chosen: list[Key], rest: list[Key]):
        out.append(CObject.from_keys(chosen))
        for idx, k in enumerate(rest):
            nxt = [r for r in rest[idx + 1:] if r in adj[k]]
            extend(chosen + [k], nxt)

    extend([], keys)
    out.sort(key=lambda o: (o.delta, o.mods, o.shifts))
    return {o: k for k, o in enumerate(out)}


def stilting_objects(ctx: Context, w: WideSubcategory) -> list[CObject]:
    """Maximal (support tau-tilting) objects: the cliques of maximal size."""
    rank = wide_rank(ctx, w)
    return [o for o in strigid_objects(ctx, w) if o.delta == rank]


def wide_rank(ctx: Context, w: WideSubcategory) -> int:
    """The summand count of the last clique, the largest as they are sorted."""
    return next(reversed(strigid_positions(ctx, w))).delta


# -- minimal approximations -------------------------------------------------------

def minimal_right_approximation(ctx: Context, homs: Homs, x: Module
                                ) -> tuple[ModuleMorphism, list[int]]:
    """Minimal right add(sum of the sources)-approximation of x.

    Returns (map from a direct sum of source representatives, the list of
    summand ids used).  Multiplicities are read off from Hom(A_i, x) modulo
    maps factoring through the radical of add(A).
    """
    fd = ctx.alg.field
    chosen: list[ModuleMorphism] = []
    chosen_ids: list[int] = []
    for i, hi in homs.items():
        if not hi:
            continue
        rad_vecs = []
        for j, hj in homs.items():
            if not hj:
                continue
            for r in radical_hom_basis(ctx, i, j):
                for g in hj:
                    vec = g.compose(r).flatten()
                    if any(t != 0 for t in vec):
                        rad_vecs.append(vec)
        for k in linalg.independent_columns(fd, rad_vecs, [f.flatten() for f in hi]):
            chosen.append(hi[k])
            chosen_ids.append(i)
    if not chosen:
        z = zero_module(ctx.alg)
        return zero_morphism(z, x), []
    return hstack_morphisms(chosen), chosen_ids


def cover_in(ctx: Context, homs: Homs, x: Module) -> tuple[ModuleMorphism, list[int]]:
    """Minimal right approximation required to be surjective (a relative cover)."""
    f, ids = minimal_right_approximation(ctx, homs, x)
    if not f.is_surjective():
        raise WidecatError(
            "relative projective cover is not surjective; the target does "
            "not lie in the subcategory generated by the given projectives")
    return f, ids


# -- Bongartz completion -----------------------------------------------------------

def perp_tau_members(ctx: Context, u_ids) -> frozenset[int]:
    """{X : Hom(X, tau U) = 0}, the Bongartz torsion class of a tau-rigid U."""
    u_ids = sorted(set(u_ids))
    full = full_subcategory(ctx)
    return frozenset(x for x in ctx.ind_ids()
                     if all(hom_tau_vanishes(ctx, full, x, u) for u in u_ids))


def bongartz_complement(ctx: Context, u_ids) -> tuple[int, ...]:
    """Summand ids completing a tau-rigid module to a tau-tilting one."""
    u_set = set(u_ids)
    perp = perp_tau_members(ctx, u_ids)
    projs = ext_projective_ids(ctx, WideSubcategory(perp))
    if not u_set <= set(projs):
        raise NotSupportTauRigid(
            "input is not tau-rigid (it is not Ext-projective in its own "
            "Bongartz class)")
    return tuple(i for i in projs if i not in u_set)


def split_projective_part(ctx: Context, t_ids) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(split, non-split) summands of a tau-tilting module.

    An indecomposable summand X is split projective in Gen(T) exactly when
    X does not lie in the class generated by the other summands.
    """
    t_list = sorted(set(t_ids))
    split, nonsplit = [], []
    for x in t_list:
        others = frozenset(t for t in t_list if t != x)
        if x in ctx.gen_members(others):
            nonsplit.append(x)
        else:
            split.append(x)
    return tuple(split), tuple(nonsplit)
