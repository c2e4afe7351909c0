"""Signed exceptional sequences and factorizations of category morphisms.

A signed sequence in W is an ordered tuple of indecomposable summand objects
(modules or shifted relative projectives): the last entry must be support
tau-rigid in C(W) and the prefix must be a signed sequence in the wide
subcategory the last entry cuts out.  `phi` converts such a sequence into an
ordered support tau-rigid object of C(W) by pulling every earlier entry back
through the inverse reduction bijections; `phi_inverse` undoes it.  The same
machinery lists all factorizations of a category morphism into irreducible
morphisms: they correspond exactly to the orderings of the label's summands.

Both directions recurse on tuples of summand keys, check their input level
by level on a memo miss, and are memoized per world W in the dicts kept by
`Context.cached` under `("phi", w.key)` and `("phi_inverse", w.key)`, each
from a key tuple of two or more summands to the result key tuple; a hit
stands for a check that has passed.  The memos hold keys only, and only the
shared copies in `"singles"` (summand key -> that copy and its
single-summand object); results are built from those shared objects.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .category import WideCategory, WideCatMorphism, morphism
from .context import Context
from .errors import NotExceptional, WidecatError
from .reduction import e_table, f_map_keys, wide_of
from .taurigid import (CObject, Key, WideSubcategory, candidate_keys,
                       is_support_tau_rigid, strigid_objects)


def is_signed_tau_exceptional(ctx: Context, w: WideSubcategory, entries) -> bool:
    """Recursive membership test; entries are single-summand objects."""
    entries = tuple(entries)
    if not entries:
        return True
    last = entries[-1]
    if last.delta != 1 or not is_support_tau_rigid(ctx, w, last):
        return False
    return is_signed_tau_exceptional(ctx, wide_of(ctx, w, last), entries[:-1])


def enumerate_signed_sequences(ctx: Context, w: WideSubcategory,
                               length: int) -> list[tuple[CObject, ...]]:
    """All signed sequences of the given length, deterministically ordered."""
    if length == 0:
        return [()]
    out = []
    for k in candidate_keys(ctx, w):
        last = CObject.from_keys([k])
        for prefix in enumerate_signed_sequences(
                ctx, wide_of(ctx, w, last), length - 1):
            out.append(prefix + (last,))
    return out


def count_signed_sequences(ctx: Context, w: WideSubcategory, length: int) -> int:
    """The number of signed sequences, counted without listing them."""
    if length == 0:
        return 1
    return sum(count_signed_sequences(
        ctx, wide_of(ctx, w, CObject.from_keys([k])), length - 1)
        for k in candidate_keys(ctx, w))


def ordered_strigid_objects(ctx: Context, w: WideSubcategory,
                            length: int) -> list[tuple[CObject, ...]]:
    """Orderings of the summands of basic support tau-rigid objects."""
    out = []
    for obj in strigid_objects(ctx, w):
        if obj.delta != length:
            continue
        singles = [CObject.from_keys([k]) for k in obj.keys()]
        out.extend(itertools.permutations(singles))
    out.sort(key=lambda seq: [s.keys()[0] for s in seq])
    return out


def _canonical(ctx: Context, keys) -> tuple[Key, ...]:
    """The shared copies of the given summand keys (see the module docstring)."""
    singles = ctx.cached("singles", dict)
    for k in keys:
        if k not in singles:
            singles[k] = (k, CObject.from_keys([k]))
    return tuple(singles[k][0] for k in keys)


def phi(ctx: Context, w: WideSubcategory, entries) -> tuple[CObject, ...]:
    """Sequence -> ordered object: pull entries back to C(W) and keep order."""
    entries = tuple(entries)
    if any(e.delta != 1 for e in entries):
        raise NotExceptional("entries of a signed sequence must be indecomposable")
    keys = _canonical(ctx, [e.keys()[0] for e in entries])
    singles = ctx.cached("singles", dict)
    return tuple(singles[k][1] for k in _phi(ctx, w, keys))


def _phi(ctx: Context, w: WideSubcategory, keys: tuple[Key, ...]
         ) -> tuple[Key, ...]:
    """`phi` on canonical summand keys, checked at every level it computes."""
    if not keys:
        return keys
    memo = ctx.cached(("phi", w.key), dict)
    if keys in memo:
        return memo[keys]
    last = ctx.cached("singles", dict)[keys[-1]][1]
    if not is_support_tau_rigid(ctx, w, last):
        raise NotExceptional("input is not a signed exceptional sequence")
    if len(keys) == 1:
        return keys
    inner = _phi(ctx, wide_of(ctx, w, last), keys[:-1])
    out = memo[keys] = _canonical(ctx, f_map_keys(ctx, w, last, inner)) + keys[-1:]
    return out


def phi_inverse(ctx: Context, w: WideSubcategory, ordered) -> tuple[CObject, ...]:
    """Ordered object -> sequence: reduce the earlier summands by the last."""
    ordered = tuple(ordered)
    if any(v.delta != 1 for v in ordered):
        raise NotExceptional("entries of an ordered object must be indecomposable")
    keys = _canonical(ctx, [v.keys()[0] for v in ordered])
    singles = ctx.cached("singles", dict)
    return tuple(singles[k][1] for k in _phi_inverse(ctx, w, keys))


def _phi_inverse(ctx: Context, w: WideSubcategory, keys: tuple[Key, ...]
                 ) -> tuple[Key, ...]:
    """`phi_inverse` on canonical summand keys, checked at every level."""
    memo = ctx.cached(("phi_inverse", w.key), dict)
    if keys in memo:
        return memo[keys]
    total = CObject.from_keys(keys)
    if total.delta != len(keys) or not is_support_tau_rigid(ctx, w, total):
        raise NotExceptional("summands do not form a support tau-rigid object")
    if len(keys) <= 1:
        return keys
    last = ctx.cached("singles", dict)[keys[-1]][1]
    table = e_table(ctx, w, last)
    mapped = _canonical(ctx, [table[k] for k in keys[:-1]])
    out = _phi_inverse(ctx, wide_of(ctx, w, last), mapped) + keys[-1:]
    memo[keys] = out
    return out


@dataclass(frozen=True)
class Factorization:
    """One factorization of a morphism, tagged with its summand ordering."""
    ordering: tuple[CObject, ...]           # summands of the label, in order
    chain: tuple[WideCatMorphism, ...]      # irreducibles, first-applied first


def factorizations(cat: WideCategory, m: WideCatMorphism) -> list[Factorization]:
    """All factorizations of m into irreducibles, one per label ordering."""
    ctx = cat.ctx
    singles = [CObject.from_keys([k]) for k in m.label.keys()]
    out = []
    for perm in itertools.permutations(singles):
        entries = phi_inverse(ctx, m.source, perm)
        chain = []
        cur = m.source
        for u in reversed(entries):
            g = morphism(ctx, cur, u)
            chain.append(g)
            cur = g.target
        if chain:
            comp = chain[0]
            for g in chain[1:]:
                comp = cat.compose(g, comp)
        else:
            comp = m
        if comp != m:
            raise WidecatError("factorization chain does not compose back")
        out.append(Factorization(tuple(perm), tuple(chain)))
    return out
