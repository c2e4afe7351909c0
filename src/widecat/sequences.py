"""Signed exceptional sequences and factorizations of category morphisms.

A signed sequence in W is an ordered tuple of indecomposable summand objects
(modules or shifted relative projectives): the last entry must be support
tau-rigid in C(W) and the prefix must be a signed sequence in the wide
subcategory the last entry cuts out.  `phi` converts such a sequence into an
ordered support tau-rigid object of C(W) by pulling every earlier entry back
through the inverse reduction bijections; `phi_inverse` undoes it.  The same
machinery lists all factorizations of a category morphism into irreducible
morphisms: they correspond exactly to the orderings of the label's summands.

Both directions recurse on tuples of single-summand objects, check their
input level by level on a memo miss, and are memoized per world W in the
dicts kept by `Context.cached` under `("phi", w.key)` and `("phi_inverse",
w.key)`, each from a tuple of two or more entries to the result tuple; a
hit stands for a check that has passed.  The entries are the interned
objects (see `CObject`), shared with every other holder, hashed by identity.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .category import WideCategory, WideCatMorphism, morphism
from .context import Context
from .errors import NotExceptional, WidecatError
from .reduction import e_table, f_map_keys, wide_of
from .taurigid import (CObject, WideSubcategory, candidate_keys,
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


def phi(ctx: Context, w: WideSubcategory, entries) -> tuple[CObject, ...]:
    """Sequence -> ordered object: pull entries back to C(W) and keep order."""
    entries = tuple(entries)
    if any(e.delta != 1 for e in entries):
        raise NotExceptional("entries of a signed sequence must be indecomposable")
    return _phi(ctx, w, entries)


def _phi(ctx: Context, w: WideSubcategory, entries: tuple[CObject, ...]
         ) -> tuple[CObject, ...]:
    """`phi` on single-summand objects, checked at every level it computes."""
    if not entries:
        return entries
    memo = ctx.cached(("phi", w.key), dict)
    if entries in memo:
        return memo[entries]
    last = entries[-1]
    if not is_support_tau_rigid(ctx, w, last):
        raise NotExceptional("input is not a signed exceptional sequence")
    if len(entries) == 1:
        return entries
    inner = _phi(ctx, wide_of(ctx, w, last), entries[:-1])
    pulled = f_map_keys(ctx, w, last, [e.keys()[0] for e in inner])
    out = memo[entries] = tuple(CObject.from_keys((k,)) for k in pulled) + entries[-1:]
    return out


def phi_inverse(ctx: Context, w: WideSubcategory, ordered) -> tuple[CObject, ...]:
    """Ordered object -> sequence: reduce the earlier summands by the last."""
    ordered = tuple(ordered)
    if any(v.delta != 1 for v in ordered):
        raise NotExceptional("entries of an ordered object must be indecomposable")
    return _phi_inverse(ctx, w, ordered)


def _phi_inverse(ctx: Context, w: WideSubcategory, entries: tuple[CObject, ...]
                 ) -> tuple[CObject, ...]:
    """`phi_inverse` on single-summand objects, checked at every level."""
    memo = ctx.cached(("phi_inverse", w.key), dict)
    if entries in memo:
        return memo[entries]
    total = CObject.from_keys([e.keys()[0] for e in entries])
    if total.delta != len(entries) or not is_support_tau_rigid(ctx, w, total):
        raise NotExceptional("summands do not form a support tau-rigid object")
    if len(entries) <= 1:
        return entries
    last = entries[-1]
    table = e_table(ctx, w, last)
    mapped = tuple(CObject.from_keys((table[e.keys()[0]],)) for e in entries[:-1])
    out = memo[entries] = _phi_inverse(ctx, wide_of(ctx, w, last), mapped) + entries[-1:]
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
