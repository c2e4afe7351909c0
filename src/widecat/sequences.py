"""Signed exceptional sequences and factorizations of category morphisms.

A signed sequence in W is an ordered tuple of indecomposable summand objects
(modules or shifted relative projectives): the last entry must be support
tau-rigid in C(W) and the prefix must be a signed sequence in the wide
subcategory the last entry cuts out.  `phi` converts such a sequence into an
ordered support tau-rigid object of C(W) by pulling every earlier entry back
through the inverse reduction bijections; `phi_inverse` undoes it.  The same
machinery lists all factorizations of a category morphism into irreducible
morphisms: they correspond exactly to the orderings of the label's summands.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .category import WideCategory, WideCatMorphism, morphism
from .context import Context
from .errors import NotExceptional, WidecatError
from .reduction import e_table, f_map, wide_of
from .taurigid import (CObject, WideSubcategory, candidate_keys,
                       full_subcategory, is_support_tau_rigid, strigid_objects)


def _as_world(ctx: Context, w: WideSubcategory | None) -> WideSubcategory:
    return w if w is not None else full_subcategory(ctx)


def is_signed_tau_exceptional(ctx: Context, w: WideSubcategory | None,
                              entries) -> bool:
    """Recursive membership test; entries are single-summand objects."""
    w = _as_world(ctx, w)
    entries = tuple(entries)
    if not entries:
        return True
    last = entries[-1]
    if last.delta != 1 or not is_support_tau_rigid(ctx, w, last):
        return False
    return is_signed_tau_exceptional(ctx, wide_of(ctx, w, last), entries[:-1])


def enumerate_signed_sequences(ctx: Context, w: WideSubcategory | None,
                               length: int) -> list[tuple[CObject, ...]]:
    """All signed sequences of the given length, deterministically ordered."""
    w = _as_world(ctx, w)
    if length == 0:
        return [()]
    out = []
    for k in candidate_keys(ctx, w):
        last = CObject.from_keys([k])
        for prefix in enumerate_signed_sequences(
                ctx, wide_of(ctx, w, last), length - 1):
            out.append(prefix + (last,))
    return out


def count_signed_sequences(ctx: Context, w: WideSubcategory | None,
                           length: int) -> int:
    return len(enumerate_signed_sequences(ctx, w, length))


def ordered_strigid_objects(ctx: Context, w: WideSubcategory | None,
                            length: int) -> list[tuple[CObject, ...]]:
    """Orderings of the summands of basic support tau-rigid objects."""
    w = _as_world(ctx, w)
    out = []
    for obj in strigid_objects(ctx, w):
        if obj.delta != length:
            continue
        singles = [CObject.from_keys([k]) for k in obj.keys()]
        out.extend(itertools.permutations(singles))
    out.sort(key=lambda seq: [s.keys()[0] for s in seq])
    return out


def phi(ctx: Context, w: WideSubcategory | None, entries) -> tuple[CObject, ...]:
    """Sequence -> ordered object: pull entries back to C(W) and keep order."""
    w = _as_world(ctx, w)
    entries = tuple(entries)
    if not is_signed_tau_exceptional(ctx, w, entries):
        raise NotExceptional("input is not a signed exceptional sequence")
    if len(entries) <= 1:
        return entries
    last = entries[-1]
    inner = phi(ctx, wide_of(ctx, w, last), entries[:-1])
    pulled = tuple(f_map(ctx, w, last, v) for v in inner)
    return pulled + (last,)


def phi_inverse(ctx: Context, w: WideSubcategory | None,
                ordered) -> tuple[CObject, ...]:
    """Ordered object -> sequence: reduce the earlier summands by the last."""
    w = _as_world(ctx, w)
    ordered = tuple(ordered)
    if any(v.delta != 1 for v in ordered):
        raise NotExceptional("entries of an ordered object must be indecomposable")
    total = CObject.from_keys([v.keys()[0] for v in ordered])
    if total.delta != len(ordered) or not is_support_tau_rigid(ctx, w, total):
        raise NotExceptional("summands do not form a support tau-rigid object")
    if len(ordered) <= 1:
        return ordered
    last = ordered[-1]
    table = e_table(ctx, w, last)
    mapped = tuple(CObject.from_keys([table[v.keys()[0]]]) for v in ordered[:-1])
    return phi_inverse(ctx, wide_of(ctx, w, last), mapped) + (last,)


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
