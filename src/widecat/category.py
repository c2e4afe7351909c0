"""The category whose objects are the wide subcategories of a module category.

Objects are wide subcategories; a morphism out of W is a formal symbol
carrying a basic support tau-rigid object T of C(W), with target the
associated wide subcategory of T inside W.  Composition pulls the second
label back through the inverse reduction bijection and takes the direct sum.
Irreducible morphisms are exactly those with an indecomposable label,
equivalently those whose target drops the rank by one; every query checks
that the rank drop equals the number of label summands.

Objects and morphism targets are the context's one `WideSubcategory` per
member set (`wide_of` returns it), and morphisms are slotted, since the
Hom-sets and the composition memo keep one per morphism or composable pair.

Exports render the irreducible morphisms as a labelled graph: each label is
shown by its module part, and the pair of morphisms attached to an
Ext-projective summand (the module and its shift have the same image) is
drawn as a single doubled edge.  `category_json` writes every morphism into
one parts list, as pieces shared between morphisms, and joins it once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .context import Context
from .errors import NotComposable, WidecatError
from .reduction import f_map, wide_of
from .taurigid import (CObject, Key, ZERO_COBJECT, WideSubcategory,
                       ext_projective_ids, full_subcategory, strigid_objects,
                       wide_rank)


@dataclass(frozen=True, slots=True)
class WideCatMorphism:
    source: WideSubcategory
    target: WideSubcategory
    label: CObject

    def describe(self, ctx: Context) -> str:
        return (f"g[{self.label.describe(ctx)}]: {self.source.describe(ctx)}"
                f" -> {self.target.describe(ctx)}")


def morphism(ctx: Context, w: WideSubcategory, label: CObject) -> WideCatMorphism:
    """The morphism out of W carrying the given support tau-rigid label."""
    return WideCatMorphism(w, wide_of(ctx, w, label), label)


def identity_of(w: WideSubcategory) -> WideCatMorphism:
    return WideCatMorphism(w, w, ZERO_COBJECT)


def enumerate_wide_subcategories(ctx: Context) -> list[WideSubcategory]:
    """All wide subcategories, as images of support tau-rigid objects.

    Sorted by descending rank (member count breaking ties by key) so the
    whole module category comes first and the zero subcategory last.
    """
    return list(ctx.cached("wides", _wides_by_rank, ctx))


def _wides_by_rank(ctx: Context) -> tuple[WideSubcategory, ...]:
    full = full_subcategory(ctx)
    seen = {wide_of(ctx, full, u) for u in strigid_objects(ctx, full)}
    return tuple(sorted(seen, key=lambda w: (-len(w.key), w.key)))


def _hom_sets(ctx: Context, drop_zero_object: bool
              ) -> dict[tuple, dict[tuple, tuple[WideCatMorphism, ...]]]:
    """source key -> target key -> morphisms, both levels in object order;
    kept per context by `Context.cached` (see `WideCategory`)."""
    objects = enumerate_wide_subcategories(ctx)
    index = {w.key: k for k, w in enumerate(objects)}
    homs = {}
    for w in objects:
        if drop_zero_object and not w.members:
            continue
        by_target: dict[tuple, list[WideCatMorphism]] = {}
        for u in strigid_objects(ctx, w):
            target = wide_of(ctx, w, u)  # the enumerated object itself
            if drop_zero_object and not target.members:
                continue
            by_target.setdefault(target.key, []).append(WideCatMorphism(w, target, u))
        homs[w.key] = {t: tuple(by_target[t])
                       for t in sorted(by_target, key=index.__getitem__)}
    return homs


class WideCategory:
    """Materialized objects, Hom-sets, ranks, and composition of the category."""

    def __init__(self, ctx: Context, drop_zero_object: bool = False):
        self.ctx = ctx
        self.objects = [w for w in enumerate_wide_subcategories(ctx)
                        if w.members or not drop_zero_object]
        self.rank = {w.key: wide_rank(ctx, w) for w in self.objects}
        self._homs = ctx.cached(("homs", drop_zero_object), _hom_sets, ctx,
                                drop_zero_object)
        self._compose_memo: dict[tuple, WideCatMorphism] = {}

    def hom_set(self, w1: WideSubcategory, w2: WideSubcategory
                ) -> list[WideCatMorphism]:
        return list(self._homs.get(w1.key, {}).get(w2.key, ()))

    def morphisms_from(self, w: WideSubcategory) -> list[WideCatMorphism]:
        return [m for ms in self._homs.get(w.key, {}).values() for m in ms]

    def all_morphisms(self) -> list[WideCatMorphism]:
        out = []
        for w in self.objects:
            out.extend(self.morphisms_from(w))
        return out

    def compose(self, b: WideCatMorphism, a: WideCatMorphism) -> WideCatMorphism:
        """b after a.  The label is label(a) plus the pullback of label(b)."""
        if a.target != b.source:
            raise NotComposable(
                "target of the first morphism is not the source of the second: "
                f"{b.describe(self.ctx)} after {a.describe(self.ctx)}")
        memo_key = (a.source.key, a.label, b.label)
        if memo_key in self._compose_memo:
            return self._compose_memo[memo_key]
        pulled = f_map(self.ctx, a.source, a.label, b.label)
        out = morphism(self.ctx, a.source, a.label.union(pulled))
        if out.target != b.target:
            raise WidecatError(
                f"composition landed outside the expected target: {b.describe(self.ctx)}"
                f" after {a.describe(self.ctx)} gave {out.describe(self.ctx)}")
        self._compose_memo[memo_key] = out
        return out

    def corank(self, m: WideCatMorphism) -> int:
        return self.rank[m.source.key] - self.rank[m.target.key]

    def is_irreducible(self, m: WideCatMorphism) -> bool:
        """Indecomposable label; cross-checked against the rank drop."""
        if self.corank(m) != m.label.delta:
            raise WidecatError("rank drop disagrees with the number of label "
                               f"summands: {m.describe(self.ctx)}")
        return m.label.delta == 1


# ---------------------------------------------------------------------------
# graph export


def _vertex_name(ctx: Context, w: WideSubcategory) -> str:
    if not w.members:
        return "0"
    return "{" + ",".join(ctx.label(i) for i in w.key) + "}"


def _irreducible_edges(cat: WideCategory) -> list[dict]:
    """Irreducible morphisms grouped into plain and doubled edges.

    For each Ext-projective summand P of W the two morphisms labelled P and
    P[1] share their target and are reported as one edge with doubled=True.
    """
    ctx = cat.ctx
    edges = []
    for w in cat.objects:
        projs = set(ext_projective_ids(ctx, w))
        for m in cat.morphisms_from(w):
            if not cat.is_irreducible(m):
                continue
            if m.label.shifts:
                continue  # merged into the doubled edge of the module partner
            i = m.label.mods[0]
            edges.append({
                "source": _vertex_name(ctx, m.source),
                "target": _vertex_name(ctx, m.target),
                "label": ctx.label(i),
                "doubled": i in projs,
            })
    edges.sort(key=lambda e: (e["source"], e["target"], e["label"]))
    return edges


def category_json(cat: WideCategory) -> str:
    """Deterministic JSON: objects (key, rank, members) and all morphisms.

    The text of `json.dumps(doc, indent=2, sort_keys=True)`, joined once
    from one parts list.  Each summand is encoded once, compact for the sort
    key and indented for the body, and the bodies go into the list as those
    shared pieces.  Hom-sets come in (source, target) order, so the text's
    morphism order is each Hom-set sorted by its compact labels."""
    ctx = cat.ctx
    objects = [{
        "key": list(w.key),
        "members": [ctx.label(i) for i in w.key],
        "rank": cat.rank[w.key],
    } for w in cat.objects]
    pieces: dict[Key, tuple[str, str]] = {}  # summand -> (compact, indented)
    for i in ctx.ind_ids():
        for kind in "ms":
            d = {"id": i, "name": ctx.label(i), "shift": kind == "s"}
            pieces[kind, i] = (json.dumps(d, sort_keys=True), "\n" + " " * 8 + _indented(d, 4))

    def compact(m: WideCatMorphism) -> str:
        return "[" + ", ".join(pieces[k][0] for k in m.label.keys()) + "]"

    index = {w.key: str(k) for k, w in enumerate(cat.objects)}
    # each list closes by overwriting the separator after its last element
    parts = [f'{{\n  "edges": {_indented(_irreducible_edges(cat), 1)},\n  "morphisms": ', "["]
    for w in cat.objects:
        source = index[w.key]
        for hom in cat._homs.get(w.key, {}).values():
            for m in sorted(hom, key=compact):
                parts += ('\n    {\n      "irreducible": ',
                          "true" if cat.is_irreducible(m) else "false",
                          ',\n      "label": ', "[")
                for k in m.label.keys():
                    parts += (pieces[k][1], ",")
                parts[-1] = "\n      ]" if m.label.delta else "[]"
                parts += (',\n      "source": ', source, ',\n      "target": ',
                          index[m.target.key], "\n    },")
    parts[-1] = "[]" if parts[-1] == "[" else "\n    }\n  ]"
    parts.append(f',\n  "objects": {_indented(objects, 1)}\n}}\n')
    return "".join(parts)


def _indented(value, depth: int) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` written at a nesting depth."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def category_dot(cat: WideCategory) -> str:
    """DOT graph of the irreducible morphisms, ranks laid out in rows."""
    ctx = cat.ctx
    names = {w.key: _vertex_name(ctx, w) for w in cat.objects}
    ids = {w.key: f"w{k}" for k, w in enumerate(cat.objects)}
    lines = ["digraph wide_subcategories {",
             '  rankdir="TB";',
             '  node [shape=box, fontsize=10];']
    by_rank: dict[int, list] = {}
    for w in cat.objects:
        by_rank.setdefault(cat.rank[w.key], []).append(w)
    for r in sorted(by_rank, reverse=True):
        row = " ".join(ids[w.key] + ";" for w in by_rank[r])
        lines.append(f"  {{ rank=same; {row} }}")
    id_by_name: dict[str, str] = {}
    for w in cat.objects:
        lines.append(f'  {ids[w.key]} [label="{names[w.key]}"];')
        id_by_name.setdefault(names[w.key], ids[w.key])
    for e in _irreducible_edges(cat):
        src, dst = id_by_name[e["source"]], id_by_name[e["target"]]
        style = ', color="black:white:black"' if e["doubled"] else ""
        lines.append(f'  {src} -> {dst} [label="{e["label"]}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
