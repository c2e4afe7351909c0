"""Bound path algebras kQ/I.

A presentation is a quiver plus admissible relations; `build_algebra` turns
it into a concrete finite-dimensional algebra with

* a deterministic path basis (sorted by length, then lexicographically by
  arrow labels, then by source vertex),
* a reduction map expressing any path in that basis,
* structure constants for products of basis paths.

Relations must be length-homogeneous: every term of a relation has the same
length.  The ideal I they generate is then graded by path length,
I = sum of its pieces I_d, and I_d is spanned by the relations of length d
together with arrow*I_(d-1) and I_(d-1)*arrow.  The basis is built degree by
degree: I_d is echelonized over the free paths of length d against a fixed
monomial order (leading term = greatest path; paths of one length compare
lexicographically by arrow labels), and the paths that lead no echelon row
survive as basis paths.  The echelon rows also give each path of length d its
expansion in the surviving paths of that length.

Finite-dimensionality certificate: the build stops at the first length d
whose free paths all lie in I_d.  Every longer path then has a prefix of
length d, so it lies in the ideal too, and the basis is complete for all
degrees.  A quiver whose free paths keep surviving is rejected once it has
more than `_MAX_FREE_PATHS` paths.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import linalg
from .errors import InconsistentRelation, NonAdmissible, NotFiniteDimensional, UnknownVertex
from .fields import FieldSpec, QQ

# A path is (source_vertex_index, tuple_of_arrow_indices_in_application_order):
# the first arrow of the tuple is applied first.  The trivial path at v is
# (v, ()).
Path = tuple[int, tuple[int, ...]]

_MAX_FREE_PATHS = 2_000


@dataclass(frozen=True)
class Arrow:
    label: str
    source: int
    target: int


def _relation_text(rel) -> str:
    return " + ".join(coeff + " " + "*".join(reversed(labels)) for coeff, labels in rel)


@dataclass(frozen=True)
class QuiverPresentation:
    """Plain data: vertex labels, arrows, relations, field.

    A relation is a tuple of terms; a term is (coefficient_string, arrows)
    with arrows a tuple of arrow labels in application order (first applied
    first).  Coefficients are rational strings like '1', '-2', '3/2'.  All
    terms of a relation are parallel paths of one length, at least 2.
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...] = ()  # (label, source_label, target_label)
    relations: tuple[tuple[tuple[str, tuple[str, ...]], ...], ...] = ()
    field: FieldSpec = QQ

    def canonical_text(self) -> str:
        """Stable serialization used for cache keys."""
        chunks = [f"field {self.field.name()}"]
        for v in self.vertices:
            chunks.append(f"vertex {v}")
        for lab, s, t in self.arrows:
            chunks.append(f"arrow {lab} : {s} -> {t}")
        for rel in self.relations:
            chunks.append("relation " + _relation_text(rel))
        return "\n".join(chunks) + "\n"


class Algebra:
    """A bound path algebra with a fixed basis of paths.

    Not constructed directly; use `build_algebra`.
    """

    def __init__(self, presentation: QuiverPresentation):
        self.presentation = presentation
        self.field = presentation.field
        self.vertex_labels = list(presentation.vertices)
        self.n = len(self.vertex_labels)
        self._vertex_index = {v: i for i, v in enumerate(self.vertex_labels)}
        if len(self._vertex_index) != self.n:
            raise UnknownVertex("duplicate vertex label")
        self.arrows: list[Arrow] = []
        self._arrow_index: dict[str, int] = {}
        for lab, s, t in presentation.arrows:
            if s not in self._vertex_index:
                raise UnknownVertex(f"arrow {lab}: unknown source vertex {s!r}")
            if t not in self._vertex_index:
                raise UnknownVertex(f"arrow {lab}: unknown target vertex {t!r}")
            if lab in self._arrow_index or lab in self._vertex_index:
                raise InconsistentRelation(f"duplicate label {lab!r}")
            self._arrow_index[lab] = len(self.arrows)
            self.arrows.append(Arrow(lab, self._vertex_index[s], self._vertex_index[t]))
        self._relations = [self._check_relation(r) for r in presentation.relations]
        self._build_basis()
        self._mult_memo: dict[tuple[int, int], dict[int, object]] = {}

    # ----- presentation checks ------------------------------------------

    def _check_relation(self, rel) -> list[tuple[object, tuple[int, ...]]]:
        if not rel:
            raise InconsistentRelation("empty relation")
        terms = []
        endpoints = None
        for coeff_str, labels in rel:
            if len(labels) < 2:
                raise NonAdmissible(
                    "relation term of length < 2 (relations must lie in the "
                    "square of the arrow ideal)")
            idxs = []
            for lab in labels:
                if lab not in self._arrow_index:
                    raise InconsistentRelation(f"unknown arrow {lab!r} in relation")
                idxs.append(self._arrow_index[lab])
            for a, b in zip(idxs, idxs[1:]):
                if self.arrows[a].target != self.arrows[b].source:
                    raise InconsistentRelation(
                        f"arrows {self.arrows[a].label}, {self.arrows[b].label} "
                        "do not compose")
            ep = (self.arrows[idxs[0]].source, self.arrows[idxs[-1]].target)
            if endpoints is None:
                endpoints = ep
            elif endpoints != ep:
                raise InconsistentRelation("relation terms are not parallel")
            coeff = self.field.of(Fraction(coeff_str))
            if coeff != 0:
                terms.append((coeff, tuple(idxs)))
        if not terms:
            raise InconsistentRelation("relation is identically zero")
        lengths = sorted({len(idxs) for _, idxs in terms})
        if len(lengths) > 1:
            raise NonAdmissible(
                f"relation {_relation_text(rel)} has terms of lengths "
                f"{', '.join(map(str, lengths))}; relations must be "
                "length-homogeneous")
        return terms

    # ----- path combinatorics -------------------------------------------

    def path_source(self, p: Path) -> int:
        return p[0]

    def path_target(self, p: Path) -> int:
        src, arrs = p
        return self.arrows[arrs[-1]].target if arrs else src

    def _path_sort_key(self, p: Path):
        src, arrs = p
        return (len(arrs), tuple(self.arrows[a].label for a in arrs), src)

    def _build_basis(self) -> None:
        f = self.field
        rels_by_length: dict[int, list] = {}
        for terms in self._relations:
            rels_by_length.setdefault(len(terms[0][1]), []).append(terms)
        self.basis: list[Path] = []
        self.path_pos: dict[Path, int] = {}
        self._normal_form: dict[Path, dict[int, object]] = {}
        layer: list[Path] = [(v, ()) for v in range(self.n)]
        total = len(layer)
        ideal: list[dict[Path, object]] = []  # echelon rows of I_(length-1)
        length = 0
        while layer:
            rows = []
            for terms in rels_by_length.get(length, ()):
                row: dict[Path, object] = {}
                for coeff, rel_arrs in terms:
                    p = (self.arrows[rel_arrs[0]].source, rel_arrs)
                    row[p] = f.add(row.get(p, f.zero), coeff)
                rows.append(row)
            for row in ideal:
                for ai, a in enumerate(self.arrows):
                    rows.append({(p[0], p[1] + (ai,)): c for p, c in row.items()
                                 if self.path_target(p) == a.source})
                    rows.append({(a.source, (ai,) + p[1]): c for p, c in row.items()
                                 if p[0] == a.target})
            # Monomial order: descending, so column 0 is the greatest path and
            # rref pivots are leading terms.
            cols = sorted(layer, key=self._path_sort_key, reverse=True)
            col_of = {p: j for j, p in enumerate(cols)}
            dense = []
            for row in rows:
                if row:
                    vec = [f.zero] * len(cols)
                    for p, c in row.items():
                        vec[col_of[p]] = c
                    dense.append(vec)
            reduced = linalg.row_space_reduce(f, dense)
            leads = {next(j for j, x in enumerate(r) if x != 0): r for r in reduced}
            survivors = [p for j, p in enumerate(cols) if j not in leads]
            if not survivors:
                break
            for p in reversed(survivors):
                self.path_pos[p] = len(self.basis)
                self._normal_form[p] = {len(self.basis): f.one}
                self.basis.append(p)
            for j, r in leads.items():
                self._normal_form[cols[j]] = {
                    self.path_pos[cols[k]]: f.neg(x)
                    for k, x in enumerate(r) if x != 0 and k != j}
            ideal = [{cols[k]: x for k, x in enumerate(r) if x != 0} for r in reduced]
            layer = [(p[0], p[1] + (ai,)) for p in layer
                     for ai, a in enumerate(self.arrows) if a.source == self.path_target(p)]
            length += 1
            total += len(layer)
            if total > _MAX_FREE_PATHS:
                raise NotFiniteDimensional(
                    f"more than {_MAX_FREE_PATHS} paths up to length {length}; "
                    "missing or insufficient relations?")
        self.dim = len(self.basis)
        self.max_path_length = length - 1
        self._by_src_tgt: dict[tuple[int, int], list[int]] = {}
        for i, p in enumerate(self.basis):
            key = (self.path_source(p), self.path_target(p))
            self._by_src_tgt.setdefault(key, []).append(i)

    # ----- reduction and multiplication ----------------------------------

    def paths_from_to(self, v: int, w: int) -> list[int]:
        """Basis indices of paths from vertex v to vertex w (sorted)."""
        return self._by_src_tgt.get((v, w), [])

    def trivial_path_index(self, v: int) -> int:
        return self.path_pos[(v, ())]

    def reduce_path(self, p: Path) -> dict[int, object]:
        """Expand a path in the basis as a sparse {basis_index: coefficient} dict.

        Paths longer than `max_path_length` lie in the ideal and give {}.
        """
        return self._normal_form.get(p, {})

    def mult(self, i: int, j: int) -> dict[int, object]:
        """Product basis[i] * basis[j] = "apply path j, then path i"."""
        key = (i, j)
        if key in self._mult_memo:
            return self._mult_memo[key]
        pi, pj = self.basis[i], self.basis[j]
        if self.path_target(pj) != self.path_source(pi):
            out: dict[int, object] = {}
        else:
            out = self.reduce_path((pj[0], pj[1] + pi[1]))
        self._mult_memo[key] = out
        return out

    def arrow_times_path(self, arrow_idx: int, path_basis_idx: int) -> dict[int, object]:
        """Left multiplication of a basis path by one arrow (sparse result)."""
        p = self.basis[path_basis_idx]
        if self.path_target(p) != self.arrows[arrow_idx].source:
            return {}
        return self.reduce_path((p[0], p[1] + (arrow_idx,)))

    def path_times_arrow(self, path_basis_idx: int, arrow_idx: int) -> dict[int, object]:
        """Right multiplication: (path) * (arrow) = apply arrow first."""
        p = self.basis[path_basis_idx]
        a = self.arrows[arrow_idx]
        if a.target != self.path_source(p):
            return {}
        return self.reduce_path((a.source, (arrow_idx,) + p[1]))

    def path_label(self, i: int) -> str:
        src, arrs = self.basis[i]
        if not arrs:
            return f"e_{self.vertex_labels[src]}"
        return "*".join(self.arrows[a].label for a in reversed(arrs))

    def __repr__(self):
        return (f"Algebra({len(self.vertex_labels)} vertices, "
                f"{len(self.arrows)} arrows, dim {self.dim}, "
                f"field {self.field.name()})")


def build_algebra(presentation: QuiverPresentation) -> Algebra:
    """Validate a presentation and construct the bound path algebra."""
    return Algebra(presentation)
