"""Per-algebra computation context.

Owns the iso-class registry (first-seen ids, found by an isomorphism scan
over the classes with the same dimension vector) and every cache keyed by
class ids: Hom bases, Ext^1 dimensions, minimal presentations, the AR
translate tables, and generated-subcategory membership.  Enumeration of all
indecomposables runs once, breadth-first from the projectives (then
injectives), closing under radical summands, both AR translates,
almost-split middle terms, and socle quotients; the translate tables are
filled in the same pass, as each translate is computed.  A budget caps the
number of iso classes so representation-infinite input fails fast instead
of spinning.

Caches are plain dicts filled on first use; every value is deterministic.
"""
from __future__ import annotations

from . import linalg
from .algebra import Algebra
from .arquiver import almost_split_sequence
from .errors import BudgetExceeded, InjectiveInput, WidecatError
from .homology import Presentation, ar_translate, ext1_dim, minimal_presentation
from .modules import (Module, ModuleMorphism, cokernel, decompose, hom_basis,
                      indec_isomorphic, injective_module,
                      projective_module, radical_inclusion, socle_vectors,
                      submodule)

DEFAULT_BUDGET = 10_000


class Context:
    def __init__(self, alg: Algebra, budget: int = DEFAULT_BUDGET,
                 snapshot: dict | None = None):
        self.alg = alg
        self.budget = budget
        self._reps: list[Module] = []
        self._by_dims: dict[tuple[int, ...], list[int]] = {}
        self.projective_ids: list[int] = []
        self.injective_ids: list[int] = []
        self._hom: dict[tuple[int, int], list[ModuleMorphism]] = {}
        self._ext: dict[tuple[int, int], int] = {}
        self._pres: dict[int, Presentation] = {}
        self._tau: dict[int, int | None] = {}
        self._tau_inv: dict[int, int | None] = {}
        self._gen: dict[frozenset, frozenset] = {}
        self._labels: dict[int, str] = {}
        self.memo: dict = {}  # derived objects; see `cached`
        if snapshot is None:
            self._enumerate()
            self._fill_labels()
        else:
            self._restore(snapshot)

    def _restore(self, snap: dict) -> None:
        """Rebuild the registry and tables from a stored enumeration."""
        for k, m in enumerate(snap["modules"]):
            if self._register(m) != k:
                raise ValueError("stored module list has duplicate classes")
        self.projective_ids = list(snap["projective_ids"])
        self.injective_ids = list(snap["injective_ids"])
        if len(self.projective_ids) != self.alg.n or len(self.injective_ids) != self.alg.n:
            raise ValueError("stored projective/injective id lists have wrong length")
        for v in range(self.alg.n):
            if self.id_of(projective_module(self.alg, v)) != self.projective_ids[v]:
                raise ValueError("stored projective ids are wrong")
            if self.id_of(injective_module(self.alg, v)) != self.injective_ids[v]:
                raise ValueError("stored injective ids are wrong")
        self._tau = dict(enumerate(snap["tau"]))
        self._tau_inv = dict(enumerate(snap["tau_inv"]))
        self._labels = dict(enumerate(snap["labels"]))
        n = len(self._reps)
        if not (len(self._tau) == len(self._tau_inv) == len(self._labels) == n):
            raise ValueError("stored tables do not match the module count")

    # -- enumeration -----------------------------------------------------

    def _register(self, m: Module) -> int:
        """Id of the class of an indecomposable, appending it when new."""
        found = self.id_of(m)
        if found is not None:
            return found
        self._by_dims.setdefault(m.dims, []).append(len(self._reps))
        self._reps.append(m)
        if len(self._reps) > self.budget:
            raise BudgetExceeded(
                f"more than {self.budget} indecomposable classes; "
                "raise the budget if the algebra really is this large")
        return len(self._reps) - 1

    def _register_translate(self, t: Module) -> int | None:
        """Id of the one summand of an AR translate; None when it is zero."""
        pieces = decompose(t)
        if not pieces:
            return None
        if len(pieces) != 1:
            raise WidecatError(f"AR translate {t.dims} of an indecomposable split into "
                               f"{', '.join(str(p.dims) for p in pieces)}")
        return self._register(pieces[0])

    def _socle_quotient(self, m: Module) -> Module:
        return cokernel(submodule(m, socle_vectors(m), "socle")[1])[0]

    def _enumerate(self) -> None:
        for v in range(self.alg.n):
            self.projective_ids.append(self._register(projective_module(self.alg, v)))
        for v in range(self.alg.n):
            self.injective_ids.append(self._register(injective_module(self.alg, v)))
        i = 0
        while i < len(self._reps):
            m = self._reps[i]
            for piece in decompose(radical_inclusion(m)[0]):
                self._register(piece)
            try:
                seq = almost_split_sequence(m)
            except InjectiveInput:
                self._tau_inv[i] = None
            else:
                self._tau_inv[i] = self._register_translate(seq.right)
                for piece in decompose(seq.middle):
                    self._register(piece)
            self._tau[i] = self._register_translate(ar_translate(m))
            for piece in decompose(self._socle_quotient(m)):
                self._register(piece)
            i += 1

    def _fill_labels(self) -> None:
        for k, i in enumerate(self.projective_ids):
            self._labels.setdefault(i, f"P{self.alg.vertex_labels[k]}")
        for k, i in enumerate(self.injective_ids):
            self._labels.setdefault(i, f"I{self.alg.vertex_labels[k]}")
        for i, m in enumerate(self._reps):
            dims = m.dims
            if sum(dims) == 1:
                v = dims.index(1)
                self._labels.setdefault(i, f"S{self.alg.vertex_labels[v]}")
        for i in range(len(self._reps)):
            self._labels.setdefault(i, f"M{i}")

    # -- accessors ---------------------------------------------------------

    def ind_count(self) -> int:
        return len(self._reps)

    def ind_ids(self) -> list[int]:
        return list(range(len(self._reps)))

    def rep(self, i: int) -> Module:
        return self._reps[i]

    def dims(self, i: int) -> tuple[int, ...]:
        return self._reps[i].dims

    def label(self, i: int) -> str:
        return self._labels[i]

    def id_of(self, m: Module) -> int | None:
        """Class id of an indecomposable module, if enumerated."""
        for i in self._by_dims.get(m.dims, ()):
            if indec_isomorphic(self._reps[i], m):
                return i
        return None

    def hom(self, i: int, j: int) -> list[ModuleMorphism]:
        key = (i, j)
        if key not in self._hom:
            self._hom[key] = hom_basis(self._reps[i], self._reps[j])
        return self._hom[key]

    def hom_dim(self, i: int, j: int) -> int:
        return len(self.hom(i, j))

    def pres(self, i: int) -> Presentation:
        if i not in self._pres:
            self._pres[i] = minimal_presentation(self._reps[i])
        return self._pres[i]

    def ext1(self, i: int, j: int) -> int:
        key = (i, j)
        if key not in self._ext:
            self._ext[key] = ext1_dim(self._reps[i], self._reps[j],
                                      self.pres(i))
        return self._ext[key]

    def tau(self, i: int) -> int | None:
        return self._tau[i]

    def tau_inv(self, i: int) -> int | None:
        return self._tau_inv[i]

    def is_projective(self, i: int) -> bool:
        return i in self.projective_ids

    def is_injective(self, i: int) -> bool:
        return i in self.injective_ids

    def cached(self, key, compute, *args):
        """`memo[key]`, or `compute(*args)` stored there on a miss.

        The one memo policy: one entry per derived object, keyed by its kind
        and what it is derived from.  The kinds: rad (arquiver); world,
        strigid, extproj (taurigid); wide_of, perp, relpres, f_U,
        etable, finv (reduction); wides, homs (category); link (verify);
        phi, phi_inverse (sequences).
        Only successes are stored, so a failing input raises on every call;
        the last two are dicts that their module grows by the same rule.
        No other value changes once stored, and none refers to the context.
        `CObject`'s one instance per mask is not a memo (see `taurigid`).
        Pass the function and its arguments, not a closure, to keep hits cheap.
        """
        if key in self.memo:
            return self.memo[key]
        out = self.memo[key] = compute(*args)
        return out

    # -- generated subcategories -------------------------------------------

    def gen_members(self, gens: frozenset[int]) -> frozenset[int]:
        """Ids of indecomposables lying in Gen(direct sum of the given classes)."""
        gens = frozenset(gens)
        if gens not in self._gen:
            glist = sorted(gens)
            fd = self.alg.field
            out = []
            for x, target in enumerate(self._reps):
                maps = [f for g in glist for f in self.hom(g, x)]
                # x is in Gen when the images fill every vertex: stop at the
                # first vertex where the joined matrices [f_1 ... f_k] lack
                # full row rank.
                if all(linalg.rank(fd, [[a for f in maps for a in f.mats[v][r]]
                                        for r in range(d)]) == d
                       for v, d in enumerate(target.dims)):
                    out.append(x)
            self._gen[gens] = frozenset(out)
        return self._gen[gens]


def build_context(alg: Algebra, budget: int = DEFAULT_BUDGET) -> Context:
    return Context(alg, budget)
