"""Algebra presentation files, module JSON, and the enumeration cache.

File format, one statement per line, `#` starts a comment:

    field Q               # or: field Fp 101  /  field F101
    vertex 1
    arrow a : 1 -> 2
    relation b*a          # terms are *-joined arrow chains, applied right to left
    relation b*a - 2 d*c  # optional rational coefficients on each term

All terms of a relation are paths of the same length.  An arrow label may
not contain `*`, `+` or `-`, the operators of a relation.

Parse errors carry file name and line number.  The enumeration cache is a
JSON snapshot of all indecomposables plus the translate and label tables,
content-addressed by the presentation text and field, so a reload reproduces
identical class ids; any structural mismatch raises CacheCorrupt and callers
fall back to a fresh enumeration.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction

from .algebra import Algebra, QuiverPresentation
from .context import Context, DEFAULT_BUDGET, build_context
from .errors import CacheCorrupt, IoError, ParseError
from .fields import FieldError, FieldSpec, QQ, field_from_name
from .modules import Module

_COEFF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_relation(body: str, where: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Split `b*a - 2 c + 1/2 d*e` into ((coeff, labels-in-application-order), ...)."""
    raw = body.replace("-", " § -").replace("+", " § +").split("§")
    terms = []
    for piece in raw:
        piece = piece.strip()
        if not piece:
            continue
        sign = "1"
        if piece[0] in "+-":
            sign = "-1" if piece[0] == "-" else "1"
            piece = piece[1:].strip()
        words = piece.split()
        if not words:
            raise ParseError(f"{where}: empty relation term")
        coeff = Fraction(sign)
        if _COEFF_RE.match(words[0]):
            coeff *= Fraction(words[0])
            words = words[1:]
        if len(words) != 1:
            raise ParseError(f"{where}: cannot read relation term {piece!r}")
        chain = [w.strip() for w in words[0].split("*")]
        if not all(chain):
            raise ParseError(f"{where}: malformed path {words[0]!r}")
        # written right-to-left (composition order); store application order
        terms.append((str(coeff), tuple(reversed(chain))))
    if not terms:
        raise ParseError(f"{where}: relation with no terms")
    return tuple(terms)


def parse_algebra_text(text: str, filename: str = "<string>") -> QuiverPresentation:
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list[tuple] = []
    field: FieldSpec = QQ
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{filename}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(" ")
        body = body.strip()
        if head == "field":
            try:
                field = field_from_name(body.replace(" ", ""))
            except FieldError as exc:
                raise ParseError(f"{where}: {exc}") from exc
        elif head == "vertex":
            if not body or " " in body:
                raise ParseError(f"{where}: vertex wants exactly one label")
            vertices.append(body)
        elif head == "arrow":
            m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", body)
            if not m:
                raise ParseError(
                    f"{where}: arrow syntax is `arrow <label> : <src> -> <tgt>`")
            if set(m.group(1)) & {"*", "+", "-"}:
                raise ParseError(f"{where}: arrow label {m.group(1)!r} contains *, + "
                                 "or -, which a relation reads as operators")
            arrows.append((m.group(1), m.group(2), m.group(3)))
        elif head == "relation":
            if not body:
                raise ParseError(f"{where}: relation wants a path expression")
            relations.append(_parse_relation(body, where))
        else:
            raise ParseError(f"{where}: unknown statement {head!r}")
    if not vertices:
        raise ParseError(f"{filename}: no vertices declared")
    return QuiverPresentation(tuple(vertices), tuple(arrows), tuple(relations),
                              field)


def parse_algebra_file(path: str) -> QuiverPresentation:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return parse_algebra_text(text, filename=os.path.basename(path))


# ---------------------------------------------------------------------------
# module (de)serialization — rationals as strings, always


def module_to_json(m: Module) -> dict:
    f = m.alg.field
    arrows = {}
    for ai, a in enumerate(m.alg.arrows):
        arrows[a.label] = [[f.to_str(x) for x in row] for row in m.mats[ai]]
    return {"dimension_vector": list(m.dims), "arrows": arrows}


def module_from_json(alg: Algebra, doc: dict) -> Module:
    f = alg.field
    dims = [int(d) for d in doc["dimension_vector"]]
    mats = {}
    for ai, a in enumerate(alg.arrows):
        rows = doc["arrows"].get(a.label, [])
        mats[ai] = [[f.of(x) for x in row] for row in rows]
    return Module(alg, dims, mats, check=True)


# ---------------------------------------------------------------------------
# enumeration cache

CACHE_VERSION = 1


def cache_key(presentation: QuiverPresentation) -> str:
    digest = hashlib.sha256(presentation.canonical_text().encode()).hexdigest()
    return digest[:24]


def snapshot_to_json(ctx: Context) -> dict:
    n = ctx.ind_count()
    return {
        "version": CACHE_VERSION,
        "algebra": ctx.alg.presentation.canonical_text(),
        "modules": [module_to_json(ctx.rep(i)) for i in range(n)],
        "projective_ids": list(ctx.projective_ids),
        "injective_ids": list(ctx.injective_ids),
        "tau": [ctx.tau(i) for i in range(n)],
        "tau_inv": [ctx.tau_inv(i) for i in range(n)],
        "labels": [ctx.label(i) for i in range(n)],
    }


def store_cache(cache_dir: str, ctx: Context) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, cache_key(ctx.alg.presentation) + ".json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(snapshot_to_json(ctx), fh, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return path


def load_cached_context(alg: Algebra, cache_dir: str,
                        budget: int = DEFAULT_BUDGET) -> Context | None:
    """Context from a cache hit; None on a miss; CacheCorrupt on a bad file."""
    path = os.path.join(cache_dir, cache_key(alg.presentation) + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["version"] != CACHE_VERSION:
            raise ValueError(f"cache version {doc['version']} unsupported")
        if doc["algebra"] != alg.presentation.canonical_text():
            raise ValueError("cached presentation text differs")
        snap = {
            "modules": [module_from_json(alg, d) for d in doc["modules"]],
            "projective_ids": doc["projective_ids"],
            "injective_ids": doc["injective_ids"],
            "tau": doc["tau"],
            "tau_inv": doc["tau_inv"],
            "labels": doc["labels"],
        }
        return Context(alg, budget, snapshot=snap)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        raise CacheCorrupt(f"{path}: {exc}") from exc


def context_for(alg: Algebra, cache_dir: str | None = None,
                budget: int = DEFAULT_BUDGET) -> Context:
    """Context via the cache when possible; recompute (and store) otherwise."""
    if cache_dir:
        try:
            ctx = load_cached_context(alg, cache_dir, budget)
            if ctx is not None:
                return ctx
        except CacheCorrupt:
            pass  # recompute below and overwrite the bad entry
    ctx = build_context(alg, budget)
    if cache_dir:
        store_cache(cache_dir, ctx)
    return ctx
