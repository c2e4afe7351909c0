"""Command-line interface.

    widecat algebra check FILE
    widecat modules list FILE
    widecat ar-quiver export FILE [--format dot|json]
    widecat tau-rigid list FILE
    widecat wide list FILE
    widecat wide-cat export FILE [--format dot|json] [--drop-zero-object]
    widecat sequences {list,count} FILE --length T
    widecat factorizations FILE --morphism '["S2","P1[1]"]' [--source '[...]']
    widecat verify FILE [--suites a,b,...]

The nine commands come from one table, `_COMMANDS`, and every text-or-JSON
output goes through `_emit`.  Common flags: --field overrides the field
declared in the file, --budget caps the iso-class enumeration, --cache-dir
reuses stored enumerations, --format selects the output encoding.  Exit
codes: 0 success, 1 verification failure, 2 bad input, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .arquiver import ar_quiver_dot, ar_quiver_json, build_ar_quiver
from .category import (WideCategory, category_dot, category_json,
                       enumerate_wide_subcategories, morphism)
from .context import DEFAULT_BUDGET
from .algebra import build_algebra
from .errors import BudgetExceeded, InputError, NotSupportTauRigid
from .fields import field_from_name
from .sequences import (count_signed_sequences, enumerate_signed_sequences,
                        factorizations)
from .taurigid import (CObject, full_subcategory, strigid_objects, wide_rank,
                       world)
from .textio import context_for, parse_algebra_file
from .verify import SUITE_NAMES, run_verify


def _presentation(args):
    pres = parse_algebra_file(args.file)
    if args.field:
        pres = dataclasses.replace(pres, field=field_from_name(args.field))
    return pres


def _load(args):
    alg = build_algebra(_presentation(args))
    return alg, context_for(alg, cache_dir=args.cache_dir, budget=args.budget)


def _fmt(args, allowed: tuple[str, ...], default: str) -> str:
    fmt = args.fmt or default
    if fmt not in allowed:
        raise InputError(f"--format {fmt!r} not supported here; "
                         f"choose from {', '.join(allowed)}")
    return fmt


def _emit(fmt: str, doc, lines, total: int | None = None) -> None:
    """Print `doc` as JSON, or else each of `lines`, then `total` on stderr."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for line in lines:
        print(line)
    if total is not None:
        print(f"total: {total}", file=sys.stderr)


def _resolve_labels(ctx, names) -> list[int]:
    by_label = {ctx.label(i): i for i in ctx.ind_ids()}
    out = []
    for name in names:
        if name not in by_label:
            raise InputError(f"unknown module label {name!r}; "
                             f"known: {', '.join(sorted(by_label))}")
        if by_label[name] in out:
            raise InputError(f"module label {name!r} is repeated")
        out.append(by_label[name])
    return out


def _label_list(text: str, flag: str) -> list[str]:
    """The JSON array of module labels given to `flag`."""
    try:
        names = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{flag} must be a JSON array of labels: {exc}") from exc
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise InputError(f"{flag} wants a JSON array of module labels, got {text!r}")
    return names


def _parse_object(ctx, names) -> CObject:
    mods = [n for n in names if not n.endswith("[1]")]
    shifts = [n[:-3] for n in names if n.endswith("[1]")]
    return CObject.of(_resolve_labels(ctx, mods), _resolve_labels(ctx, shifts))


# -- commands ---------------------------------------------------------------


def _cmd_algebra(args) -> int:
    pres = _presentation(args)
    alg = build_algebra(pres)
    doc = {
        "vertices": len(pres.vertices),
        "arrows": len(pres.arrows),
        "relations": len(pres.relations),
        "dimension": alg.dim,
        "field": alg.field.name(),
    }
    _emit(_fmt(args, ("text", "json"), "text"), doc,
          [f"ok: {doc['vertices']} vertices, {doc['arrows']} arrows, "
           f"{doc['relations']} relations, dimension {doc['dimension']}, "
           f"field {doc['field']}"])
    return 0


def _module_line(r) -> str:
    tags = "".join(t for t, on in (("P", r["projective"]),
                                   ("I", r["injective"])) if on)
    dims = ",".join(str(d) for d in r["dimension_vector"])
    return f"{r['id']:>3}  {r['label']:<8} ({dims})  {tags}"


def _cmd_modules(args) -> int:
    fmt = _fmt(args, ("text", "json"), "text")
    _, ctx = _load(args)
    rows = [{"id": i, "label": ctx.label(i),
             "dimension_vector": list(ctx.dims(i)),
             "projective": ctx.is_projective(i),
             "injective": ctx.is_injective(i)}
            for i in ctx.ind_ids()]
    _emit(fmt, {"modules": rows}, map(_module_line, rows))
    return 0


def _cmd_ar_quiver(args) -> int:
    fmt = _fmt(args, ("dot", "json"), "dot")
    _, ctx = _load(args)
    arq = build_ar_quiver(ctx)
    if fmt == "dot":
        sys.stdout.write(ar_quiver_dot(arq))
    else:
        _emit(fmt, ar_quiver_json(arq), ())
    return 0


def _cmd_tau_rigid(args) -> int:
    fmt = _fmt(args, ("text", "json"), "text")
    _, ctx = _load(args)
    objs = strigid_objects(ctx, full_subcategory(ctx))
    _emit(fmt, {"objects": [
        {"summands": [ctx.label(i) for i in o.mods] +
                     [ctx.label(i) + "[1]" for i in o.shifts],
         "size": o.delta} for o in objs]},
        (o.describe(ctx) for o in objs), len(objs))
    return 0


def _cmd_wide(args) -> int:
    fmt = _fmt(args, ("text", "json"), "text")
    _, ctx = _load(args)
    wides = enumerate_wide_subcategories(ctx)
    _emit(fmt, {"wide_subcategories": [
        {"members": [ctx.label(i) for i in w.key],
         "rank": wide_rank(ctx, w)} for w in wides]},
        (f"rank {wide_rank(ctx, w)}: {w.describe(ctx)}" for w in wides),
        len(wides))
    return 0


def _cmd_wide_cat(args) -> int:
    fmt = _fmt(args, ("dot", "json"), "dot")
    _, ctx = _load(args)
    cat = WideCategory(ctx, drop_zero_object=args.drop_zero_object)
    sys.stdout.write(category_dot(cat) if fmt == "dot" else category_json(cat))
    return 0


def _cmd_sequences(args) -> int:
    fmt = _fmt(args, ("text", "json"), "text")
    if args.length < 0:
        raise InputError("--length must be nonnegative")
    _, ctx = _load(args)
    full = full_subcategory(ctx)
    if args.verb == "count":
        n = count_signed_sequences(ctx, full, args.length)
        _emit(fmt, {"length": args.length, "count": n}, [n])
        return 0
    seqs = [[e.describe(ctx) for e in seq]
            for seq in enumerate_signed_sequences(ctx, full, args.length)]
    _emit(fmt, {"length": args.length, "sequences": seqs},
          ("(" + ", ".join(seq) + ")" for seq in seqs), len(seqs))
    return 0


def _cmd_factorizations(args) -> int:
    fmt = _fmt(args, ("text", "json"), "text")
    names = _label_list(args.morphism, "--morphism")
    src_names = None if args.source is None else _label_list(args.source, "--source")
    _, ctx = _load(args)
    if src_names is None:
        w = full_subcategory(ctx)
    else:
        w = world(ctx, frozenset(_resolve_labels(ctx, src_names)))
    cat = WideCategory(ctx)
    if w.key not in {o.key for o in cat.objects}:
        raise InputError("--source is not a wide subcategory here")
    try:
        m = morphism(ctx, w, _parse_object(ctx, names))
    except NotSupportTauRigid as exc:
        raise InputError(f"--morphism does not name a support tau-rigid "
                         f"object of the source: {exc}") from exc
    chains = factorizations(cat, m)
    _emit(fmt, {"morphism": m.label.describe(ctx),
                "source": [ctx.label(i) for i in w.key],
                "factorizations": [
                    {"ordering": [o.describe(ctx) for o in c.ordering],
                     "chain": [g.label.describe(ctx) for g in c.chain]}
                    for c in chains]},
          (" . ".join(f"g[{g.label.describe(ctx)}]"
                      for g in reversed(c.chain)) or "identity"
           for c in chains), len(chains))
    return 0


def _cmd_verify(args) -> int:
    fmt = _fmt(args, ("text", "json"), "text")
    _, ctx = _load(args)
    suites = None
    if args.suites and args.suites != "all":
        suites = [s.strip() for s in args.suites.split(",") if s.strip()]
        bad = [s for s in suites if s not in SUITE_NAMES]
        if bad:
            raise InputError(f"unknown suites {bad}; "
                             f"choose from {', '.join(SUITE_NAMES)}")
    reports = run_verify(ctx, suites=suites, algebra=args.file)
    _emit(fmt, {"reports": [r.to_json() for r in reports]},
          (line for r in reports for line in
           [r.describe(), *(f"    FAIL {f.check}: {f.counterexample}"
                            for f in r.failures)]))
    return 0 if all(r.ok for r in reports) else 1


# name, verbs (none: no verb argument), handler, help, extra flags
_COMMANDS = (
    ("algebra", ["check"], _cmd_algebra,
     "parse and validate a presentation", {}),
    ("modules", ["list"], _cmd_modules, "indecomposable modules", {}),
    ("ar-quiver", ["export"], _cmd_ar_quiver,
     "irreducible maps between modules", {}),
    ("tau-rigid", ["list"], _cmd_tau_rigid,
     "basic support tau-rigid objects", {}),
    ("wide", ["list"], _cmd_wide, "wide subcategories", {}),
    ("wide-cat", ["export"], _cmd_wide_cat,
     "the category of wide subcategories",
     {"--drop-zero-object": dict(
         action="store_true",
         help="omit the zero subcategory from the export")}),
    ("sequences", ["list", "count"], _cmd_sequences,
     "signed exceptional sequences",
     {"--length": dict(type=int, required=True)}),
    ("factorizations", None, _cmd_factorizations,
     "factorizations of one morphism into irreducibles",
     {"--morphism": dict(
         required=True,
         help='JSON array of summand labels, e.g. \'["S2","P1[1]"]\''),
      "--source": dict(help="JSON array: members of the source "
                            "(defaults to the whole module category)")}),
    ("verify", None, _cmd_verify, "run theorem verification suites",
     {"--suites": dict(default="all",
                       help="comma-separated suite names (default: all)")}),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="widecat",
        description="wide subcategories of a representation-finite algebra: "
                    "objects, reduction morphisms, and theorem verification")
    sub = top.add_subparsers(dest="command", required=True)
    for name, verbs, fn, help_text, extra in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if verbs:
            p.add_argument("verb", choices=verbs)
        p.add_argument("file", help="algebra presentation file")
        p.add_argument("--field",
                       help="override the field (Q, F101, 'Fp 101')")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="iso-class enumeration cap")
        p.add_argument("--cache-dir",
                       help="directory for enumeration snapshots")
        p.add_argument("--format", dest="fmt",
                       help="output format (text, json, dot where applicable)")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
