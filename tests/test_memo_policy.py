"""The one memo policy: every derived object goes through `Context.cached`."""
import pathlib
import re

import pytest

from widecat.category import enumerate_wide_subcategories
from widecat.context import Context
from widecat.errors import NotSupportTauRigid
from widecat.reduction import wide_of
from widecat.taurigid import (CObject, full_subcategory, is_support_tau_rigid,
                              strigid_objects)
from widecat.verify import run_verify
from conftest import load_context

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "widecat"


def _documented_kinds() -> set[str]:
    """The kinds listed in the `Context.cached` docstring."""
    doc = " ".join(Context.cached.__doc__.split())
    listed = doc.split("The kinds:")[1].split(".")[0]
    return set(re.findall(r"\w+", re.sub(r"\([^)]*\)", "", listed)))


def test_memo_kinds_after_every_suite_are_the_documented_set():
    ctx = load_context("a4.alg")
    assert all(r.ok for r in run_verify(ctx))
    kinds = {k[0] if isinstance(k, tuple) else k for k in ctx.memo}
    assert "pairs" not in kinds and "strigid_set" not in kinds
    assert kinds == _documented_kinds()


def test_a_failing_computation_is_not_stored():
    ctx = load_context("triangle.alg")
    full = full_subcategory(ctx)

    def fail():
        raise ValueError("no")

    for _ in range(2):
        with pytest.raises(ValueError):
            ctx.cached(("probe",), fail)
    assert ("probe",) not in ctx.memo
    bad = next(CObject.of((i, j)) for i in ctx.ind_ids() for j in ctx.ind_ids()
               if i < j and not is_support_tau_rigid(ctx, full, CObject.of((i, j))))
    for _ in range(2):
        with pytest.raises(NotSupportTauRigid):
            wide_of(ctx, full, bad)
    assert ("wide_of", full.key, bad) not in ctx.memo


def test_only_the_context_touches_the_memo():
    users = sorted(p.name for p in SRC.glob("*.py")
                   if re.search(r"\.memo\b", p.read_text(encoding="utf-8")))
    assert users == ["context.py"]


@pytest.mark.parametrize("name", ["triangle.alg", "preproj_a2.alg", "a3.alg"])
def test_strigid_entry_lists_the_objects_in_order(name):
    """The entry the benchmark's census reads: its length is the object count."""
    ctx = load_context(name)
    for w in enumerate_wide_subcategories(ctx):
        objs = strigid_objects(ctx, w)
        assert list(ctx.memo[("strigid", w.key)]) == objs
