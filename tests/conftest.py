"""Shared fixtures: the corpus algebras, enumerated once per session.

The corpus presentations behind the fixtures (see ``algebras/``):

* ``triangle.alg`` — three vertices 1 -> 2 -> 3 with a shortcut arrow
  1 -> 3 and the composite 2 -> 3 <- 1 killed; nine indecomposables.
* ``a2.alg`` — two vertices, one arrow; three indecomposables.
* ``preproj_a2.alg`` — arrows both ways, both composites zero
  (self-injective); four indecomposables.

Unit tests may share these session contexts freely: every operation under
test is a pure function of the enumeration.  Timed acceptance checks build
fresh contexts instead so that memoized work never flatters a budget.
"""
from __future__ import annotations

import pathlib

import pytest

from widecat import build_algebra, build_context, parse_algebra_file

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "algebras"


def load_presentation(name: str):
    return parse_algebra_file(str(CORPUS / name))


def load_context(name: str):
    return build_context(build_algebra(load_presentation(name)))


def ids_by_label(ctx) -> dict[str, int]:
    return {ctx.label(i): i for i in ctx.ind_ids()}


@pytest.fixture(scope="session")
def tri_ctx():
    return load_context("triangle.alg")


@pytest.fixture(scope="session")
def a2_ctx():
    return load_context("a2.alg")


@pytest.fixture(scope="session")
def pre_ctx():
    return load_context("preproj_a2.alg")


@pytest.fixture(scope="session")
def tri_ids(tri_ctx):
    return ids_by_label(tri_ctx)


@pytest.fixture(scope="session")
def a2_ids(a2_ctx):
    return ids_by_label(a2_ctx)


@pytest.fixture(scope="session")
def pre_ids(pre_ctx):
    return ids_by_label(pre_ctx)
