"""Seeded algebra presentations for the benchmark workloads.

Each workload has one algebra up to isomorphism; the seed picks only how it
is presented: the mirror image of the quiver (a diagram automorphism), the
vertex and arrow labels, and for the preprojective algebra the sign of the
mesh relation.  The orientation of a Dynkin quiver is fixed, not seeded:
other orientations give other algebras (the A4 path algebra has dimension 7
to 10 depending on it), so the seed would change the work, not only how it
is written down.  Arrow labels keep their alphabetical order along the
quiver, because paths are ordered by label (see `_preprojective_a3`).
widecat receives only the generated `.alg` text.

    python3 bench/gen.py --workload verify-a4 --seed 3
"""
from __future__ import annotations

import argparse
import hashlib
import random
import string
import sys

# Dynkin quivers: arrows (source, target) between vertex positions, in one
# fixed orientation, and the mirror symmetry of the diagram as a permutation.
A4 = (((0, 1), (1, 2), (2, 3)), (3, 2, 1, 0))
D5 = (((0, 1), (1, 2), (2, 3), (2, 4)), (0, 1, 2, 4, 3))


def _labels(rng: random.Random, n_vertices: int, n_arrows: int
            ) -> tuple[list[str], list[str]]:
    """Distinct vertex labels (two digits) and sorted arrow labels (letters)."""
    vertices = [str(v) for v in rng.sample(range(10, 100), n_vertices)]
    arrows = sorted(rng.sample(string.ascii_lowercase, n_arrows))
    return vertices, arrows


def _path_algebra(rng: random.Random, quiver, field: str, title: str) -> str:
    arrows, mirror = quiver
    vertices, labels = _labels(rng, len(mirror), len(arrows))
    if rng.random() < 0.5:
        arrows = [(mirror[x], mirror[y]) for x, y in arrows]
    lines = [f"# {title}, seeded mirror image and labels", f"field {field}"]
    lines += [f"vertex {v}" for v in vertices]
    for (x, y), a in zip(arrows, labels):
        lines.append(f"arrow {a} : {vertices[x]} -> {vertices[y]}")
    return "\n".join(lines) + "\n"


def _preprojective_a3(rng: random.Random) -> str:
    """Pi(A3): arrows a, b along 1 -> 2 -> 3 and s, t back, zero relations
    at the ends and the mesh relation at the middle vertex.

    The seeded reflection swaps the two end vertices; the seeded sign of the
    mesh relation gives an isomorphic algebra over Q (rescale one arrow).
    The seeded arrow labels keep the alphabetical order of a, b, s, t: the
    basis build orders paths by label, and its cost depends on that order
    (12 s to 21 s on one machine), so a free order would let the seed, not
    the code, set the workload's set-up time.
    """
    vertices, (a, b, s, t) = _labels(rng, 3, 4)
    v1, v2, v3 = vertices
    if rng.random() < 0.5:
        v1, v3 = v3, v1
    sign = rng.choice("+-")
    lines = ["# preprojective algebra of A3, seeded reflection, labels, sign",
             "field Q",
             f"vertex {v1}", f"vertex {v2}", f"vertex {v3}",
             f"arrow {a} : {v1} -> {v2}", f"arrow {s} : {v2} -> {v1}",
             f"arrow {b} : {v2} -> {v3}", f"arrow {t} : {v3} -> {v2}",
             f"relation {s}*{a}",
             f"relation {t}*{b} {sign} {a}*{s}",
             f"relation {b}*{t}"]
    return "\n".join(lines) + "\n"


GENERATORS = {
    "verify-a4": lambda rng: _path_algebra(rng, A4, "Q",
                                           "path algebra of A4 over Q"),
    "verify-preproj-a3": _preprojective_a3,
    "export-d5": lambda rng: _path_algebra(rng, D5, "F101",
                                           "path algebra of D5 over F101"),
}


def generate(workload: str, seed: int) -> str:
    """The presentation text of a workload; the same seed gives the same text."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    sys.stdout.write(generate(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
