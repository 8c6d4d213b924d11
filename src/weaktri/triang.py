"""Triangularizability of a single matrix and of a whole matrix space.

A matrix is triangularizable over F exactly when its characteristic
polynomial splits over F (the characteristic and minimal polynomial share
irreducible factors, so either gives the same verdict; the characteristic
polynomial is cheaper).  The polynomial of cM (c != 0) splits iff that of M
does, and so does the polynomial of M + lambda I, so the exhaustive space
check decides one element per class of ``MatSpace.enumerate_classes``
rather than all q^dim elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gf import splits_over
from .linalg import Mat, char_poly
from .spaces import MatSpace, check_budget


def is_triangularizable(m: Mat) -> bool:
    return splits_over(char_poly(m))


@dataclass(frozen=True)
class SpaceVerdict:
    """Outcome of a weak-triangularizability check.

    ``certified`` is False only for a clean sample-mode run, which can never
    certify a positive verdict; a witness is always definitive.
    """

    all_triangularizable: bool
    witness: Mat | None
    certified: bool
    checked: int

    def __bool__(self):
        return self.all_triangularizable


def space_weakly_triangularizable(
    space: MatSpace,
    mode: str = "exhaustive",
    count: int = 1000,
    seed: int = 0,
    budget=None,
) -> SpaceVerdict:
    """Check that every element of the space is triangularizable.

    Exhaustive mode walks the classes of ``MatSpace.enumerate_classes`` in
    rank order and reports the first counterexample of the full
    lexicographic sweep, which heads its class; ``checked`` counts the
    elements that sweep would have checked (the witness's rank + 1, or all
    q^dim on a true verdict).  Sample mode draws ``count`` seeded
    coefficient vectors; ``count`` must not exceed the budget.
    """
    if mode == "exhaustive":
        for rank, m in space.enumerate_classes(budget=budget):
            if not is_triangularizable(m):
                return SpaceVerdict(False, m, True, rank + 1)
        return SpaceVerdict(True, None, True, space.element_count())
    if mode == "sample":
        if count < 0:
            raise ValueError(f"sample count must be >= 0, got {count}")
        check_budget(count, budget, "samples exceed the sweep budget")
        rng = random.Random(seed)
        q = space.field.q
        for i in range(count):
            m = space.combination([rng.randrange(q) for _ in range(space.dim)])
            if not is_triangularizable(m):
                return SpaceVerdict(False, m, True, i + 1)
        return SpaceVerdict(True, None, False, count)
    raise ValueError(f"unknown mode {mode!r}")
