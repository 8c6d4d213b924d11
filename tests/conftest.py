import random
import sys

import pytest

import weaktri.triang
from weaktri.gf import FieldCtx
from weaktri.linalg import Mat, char_poly_coeffs, invert, rref
from weaktri.spaces import MatSpace


@pytest.fixture(scope="session")
def gf3():
    return FieldCtx(3)


@pytest.fixture(scope="session")
def gf5():
    return FieldCtx(5)


@pytest.fixture(scope="session")
def gf7():
    return FieldCtx(7)


@pytest.fixture(scope="session")
def gf9():
    return FieldCtx(3, 2, (1, 0, 1))


def triangular_space(field, n):
    return MatSpace.from_span(
        [Mat.unit(field, n, i, j) for i in range(n) for j in range(i, n)],
        field=field,
        n=n,
    )


def full_space(field, n):
    return MatSpace.from_span(
        [Mat.unit(field, n, i, j) for i in range(n) for j in range(n)],
        field=field,
        n=n,
    )


def cycle(field, n):
    """The permutation matrix with columns e_2, ..., e_n, e_1: its flag's
    hyperplane holds e_2, ..., e_n."""
    return Mat(field, n, [int(i == (j + 1) % n) for i in range(n) for j in range(n)])


def gf2_non_flag_hit():
    """An optimal weakly triangularizable space over GF(2) that is no flag
    space: one of the non-flag hits of the n=3 GF(2) dim-6 campaign on I."""
    gf2 = FieldCtx(2)

    def unit(i, j):
        return Mat.unit(gf2, 3, i, j)

    return MatSpace.from_span(
        [unit(0, 0), unit(1, 0), unit(1, 1) + unit(2, 2), unit(1, 2), unit(2, 0), unit(2, 1)]
    )


def random_matrix(field, n, rng):
    return Mat(field, n, tuple(rng.randrange(field.q) for _ in range(n * n)))


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, rng)
        if invert(m) is not None:
            return m


def seeded(seed):
    return random.Random(seed)


def counting_class_decisions(monkeypatch):
    """Record the entries of each class that ``triang.nonsplit_classes``,
    the one class walk, decides: one char poly per class."""
    calls = []

    def counted(field, n, entries):
        calls.append(tuple(entries))
        return char_poly_coeffs(field, n, entries)

    monkeypatch.setattr(weaktri.triang, "char_poly_coeffs", counted)
    return calls


def counting_rrefs(monkeypatch):
    """Count every ``rref`` call, through each package module's binding."""
    calls = []
    real = rref

    def counted(rows, field):
        calls.append(rows)
        return real(rows, field)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "weaktri" and getattr(module, "rref", None) is real:
            monkeypatch.setattr(module, "rref", counted)
    return calls
