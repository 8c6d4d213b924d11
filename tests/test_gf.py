import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktri import gf
from weaktri.gf import (
    FieldCtx,
    Poly,
    parse_field,
    poly_gcd,
    splits_over,
)
from weaktri.linalg import char_poly
from weaktri.spaces import parse_spacefile

from conftest import random_matrix
from oracles import (
    cofactor_char_poly,
    monic_polys,
    mul_by_digits,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
    splits_by_root_count,
)


class TestFieldConstruction:
    def test_prime_field(self):
        f = FieldCtx(3)
        assert (f.p, f.k, f.q) == (3, 1, 3)
        assert f.modulus is None

    def test_extension_with_verified_modulus(self):
        # t^2 + 1 has no root among 0, 1, 2, so GF(9) is legitimate
        f = FieldCtx(3, 2, (1, 0, 1))
        assert f.q == 9

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            FieldCtx(9)

    @pytest.mark.parametrize(
        "n",
        [
            399165290221 * 798330580441,  # 318665857834031151167461
            1287836182261 * 2575672364521,  # 3317044064679887385961981
            2**89 - 1,  # a Mersenne prime, but past the bound
        ],
    )
    def test_primality_past_the_bound_refused(self, n):
        # the two composites are strong pseudoprimes to all twelve bases
        # 2..37, so Miller-Rabin to those bases would call them prime
        with pytest.raises(ValueError, match="n < 318665857834031151167461"):
            gf.is_prime(n)
        with pytest.raises(ValueError, match="n < 318665857834031151167461"):
            FieldCtx(n)

    def test_primality_below_the_bound(self):
        assert gf.is_prime(2**61 - 1)
        assert FieldCtx(2**61 - 1).q == 2**61 - 1
        assert not gf.is_prime(318665857834031151167461 - 2)  # 3 * 106221952611343717055820

    def test_missing_modulus_rejected(self):
        with pytest.raises(ValueError, match="modulus"):
            FieldCtx(3, 2)

    def test_reducible_modulus_rejected(self):
        # t^2 - 1 = (t-1)(t+1)
        with pytest.raises(ValueError, match="reducible"):
            FieldCtx(3, 2, (2, 0, 1))

    @pytest.mark.parametrize("p, degrees", [(2, range(2, 7)), (3, range(2, 5)), (5, range(2, 4))],
                             ids=["2", "3", "5"])
    def test_irreducibility_matches_trial_division(self, p, degrees):
        # the gcd loop alone decides irreducibility: every monic modulus of
        # each degree k against division by every monic polynomial of
        # degree 1..k//2
        base = FieldCtx(p)
        for k in degrees:
            divisors = [g for d in range(1, k // 2 + 1) for g in monic_polys(base, d)]
            for f in monic_polys(base, k):
                reducible = any(poly_divmod(f, g)[1].is_zero for g in divisors)
                assert gf._is_irreducible(f) == (not reducible), f

    def test_modulus_on_prime_field_rejected(self):
        with pytest.raises(ValueError):
            FieldCtx(3, 1, (1, 1))

    def test_char2_constructs(self):
        # characteristic 2 is an ordinary input: no option admits it
        assert FieldCtx(2).q == 2
        assert FieldCtx(2, 2, (1, 1, 1)).q == 4
        assert parse_field("GF(2)") == FieldCtx(2)
        space = parse_spacefile("field GF(2)\nn 2\ndim 1\nmat 1 0 0 1\n")
        assert (space.field, space.dim) == (FieldCtx(2), 1)

    def test_descriptor_round_trip(self):
        for text in ("GF(3)", "GF(7)", "GF(3^2; 1,0,1)", "GF(5^2; 2,0,1)"):
            assert parse_field(text).descriptor() == text

    def test_bad_descriptors(self):
        for text in ("GF(4)", "GF 3", "GF(3^2)", "GF(3; 1,1)"):
            with pytest.raises(ValueError):
                parse_field(text)
        # a malformed number is named, not passed on from int()
        for text, token in [("GF(x)", "x"), ("GF(3^a; 1,0,1)", "a"), ("GF(3^2; 1,0,x)", "x")]:
            message = f"bad field descriptor {text!r}: {token!r} is not an integer"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_field(text)


class TestFieldArithmetic:
    def test_packing(self, gf9):
        assert gf9.to_digits(5) == [2, 1]
        assert gf9.from_digits([2, 1]) == 5

    def test_generator_square(self, gf9):
        # the adjoined root x (element 3) squares to -1 = 2
        assert gf9.mul(3, 3) == 2

    @given(a=st.integers(0, 8), b=st.integers(0, 8), c=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_gf9(self, a, b, c):
        f = FieldCtx(3, 2, (1, 0, 1))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0

    def test_neg_on_every_element(self, gf9):
        # neg reads -a off the log tables; every element of each field is
        # checked against its digit-wise negation
        gf4 = FieldCtx(2, 2, (1, 1, 1))
        gf25 = FieldCtx(5, 2, (3, 0, 1))
        for f in (gf9, gf4, gf25):
            for a in f.elements():
                assert f.add(a, f.neg(a)) == 0
                assert f.neg(a) == f.from_digits([-d for d in f.to_digits(a)])

    @given(a=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_inverses_gf9(self, a):
        f = FieldCtx(3, 2, (1, 0, 1))
        assert f.mul(a, f.inv(a)) == 1

    def test_zero_inverse_raises(self, gf3, gf9):
        for f in (gf3, gf9):
            with pytest.raises(ZeroDivisionError):
                f.inv(0)


class TestPolyBasics:
    def test_trim_and_degree(self, gf3):
        assert Poly(gf3, (1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly.zero(gf3).degree == -1
        assert Poly.zero(gf3).is_zero

    def test_divmod(self, gf5):
        # Poly keeps no quotient: % gives the remainder of the reference's
        # long division
        f = Poly(gf5, (1, 2, 3, 4))
        g = Poly(gf5, (2, 1))
        q, r = poly_divmod(f, g)
        assert f % g == r
        assert poly_add(q * g, r) == f
        assert r.degree < g.degree

    def test_eval_horner(self, gf5):
        f = Poly(gf5, (1, 2, 3))
        for x in gf5.elements():
            assert poly_eval(f, x) == (1 + 2 * x + 3 * x * x) % 5


POLY_FIELDS = [
    (5,),
    (3, 2, (1, 0, 1)),  # the add-table path
    (3, 7, (1, 0, 2, 0, 0, 0, 0, 1)),  # the digit path
    (2, 2, (1, 1, 1)),
]


class TestPolyArithmetic:
    """Poly's arithmetic against the per-coefficient reference."""

    def polys(self, field, rng):
        yield Poly.zero(field)
        yield Poly.one(field)
        for _ in range(12):
            degree = rng.randrange(7)
            tail = [rng.randrange(field.q) if rng.random() < 0.7 else 0 for _ in range(degree)]
            yield Poly(field, tail + [rng.randrange(1, field.q)])

    @pytest.mark.parametrize("args", POLY_FIELDS, ids=lambda a: "-".join(map(str, a[:2])))
    def test_matches_the_reference(self, args):
        field = FieldCtx(*args)
        rng = random.Random(29)
        polys = list(self.polys(field, rng))
        scalars = {0, 1, field.q - 1, rng.randrange(field.q)}
        for f in polys:
            assert f.monic() == (poly_scale(f, field.inv(f.coeffs[-1])) if f.coeffs else f)
            assert f.monic().is_zero or f.monic().is_monic
            for c in scalars:
                assert f * c == poly_scale(f, c)
            for g in polys:
                assert f - g == poly_sub(f, g)
                assert f * g == poly_mul(f, g)
                if g.is_zero:
                    continue
                r = f % g
                assert r == poly_divmod(f, g)[1]
                assert r.degree < g.degree

    @pytest.mark.parametrize("args", POLY_FIELDS, ids=lambda a: "-".join(map(str, a[:2])))
    def test_pow_mod_is_repeated_multiplication(self, args):
        field = FieldCtx(*args)
        rng = random.Random(31)
        polys = [f for f in self.polys(field, rng) if not f.is_zero]
        for f, modulus in zip(polys, polys[3:] + polys[:3]):
            want = poly_divmod(Poly.one(field), modulus)[1]
            for e in range(6):
                assert f.pow_mod(e, modulus) == want
                want = poly_divmod(poly_mul(want, f), modulus)[1]


class TestExtensionTables:
    """FieldCtx.mul's log/exp tables against an independent product-mod."""

    @pytest.mark.parametrize(
        "args", [(2, 2, (1, 1, 1)), (3, 2, (1, 0, 1)), (5, 2, (3, 0, 1))],
        ids=["4", "9", "25"],
    )
    def test_every_pair(self, args):
        field = FieldCtx(*args)
        for a in field.elements():
            for b in field.elements():
                assert field.mul(a, b) == mul_by_digits(field, a, b)

    def test_seeded_pairs_digit_path(self):
        field = FieldCtx(3, 7, (1, 0, 2, 0, 0, 0, 0, 1))
        rng = random.Random(37)
        for _ in range(2000):
            a, b = rng.randrange(field.q), rng.randrange(field.q)
            assert field.mul(a, b) == mul_by_digits(field, a, b)

    @pytest.mark.parametrize(
        "args",
        [(2, 2, (1, 1, 1)), (3, 2, (1, 0, 1)), (5, 2, (3, 0, 1)),
         (3, 7, (1, 0, 2, 0, 0, 0, 0, 1))],
        ids=["4", "9", "25", "3^7"],
    )
    def test_exp_lists_every_nonzero_element_once(self, args):
        field = FieldCtx(*args)
        assert len(field._exp) == field.q - 1
        assert sorted(field._exp) == list(range(1, field.q))


class TestGcd:
    def test_shared_linear_factor(self, gf3):
        # (t^2 - 1, t - 1) -> t - 1
        assert poly_gcd(Poly(gf3, (2, 0, 1)), Poly(gf3, (2, 1))) == Poly(gf3, (2, 1))

    def test_coprime(self, gf3):
        assert poly_gcd(Poly(gf3, (1, 0, 1)), Poly(gf3, (1, 1))) == Poly.one(gf3)

    def test_gcd_with_zero(self, gf3):
        assert poly_gcd(Poly.zero(gf3), Poly.x(gf3)) == Poly.x(gf3)

    def test_both_zero_rejected(self, gf3):
        with pytest.raises(ValueError):
            poly_gcd(Poly.zero(gf3), Poly.zero(gf3))


class TestSplitsOver:
    def test_examples(self, gf3, gf9):
        assert splits_over(Poly(gf3, (0, 0, 1)))  # t^2
        assert not splits_over(Poly(gf3, (1, 0, 1)))  # t^2 - 2
        assert splits_over(Poly(gf9, (1, 0, 1)))  # roots +-x in GF(9)

    def test_zero_rejected(self, gf3):
        with pytest.raises(ValueError):
            splits_over(Poly.zero(gf3))

    def test_matches_root_count_all_monic_deg_le_3(self, gf3, gf5, gf7, gf9):
        # decided by divisibility once the memo is cleared, then by the memo
        gf.splits_coeffs.cache_clear()
        t, one = Poly.x(gf3), Poly.one(gf3)

        def power(f, e):
            out = one
            for _ in range(e):
                out = out * f
            return out

        # every derivative vanishes but that of (t^3 - t)^2, whose degree
        # 6 exceeds q; t^9 - t is the product of the monic irreducibles of
        # degree 1 and 2
        assert not splits_over(power(Poly(gf3, (1, 0, 1)), 3))
        assert not splits_over(power(t, 9) - t)
        assert splits_over(power(t - one, 9))
        assert splits_over(power(power(t, 3) - t, 2))

        gf2 = FieldCtx(2)
        gf4 = FieldCtx(2, 2, (1, 1, 1))
        max_degree = {gf3: 6, gf5: 4, gf7: 4, gf9: 4, gf2: 8, gf4: 4}
        for field, top in max_degree.items():
            for degree in range(1, top + 1):
                for f in monic_polys(field, degree):
                    want = splits_by_root_count(f)
                    assert splits_over(f) == want, f
                    assert splits_over(Poly(field, f.coeffs)) == want, f


def test_references_run_without_the_row_kernel(gf3, gf9, monkeypatch):
    # the Leibniz expansion and root counting check char_poly and
    # splits_over, so they must not run on the row kernel those two share
    rng = random.Random(41)
    cases = []
    for field in (gf3, gf9):
        for n in (2, 3, 4):
            for _ in range(4):
                m = random_matrix(field, n, rng)
                poly = char_poly(m)
                cases.append((m, poly, splits_over(poly)))
    assert {verdict for *_, verdict in cases} == {True, False}

    def refuse(*args):
        raise AssertionError("a reference ran the row kernel")

    monkeypatch.setattr(FieldCtx, "axpy", refuse)
    monkeypatch.setattr(FieldCtx, "dot", refuse)
    for m, poly, verdict in cases:
        assert cofactor_char_poly(m) == poly
        assert splits_by_root_count(poly) == verdict


# GF(3^7) lies above the add-table limit, so its sums take the digit path
ROW_FIELDS = [
    (3,),
    (101,),
    (3, 2, (1, 0, 1)),
    (3, 7, (1, 0, 2, 0, 0, 0, 0, 1)),
    (2, 2, (1, 1, 1)),
]


class TestRowKernel:
    """axpy and dot against entry-by-entry add and mul."""

    def rows(self, field, rng):
        q, width = field.q, 6
        yield [0] * width
        yield [rng.randrange(1, q) for _ in range(width)]
        for _ in range(20):
            # about half the entries are zero
            yield [rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(width)]

    def test_one_field_takes_the_digit_path(self):
        field = FieldCtx(*ROW_FIELDS[3])
        assert field.q > gf._ADD_TABLE_LIMIT and field._add_table is None

    @pytest.mark.parametrize("args", ROW_FIELDS, ids=lambda a: "-".join(map(str, a[:2])))
    def test_axpy_and_dot_match_entrywise_arithmetic(self, args):
        field = FieldCtx(*args)
        rng = random.Random(17)
        rows = list(self.rows(field, rng))
        coeffs = {0, 1, field.q - 1} | {rng.randrange(field.q) for _ in range(4)}
        for x in rows:
            for y in rows[:6]:
                want_dot = 0
                for a, b in zip(x, y):
                    want_dot = field.add(want_dot, field.mul(a, b))
                assert field.dot(x, y) == want_dot
                for c in coeffs:
                    scaled = [field.mul(c, a) for a in x]
                    assert field.axpy(c, x) == scaled
                    assert field.axpy(c, x, y) == [field.add(b, s) for b, s in zip(y, scaled)]

    def test_axpy_leaves_its_arguments_alone(self):
        field = FieldCtx(3, 2, (1, 0, 1))
        x, y = (1, 0, 5), [2, 3, 0]
        out = field.axpy(0, x, y)
        assert out == y and out is not y
        assert field.axpy(4, x, y) != y and y == [2, 3, 0]
