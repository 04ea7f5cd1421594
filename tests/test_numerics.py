import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intervalgames import (
    Interval,
    ZERO_INTERVAL,
    format_interval,
    format_scalar,
    parse_interval,
    parse_scalar,
    strictly_better,
    weakly_better,
)
from intervalgames.numerics import integers, parse_endpoints
from helpers import _oracle_parse_interval, _oracle_parse_scalar

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def st_interval():
    return st.tuples(rationals, rationals).map(
        lambda ab: Interval(min(ab), max(ab))
    )


class TestScalarText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/4", Fraction(3, 4)),
            ("-2", Fraction(-2)),
            ("+5", Fraction(5)),
            (" 7 / 2 ", Fraction(7, 2)),
            ("0", Fraction(0)),
            ("1\t/2", Fraction(1, 2)),
            ("-3 /\n 4", Fraction(-3, 4)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize("text", ["1.5", "", "x", "1/0", "1//2", "2/-3", "1 2"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_scalar(format_scalar(q)) == q

    @pytest.mark.parametrize("bad", [0.1, 2.0, True])
    def test_format_refuses_floats_and_bools(self, bad):
        with pytest.raises(TypeError):
            format_scalar(bad)


class TestInterval:
    def test_single_argument_is_degenerate(self):
        x = Interval(3)
        assert x.lower == x.upper == 3
        assert x.degenerate
        assert x.width == 0

    def test_coercion(self):
        x = Interval("1/2", 2)
        assert x.lower == Fraction(1, 2)
        assert x.upper == 2

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
    def test_rejects_floats_and_bools(self, bad):
        with pytest.raises(TypeError):
            Interval(bad)
        with pytest.raises(TypeError):
            Interval(-5, bad)
        with pytest.raises(TypeError):
            bad in Interval(-5, 5)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_immutable(self):
        x = Interval(0, 1)
        with pytest.raises(AttributeError):
            x.lower = 5

    def test_equality_and_hash(self):
        assert Interval(1, 2) == Interval("1", "2")
        assert Interval(1, 2) != Interval(1, 3)
        assert len({Interval(1, 2), Interval(1, 2)}) == 1

    def test_repr_is_evalable(self):
        x = Interval("1/3", "5/2")
        assert eval(repr(x)) == x

    def test_contains_scalar_and_interval(self):
        x = Interval(0, 2)
        assert Fraction(1, 2) in x
        assert 2 in x
        assert 3 not in x
        assert Interval(0, 1) in x
        assert Interval(1, 3) not in x

    def test_add(self):
        assert Interval(1, 2) + Interval(3, 5) == Interval(4, 7)

    @given(st_interval(), st_interval())
    def test_add_commutes(self, x, y):
        assert x + y == y + x

    @given(st_interval(), st_interval(), st_interval())
    def test_add_associates(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(st_interval(), st_interval())
    def test_width_adds(self, x, y):
        assert (x + y).width == x.width + y.width

    @given(st_interval(), st_interval(), rationals, rationals)
    def test_add_respects_membership(self, x, y, p, q):
        a = min(max(p, x.lower), x.upper)
        b = min(max(q, y.lower), y.upper)
        assert a + b in x + y


class TestOrdering:
    def test_weakly_better_basics(self):
        assert weakly_better(Interval(1, 3), Interval(0, 3))
        assert weakly_better(Interval(1, 3), Interval(1, 3))
        assert not weakly_better(Interval(1, 3), Interval(2, 3))
        assert not weakly_better(Interval(1, 3), Interval(0, 4))

    def test_strictly_better_excludes_equal(self):
        assert strictly_better(Interval(1, 4), Interval(1, 3))
        assert not strictly_better(Interval(1, 3), Interval(1, 3))

    @given(rationals, rationals)
    def test_degenerate_matches_scalar_order(self, p, q):
        assert weakly_better(Interval(p), Interval(q)) == (p >= q)

    @given(st_interval(), st_interval())
    def test_strict_implies_weak(self, x, y):
        if strictly_better(x, y):
            assert weakly_better(x, y)


class TestIntervalText:
    def test_parse(self):
        assert parse_interval("[1, 3/2]") == Interval(1, Fraction(3, 2))
        assert parse_interval("  [ -1 , 2 ]  ") == Interval(-1, 2)

    @pytest.mark.parametrize("text", ["[1]", "1, 2", "[1, 2", "[2, 1]", "[a, b]", "[1, 2]]"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_interval(text)

    @given(st_interval())
    def test_round_trip(self, x):
        assert parse_interval(format_interval(x)) == x

    def test_matches_the_oracle_on_seeded_literals(self):
        # parse_interval reads through parse_endpoints; both must accept what
        # the old Fraction readers accepted and raise their messages byte for
        # byte: parse_interval's quote the text as given, parse_endpoints's the
        # stripped token
        rng = random.Random(19)
        pads = ["", " ", "  ", "\t", " \n"]
        valid = ["0", "3", "-2", "+5", "7/2", "-3/4", "1 / 3", "12/8"]
        bad = ["2/0", "-1/0", "a", "1/", "/2", "1.5", "--1", "", " "]

        def outcome(read, text):
            try:
                iv = read(text)
            except ValueError as exc:
                return str(exc)
            return iv if isinstance(iv, Interval) else Interval(Fraction(*iv[:2]), Fraction(*iv[2:]))

        seen = {True: 0, False: 0}
        for _ in range(2000):
            lo, up = (rng.choice(valid if rng.random() < 0.8 else bad) for _ in range(2))
            body = f"[{rng.choice(pads)}{lo}{rng.choice(pads)},{rng.choice(pads)}{up}{rng.choice(pads)}]"
            body = rng.choice([body, body, body, body[1:], body[:-1], f"[{body}]", lo, f"{body}]"])
            text = rng.choice(pads) + body + rng.choice(pads)
            token = text.strip()
            expected = outcome(_oracle_parse_interval, text)
            assert outcome(parse_interval, text) == expected
            if token.startswith("["):
                assert outcome(parse_endpoints, text) == outcome(_oracle_parse_interval, token)
            else:
                assert outcome(parse_endpoints, text) == outcome(lambda t: Interval(_oracle_parse_scalar(t)), token)
            seen[isinstance(expected, Interval)] += 1
        assert min(seen.values()) >= 200, seen

    def test_zero_interval_constant(self):
        assert ZERO_INTERVAL == Interval(0, 0)


def _prime_factors(k: int) -> set[int]:
    out, p = set(), 2
    while p * p <= k:
        while k % p == 0:
            out.add(p)
            k //= p
        p += 1
    return out | ({k} if k > 1 else set())


class TestIntegers:
    """integers(values) -> (ints, scale): ints[k] == values[k] * scale, with
    scale the least positive integer that clears every denominator."""

    def check(self, values):
        ints, scale = integers(values)
        assert all(type(v) is int for v in ints) and type(scale) is int and scale > 0
        assert len(ints) == len(values)
        assert all(i == v * scale for i, v in zip(ints, values))
        # least: the least clearing integer divides scale, so dropping any
        # prime factor of scale must leave some denominator uncleared
        for p in _prime_factors(scale):
            assert any((v * (scale // p)).denominator != 1 for v in values)

    def test_mixed_ints_and_fractions(self):
        values = [3, Fraction(-5, 6), 0, Fraction(0), Fraction(7, 4), -2, Fraction(-9, 10)]
        ints, scale = integers(values)
        assert scale == 60
        assert ints == [180, -50, 0, 0, 105, -120, -54]
        self.check(values)

    def test_empty(self):
        assert integers([]) == ([], 1)

    @given(st.lists(st.one_of(rationals, st.integers(min_value=-50, max_value=50)), max_size=12))
    def test_random(self, values):
        self.check(values)
