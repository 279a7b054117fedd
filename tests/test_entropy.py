import math

import pytest

from soficlab.entropy import (
    EntropyCurve,
    EntropyRow,
    entropy_curve,
    shannon_entropy,
)
from soficlab.groups import GroupSpec, Window
from soficlab.models import enumerate_good_models, letter_frequency_count
from soficlab.processes import bernoulli
from soficlab.sofic import quotient_map

Z = GroupSpec.integers()


def test_shannon_entropy_values():
    assert shannon_entropy((0.5, 0.5)) == pytest.approx(math.log(2))
    assert shannon_entropy((1.0, 0.0)) == 0.0
    assert shannon_entropy((0.25,) * 4) == pytest.approx(math.log(4))
    with pytest.raises(ValueError):
        shannon_entropy((0.5, 0.4))


def test_curve_append_rejects_overflow():
    curve = EntropyCurve(2)
    with pytest.raises(ValueError):
        curve.append(EntropyRow(4, math.log(2) + 1e-3))
    curve.append(EntropyRow(4, math.log(2)))
    assert [row.value for row in curve.rows] == [math.log(2)]


def test_letter_exact_matches_definition():
    mu = bernoulli((0.75, 0.25), Z)
    sizes = [4, 8, 12]
    curve = entropy_curve(mu, 0.2, sizes)
    for row, n in zip(curve.rows, sizes):
        count = letter_frequency_count((0.75, 0.25), n, 0.2).count
        assert row.value * row.n == pytest.approx(math.log(count))
        assert row.value == pytest.approx(math.log(count) / n)


def test_monotone_in_eps_and_window():
    mu = bernoulli((0.5, 0.5), Z)
    tight = entropy_curve(mu, 0.1, [8]).rows[0].value
    loose = entropy_curve(mu, 0.4, [8]).rows[0].value
    assert tight <= loose
    sigma = quotient_map(Z, 8)
    big_window = enumerate_good_models(sigma, mu, Window(Z, Z.ball(1)), 0.2).log_count_nats
    small_window = enumerate_good_models(sigma, mu, Window(Z, Z.ball(0)), 0.2).log_count_nats
    assert big_window <= small_window
    assert loose <= math.log(2) + 1e-9


def test_minus_infinity_sentinel():
    mu = bernoulli((0.5, 0.5), Z)
    # n = 1 forces empirical TV 1/2 at the identity window; eps below that
    # leaves no good model at all
    curve = entropy_curve(mu, 0.25, [1])
    row = curve.rows[0]
    assert row.value == float("-inf")

