import json
import math

import pytest

from soficlab.entropy import (
    EntropyCurve,
    EntropyRow,
    entropy_curve,
    shannon_entropy,
)
from soficlab.groups import GroupSpec
from soficlab.models import letter_frequency_count
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
        curve.append(EntropyRow(4, 4, 0, 0.1, 4.0, math.log(2) + 1e-3, "exhaustive", None))
    curve.append(EntropyRow(4, 4, 0, 0.1, 4 * math.log(2), math.log(2), "exhaustive", None))
    assert curve.values() == [math.log(2)]


def test_letter_exact_matches_definition():
    mu = bernoulli((0.75, 0.25), Z)
    sizes = [4, 8, 12]
    curve = entropy_curve(lambda n: quotient_map(Z, n), mu, 0, 0.2, sizes, method="letter-exact")
    for row, n in zip(curve.rows, sizes):
        count = letter_frequency_count((0.75, 0.25), n, 0.2).count
        assert row.log_count == pytest.approx(math.log(count))
        assert row.value == pytest.approx(math.log(count) / n)
        assert row.method == "letter-exact"


def test_exhaustive_equals_letter_exact_at_identity_window():
    mu = bernoulli((0.5, 0.5), Z)
    a = entropy_curve(lambda n: quotient_map(Z, n), mu, 0, 0.3, [6], method="exhaustive")
    b = entropy_curve(lambda n: quotient_map(Z, n), mu, 0, 0.3, [6], method="letter-exact")
    assert a.rows[0].log_count == pytest.approx(b.rows[0].log_count)


def test_mc_curve_within_four_se():
    mu = bernoulli((0.5, 0.5), Z)
    exact = entropy_curve(lambda n: quotient_map(Z, n), mu, 0, 0.25, [10], method="exhaustive")
    est = entropy_curve(
        lambda n: quotient_map(Z, n), mu, 0, 0.25, [10], method="mc", samples=4000, seed=99
    )
    row = est.rows[0]
    assert row.standard_error is not None and row.standard_error > 0
    count_exact = math.exp(exact.rows[0].log_count)
    count_est = math.exp(row.log_count)
    assert abs(count_est - count_exact) <= 4 * row.standard_error


def test_monotone_in_eps_and_window():
    mu = bernoulli((0.5, 0.5), Z)
    fam = lambda n: quotient_map(Z, n)
    tight = entropy_curve(fam, mu, 0, 0.1, [8]).rows[0].log_count
    loose = entropy_curve(fam, mu, 0, 0.4, [8]).rows[0].log_count
    assert tight <= loose
    big_window = entropy_curve(fam, mu, 1, 0.2, [8]).rows[0].log_count
    small_window = entropy_curve(fam, mu, 0, 0.2, [8]).rows[0].log_count
    assert big_window <= small_window
    assert loose / 8 <= math.log(2) + 1e-9


def test_minus_infinity_sentinel():
    mu = bernoulli((0.5, 0.5), Z)
    # n = 1 forces empirical TV 1/2 at the identity window; eps below that
    # leaves no good model at all
    curve = entropy_curve(lambda n: quotient_map(Z, n), mu, 0, 0.25, [1])
    row = curve.rows[0]
    assert row.log_count == float("-inf")
    assert row.value == float("-inf")
    payload = json.dumps(curve.to_json())
    assert "-inf" in payload
    assert curve.csv_lines()[1].split(",")[4] == "-inf"

