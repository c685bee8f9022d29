from fractions import Fraction

import numpy as np
import pytest

from lexhyp import QDist


def test_rendering_lowest_terms():
    assert str(QDist(0)) == "0"
    assert str(QDist(4)) == "1"
    assert str(QDist(5)) == "5/4"
    assert str(QDist(6)) == "3/2"
    assert str(QDist(7)) == "7/4"
    assert str(QDist(8)) == "2"
    assert str(QDist(10)) == "5/2"


def test_fraction_view():
    assert QDist(5).as_fraction == Fraction(5, 4)
    assert QDist(12).as_fraction == 3


def test_from_hops_scaling():
    assert QDist.from_hops(8, 4) == QDist.from_edges(2)
    assert QDist.from_hops(6, 4) == QDist(6)
    assert QDist.from_hops(12, 8) == QDist(6)
    with pytest.raises(ValueError):
        QDist.from_hops(3, 8)  # 3/8 is not a quarter multiple


def test_ordering_and_arithmetic():
    assert QDist(4) < QDist(5) < QDist(6)
    assert QDist(4) + QDist(6) == QDist(10)
    assert QDist(6) - QDist(4) == QDist(2)
    with pytest.raises(ValueError):
        QDist(2) - QDist(4)
    with pytest.raises(ValueError):
        QDist(-1)


def test_format_spec_applies_to_rendering():
    assert f"{QDist(6):>4}" == " 3/2"
    assert f"{QDist(4):<3}|" == "1  |"
    assert f"{QDist(5)}" == "5/4"
    assert format(QDist(8), "") == str(QDist(8))


def test_integer_counts_only():
    # a NumPy integer is taken exactly; a float is refused, not truncated
    q = QDist(np.int16(6))
    assert q == QDist(6) and type(q.quarters) is int and str(q) == "3/2"
    for bad in (1.5, np.float64(6.9)):
        with pytest.raises(TypeError):
            QDist(bad)
    assert QDist.from_hops(np.int8(6), 4) == QDist(6)
    with pytest.raises(TypeError):
        QDist.from_hops(6.5, 4)
