"""A dual line is stored as its integer form: `DLine(id, m, c)` and
`DLine.of_abc` agree on every read, and the paths that start from integer
forms or integer points build no Fraction at all."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepkit.approxkmm import make_tgon, rotated_duals
from sepkit.chains import DLine
from sepkit.core import Color, LabeledPoint
from sepkit.lpviol import ConstraintSet, DynState
from sepkit.rat import Rat
from tests.conftest import TIED_X, TIED_Y, random_lines

VALUES = st.one_of(
    st.sampled_from(TIED_X + TIED_Y),
    st.fractions(max_denominator=50),
    st.builds(lambda n, d: Rat(n, d), st.integers(-10**40, 10**40),
              st.sampled_from([1, 3, 7, 2**70, 3**50])),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(id_=st.integers(-1, 5), m=VALUES, c=VALUES)
def test_fraction_and_integer_constructors_agree(id_, m, c):
    line = DLine(id_, m, c)
    a, b, cc = line.abc
    assert a > 0 and Fraction(b, a) == m and Fraction(cc, a) == c
    twin = DLine.of_abc(id_, line.abc)
    assert (twin.abc, twin.m, twin.c) == (line.abc, m, c)
    assert twin == line and hash(twin) == hash(line)
    assert twin.neg() == line.neg() == DLine(id_, -m, -c)
    assert hash(twin.neg()) == hash(DLine(id_, -m, -c))
    assert (twin.neg().m, twin.neg().c) == (-m, -c)
    assert twin != DLine(id_ + 1, m, c)
    assert twin != DLine(id_, m, c + Rat(1, 2**90))
    x = Rat(2, 3)
    assert twin.y_at(x) == line.y_at(x) == m * x + c


@pytest.fixture
def fraction_calls(monkeypatch):
    """A counter of `fractions.Fraction.__new__` calls: reset it, run the
    code, then read it."""
    calls = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return calls


def test_integer_paths_build_no_fraction(fraction_calls):
    rng = random.Random(7)
    pts = [LabeledPoint.of(rng.randint(-10**5, 10**5), rng.randint(-10**5, 10**5),
                           Color.RED if i % 2 else Color.BLUE, i)
           for i in range(40)]
    wedges = make_tgon(Rat(1, 10)).wedges
    line = DLine(3, Rat(5, 7), Rat(-2, 3))
    fraction_calls[0] = 0
    for w in wedges:
        rotated_duals(pts, w)
    twin = DLine.of_abc(3, line.abc)
    assert twin.neg().neg() == line
    assert fraction_calls[0] == 0


def test_dynamic_updates_build_no_fraction(fraction_calls):
    rng = random.Random(11)
    lines = random_lines(rng, 40)
    red, blue = lines[:20], lines[20:]
    # promised deletions far ahead, so no line is due during the test
    st_ = DynState(ConstraintSet(red, blue), {l.id: 1000 for l in lines}, 3)
    # high above every chain near x = 0: it crosses each blue chain twice
    new = DLine(100, Rat(0), Rat(10**6))
    # neither the insert nor the delete reaches an expensive update or a
    # full rebuild
    assert (st_.u + 1) % st_.cadence and (st_.u + 2) % st_.cadence
    assert st_.updates_since_init + 2 <= 2 * len(st_.live)
    rebuilds = dict(st_.stats)
    fraction_calls[0] = 0
    rows = len(st_.forest.pts)
    st_.insert(new, Color.RED, st_.u + 2)
    assert fraction_calls[0] == 0
    assert len(st_.forest.pts) > rows
    st_.delete(new.id)
    assert fraction_calls[0] == 0
    assert st_.stats == rebuilds
    st_.audit()
