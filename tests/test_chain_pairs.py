"""chain_pair_intersections against a Fraction reference walk, on chains
from chain_decomposition: small integer lines with shared crossings,
parallel pieces and touching points, non-dyadic rationals, and
coefficients near 2**60.  The walk reports each point as its primitive
homogeneous triple, which is compared with the reference's rationals."""

from math import gcd
from typing import Optional

from hypothesis import assume, given, settings, strategies as st

from sepkit.chains import (
    Chain,
    ChainKind,
    ChainPiece,
    Direction,
    DLine,
    chain_decomposition,
    chain_pair_intersections,
    cross_x,
)
from sepkit.errors import ValidationError
from sepkit.rat import Rat, RatT
from tests.conftest import hom


def reference_chain_pair_intersections(concave: Chain, convex: Chain):
    """The zero crossings of f = concave - convex on Fractions: every
    piece boundary where f is 0, and the crossing of the two lines of
    each stretch between boundaries when it lies strictly inside it."""
    bounds = sorted({p.x_hi for ch in (concave, convex) for p in ch.pieces[:-1]})
    pts = []

    def f(x: RatT) -> RatT:
        return concave.value_at(x) - convex.value_at(x)

    def stretch_root(x0: Optional[RatT], x1: Optional[RatT]) -> None:
        # on (x0, x1) both chains are single lines
        if x0 is None and x1 is None:
            xm = Rat(0)
        elif x0 is None or x1 is None:
            xm = x1 - 1 if x0 is None else x0 + 1
        else:
            xm = (x0 + x1) / 2
        la = concave.piece_at(xm).line
        lb = convex.piece_at(xm).line
        x = cross_x(la, lb)
        if x is not None and (x0 is None or x > x0) and (x1 is None or x < x1):
            pts.append((x, la.y_at(x)))

    prev = None
    for b in bounds:
        stretch_root(prev, b)
        if f(b) == 0:
            pts.append((b, concave.value_at(b)))
        prev = b
    stretch_root(prev, None)
    out = []
    for xy in sorted(pts, key=lambda t: t[0]):
        if xy not in out:
            out.append(xy)
    return out


def _trivial(line: DLine, kind: ChainKind) -> Chain:
    return Chain(kind, [ChainPiece(line, None, None)])


@st.composite
def line_sets(draw):
    """Red and blue lines on a small grid of slopes and intercepts (many
    parallel and concurrent lines, and blue lines that repeat red ones),
    then scaled: by 1, by a non-dyadic rational, or to near 2**60."""
    scale = draw(st.sampled_from(["int", "thirds", "huge"]))
    nr, nb = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid = []
    for _ in range(nr + nb):
        m = Rat(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2])))
        c = Rat(draw(st.integers(-4, 4)))
        if scale == "thirds":
            m, c = m / 3 + Rat(1, 7), c / 21
        elif scale == "huge":
            m, c = m * (2**60 + draw(st.integers(-2, 2))), c * 2**60 + 1
        grid.append((m, c))
    red = [DLine(i, m, c) for i, (m, c) in enumerate(grid[:nr])]
    blue = [DLine(100 + i, m, c) for i, (m, c) in enumerate(grid[nr:])]
    # a blue line equal to a red one: chains that touch or share pieces
    if draw(st.booleans()):
        r = draw(st.sampled_from(red))
        blue.append(DLine(200, r.m, r.c))
    return red, blue


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=line_sets(), k=st.integers(0, 3))
def test_chain_pairs_match_fraction_walk(lines, k):
    red, blue = lines
    try:
        reds = chain_decomposition(red, k, Direction.LOWER).chains
        blues = chain_decomposition(blue, k, Direction.UPPER).chains
    except ValidationError:     # a non-contiguous concurrent block
        assume(False)
    reds += [_trivial(l, ChainKind.CONCAVE) for l in red]
    blues += [_trivial(l, ChainKind.CONVEX) for l in blue]
    for cr in reds:
        for cb in blues:
            got = chain_pair_intersections(cr, cb)
            assert all(W > 0 and gcd(X, Y, W) == 1 for X, Y, W in got)
            assert got == [hom(x, y) for x, y in
                           reference_chain_pair_intersections(cr, cb)]


def test_chain_pairs_touching_and_identical_pieces():
    L = lambda i, m, c: DLine(i, Rat(m), Rat(c))
    # lower cover of |x|-like lines, and an upper chain touching its vertex
    red = chain_decomposition([L(0, 1, 0), L(1, -1, 0)], 0, Direction.LOWER).chains[0]
    touch = _trivial(L(2, 0, 0), ChainKind.CONVEX)
    assert chain_pair_intersections(red, touch) == [(0, 0, 1)]
    # a convex chain sharing the red chain's right piece: f = 0 on [0, 1]
    blue = chain_decomposition([L(3, -1, 0), L(4, 0, -1)], 0, Direction.UPPER).chains[0]
    assert chain_pair_intersections(red, blue) == [(0, 0, 1), (1, -1, 1)]
    # parallel single pieces never meet
    assert chain_pair_intersections(_trivial(L(5, 1, 0), ChainKind.CONCAVE),
                                    _trivial(L(6, 1, 1), ChainKind.CONVEX)) == []
