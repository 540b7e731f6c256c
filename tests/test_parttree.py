"""Partition-forest halfplane updates on a grid whose cell corners and leaf
points lie exactly on the update lines, against brute-force counts."""

from fractions import Fraction

from sepkit.chains import DLine
from sepkit.parttree import PartitionForest, PTPoint, _above_halfplane
from sepkit.rat import Rat

GRID = range(-4, 5)
# (slope, intercept) pairs through many grid points
LINES = [(Rat(0), Rat(0)), (Rat(1), Rat(0)), (Rat(-1), Rat(1)), (Rat(2), Rat(-1)),
         (Rat(1, 2), Rat(1)), (Rat(-1, 2), Rat(-1, 2)), (Rat(0), Rat(3)),
         (Rat(1), Rat(-4)), (Rat(-2), Rat(2))]


def _height(line: DLine, x, y) -> Fraction:
    return Fraction(y) - (Fraction(line.m) * Fraction(x) + Fraction(line.c))


def _reference_cell(node, line: DLine, above: bool) -> int:
    """The cell against the open halfplane, from all four corners."""
    vals = [_height(line, x, y) for x in (node.xlo, node.xhi)
            for y in (node.ylo, node.yhi)]
    if above:
        return 1 if min(vals) > 0 else -1 if max(vals) <= 0 else 0
    return 1 if max(vals) < 0 else -1 if min(vals) >= 0 else 0


def _nodes(u):
    yield u
    for c in u.children:
        yield from _nodes(c)


def _counts(forest) -> dict[int, int]:
    """True count of every alive point: its stored count plus the buffers
    on its path, read without flushing them."""
    out = {}

    def walk(u, acc):
        acc += u.buf
        for p in u.pts:
            if p.alive:
                out[id(p)] = p.count + acc
        for c in u.children:
            walk(c, acc)

    for t in forest.trees:
        walk(t.root, 0)
    return out


def test_halfplane_updates_with_points_on_the_line():
    pts = [PTPoint(Rat(x), Rat(y), (7 * x + 3 * y) % 5, payload=(x, y))
           for x in GRID for y in GRID]
    forest = PartitionForest(pts)
    shadow = {id(p): p.count for p in pts}
    alive = {id(p): p for p in pts}
    # cells outside the open halfplane with a corner on its line, which only
    # the non-strict tests (max <= 0 above, min >= 0 below) decide
    touching = {True: 0, False: 0}
    step = 0
    for m, c in LINES:
        for above in (True, False):
            for delta in (+1, -1, +1):
                step += 1
                line = DLine(0, m, c)
                for t in forest.trees:
                    for node in _nodes(t.root):
                        want = _reference_cell(node, line, above)
                        assert _above_halfplane(node, line.abc, above) == want
                        corners = [_height(line, x, y)
                                   for x in (node.xlo, node.xhi)
                                   for y in (node.ylo, node.yhi)]
                        if want == -1 and 0 in corners:
                            touching[above] += 1
                forest.halfplane_update(line, above, delta)
                for p in alive.values():
                    v = _height(line, p.x, p.y)
                    if (v > 0) if above else (v < 0):
                        shadow[id(p)] += delta
                forest.audit()
                assert _counts(forest) == shadow
                assert forest.min_count() == min(shadow.values())
                # more trees: insert a point on the last line, delete a grid point
                j = step % 9 - 4
                q = PTPoint(Rat(j, 2), m * Rat(j, 2) + c, step % 4)
                forest.insert(q)
                shadow[id(q)] = q.count
                alive[id(q)] = q
                gone = pts[(5 * step) % len(pts)]
                if gone.alive:
                    forest.delete(gone)
                    del shadow[id(gone)], alive[id(gone)]
                forest.audit()
                assert _counts(forest) == shadow
                for kq in (0, 2, 4):
                    got = forest.leftmost_valid(kq)
                    want = min(((p.x, p.y) for p in alive.values()
                                if shadow[id(p)] <= kq), default=None)
                    assert ((got.x, got.y) if got else None) == want
    assert touching[True] > 0 and touching[False] > 0
