"""Exact cell clipping and simplex-box volumes."""

from fractions import Fraction

from nama import box_simplex_volume
from nama.convexgeom import clip_halfplane, polygon_area
from oracles import dual_cell_2d

F = Fraction


def test_box_simplex_volume_unit_cases():
    assert box_simplex_volume((1, 1), (1, 1), 1) == F(1, 2)
    assert box_simplex_volume((1, 1), (1, 1), F(1, 2)) == F(1, 8)
    assert box_simplex_volume((1, 1), (1, 1), 3) == 1
    assert box_simplex_volume((1, 1), (1, 1), 0) == 0
    assert box_simplex_volume((), (), 5) == 1


def test_box_simplex_volume_matches_direct_integration():
    # area of {0 <= y0 <= 1, 0 <= y1 <= 2, y0 + 2 y1 <= 2}:
    # at y0 = s the constraint gives y1 <= (2 - s)/2, so area = 3/4
    assert box_simplex_volume((1, 2), (1, 2), 2) == F(3, 4)
    # three dimensions against the full corner simplex
    assert box_simplex_volume((5, 5, 5), (1, 1, 1), 1) == F(1, 6)


def test_box_simplex_volume_is_exact_for_rationals():
    vol = box_simplex_volume((F(1, 3), F(2, 7)), (F(3), F(5, 2)), F(4, 5))
    assert isinstance(vol, Fraction)
    # monotone in the cap and bounded by the box volume
    assert 0 < vol < F(1, 3) * F(2, 7)
    assert vol < box_simplex_volume((F(1, 3), F(2, 7)), (3, F(5, 2)), 1)


def test_clip_halfplane_cuts_a_square():
    verts = [(F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2))]
    labels = [None] * 4
    out, out_labels, changed = clip_halfplane(verts, labels, (F(1), F(0)),
                                              F(1), "wall")
    assert changed
    assert polygon_area(out) == 2
    assert "wall" in out_labels


def test_clip_halfplane_can_empty_the_polygon():
    verts = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    out, out_labels, changed = clip_halfplane(verts, [None] * 4, (F(1), F(0)),
                                              F(3), "gone")
    assert out == [] and out_labels == [] and changed


def test_dual_cell_2d_pyramid_center_cell():
    # square pyramid: the center cell is the convex hull of the four facet
    # gradients (0, +-1), (+-1, 0), a diamond of area 2
    points = [(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1)),
              (F(0), F(0))]
    values = [F(1), F(1), F(1), F(1), F(0)]
    cell = dual_cell_2d(4, points, values, expect_bounded=True)
    assert cell.volume == 2
    assert sorted(cell.edges) == [0, 1, 2, 3]
    assert sorted(cell.vertices) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_dual_cell_2d_clips_to_a_box():
    points = [(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1)),
              (F(0), F(0))]
    values = [F(1), F(1), F(1), F(1), F(0)]
    cell = dual_cell_2d(4, points, values, box=(0, 2, 0, 2))
    assert cell.volume == F(1, 2)
