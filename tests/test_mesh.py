import numpy as np
import pytest

import cylspec as cs
from cylspec.errors import NonManifoldEdge


def test_2x2_grid_torus_counts(square_t):
    m = cs.triangulated_torus_mesh(square_t, 2)
    assert (m.n_vertices, m.n_edges, m.n_triangles) == (4, 12, 8)
    assert m.euler_characteristic == 0
    assert m.genus == 1


def test_grid_torus_counts_scale(square_t):
    m = cs.triangulated_torus_mesh(square_t, 6, 4)
    assert (m.n_vertices, m.n_edges, m.n_triangles) == (24, 72, 48)
    m.validate()


def test_minimum_image_lengths(square_t):
    # every horizontal edge of the n x n mesh has length side/n, wrap included
    m = cs.triangulated_torus_mesh(square_t, 4)
    h = m.edge_lengths[:16]
    assert np.abs(h - 2 * np.pi / 4).max() <= 1e-12


def test_genus2_mesh():
    m = cs.genus2_mesh()
    assert m.euler_characteristic == -2
    assert m.genus == 2
    m.validate()


def test_parametric_torus_manifold():
    m = cs.parametric_torus_mesh(12, 8)
    assert m.genus == 1
    m.validate()


def test_open_surface_rejected():
    # a single triangle is not closed
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(NonManifoldEdge):
        cs.surface_from_triangles(pos, [[0, 1, 2]])


def test_orientation_clash_rejected():
    # tetrahedron with one face flipped
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    good = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
    cs.surface_from_triangles(pos, good)   # sanity: consistent orientation passes
    bad = [[0, 2, 1], [0, 1, 3], [2, 1, 3], [0, 3, 2]]
    with pytest.raises(NonManifoldEdge):
        cs.surface_from_triangles(pos, bad)


def test_off_round_trip(tmp_path):
    m = cs.parametric_torus_mesh(8, 6)
    path = tmp_path / "donut.off"
    cs.write_off(path, m)
    m2 = cs.read_off(path)
    assert m2.n_vertices == m.n_vertices
    assert m2.n_triangles == m.n_triangles
    assert np.abs(m2.vertex_positions - m.vertex_positions).max() <= 1e-15
    assert m2.genus == 1


@pytest.mark.parametrize("bad", [-1, 4])
def test_off_face_index_out_of_range(tmp_path, bad):
    # a tetrahedron that names vertex 3 as -1 (which would wrap to a valid
    # surface) or as nv (which would overflow)
    faces = [[0, 2, 1], [0, 1, bad], [1, 2, bad], [0, bad, 2]]
    path = tmp_path / "bad.off"
    path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    + "".join(f"3 {a} {b} {c}\n" for a, b, c in faces))
    with pytest.raises(ValueError, match=r"face 1 has a vertex index outside \[0, 4\)"):
        cs.read_off(path)


def test_degenerate_triangle_rejected():
    from cylspec.errors import DegenerateTriangle
    # doubled triangle is combinatorially closed; collinear points kill the area
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(DegenerateTriangle):
        cs.surface_from_triangles(pos, [[0, 1, 2], [0, 2, 1]])
