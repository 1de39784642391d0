import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cylspec as cs
from cylspec.errors import InputError, NonManifoldEdge
from cylspec.lattice import TWO_PI
from cylspec.mesh import MAX_EDGE_LENGTH, MIN_EDGE_LENGTH, _genus2_quads, _match_sides, _off_tokens
from tests.conftest import lattice_bases


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


def reference_read_faces(path) -> np.ndarray:
    """The per-face loop read_off's face parse replaced: every face is parsed
    and checked in order, so the first faulty face raises."""
    tokens = path.read_text().split()
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4 + 3 * nv
    tris = np.empty((nf, 3), dtype=int)
    for f in range(nf):
        cnt = int(tokens[pos])
        if cnt != 3:
            raise ValueError(f"face {f} has {cnt} vertices; only triangles are supported")
        tri = [int(t) for t in tokens[pos + 1:pos + 4]]
        if min(tri) < 0 or max(tri) >= nv:
            raise ValueError(f"face {f} has a vertex index outside [0, {nv}): {tri}")
        tris[f] = tri
        pos += 4
    return tris


@pytest.mark.parametrize("faces", [
    ["3 0 2 1", "4 0 1 3", "3 1 2 3", "3 0 3 2"],       # a quad
    ["3 0 2 1", "3 0 1.0 3", "3 1 2 3", "3 0 3 2"],     # an index that is no int
    ["3 0 2 1", "three 0 1 3", "3 1 2 3", "3 0 3 2"],   # a count that is no int
    ["3 0 2 1", "4 0 1 3", "3 1 x 3", "3 0 3 2"],       # a quad before a bad token
    ["3 0 2 1", "3 0 y 3", "4 1 2 3", "3 0 3 2"],       # a bad token before a quad
    ["3 0 2 1", "3 0 1 9", "3 1 x 3", "3 0 3 2"],       # out of range before a bad token
    ["3 0 2 1", "3 0 1 3", "3 1 2 3", "3 0 -3 2"],      # a negative index, last
    ["3 0 2 1", "3 0 1 3", "3 1 2 99999999999999999999", "3 0 3 2"],   # past int64
    ["3 0 2 1", "99999999999999999999 0 1 3", "3 1 2 3", "3 0 3 2"],
])
def test_off_malformed_faces_match_loop(tmp_path, faces):
    # the vectorized face parse reports the same first fault, with the same
    # exception and message, as the loop it replaced
    path = tmp_path / "bad.off"
    path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n" + "\n".join(faces) + "\n")
    with pytest.raises(ValueError) as want:
        reference_read_faces(path)
    with pytest.raises(want.type) as got:
        cs.read_off(path)
    assert str(got.value) == str(want.value)


def reference_off_tokens(path) -> list:
    """The line-by-line tokenizer _off_tokens replaced."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    return tokens


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="3x.-# \t\r\n\x0b\x0c\x1c\x1f", max_size=60))
def test_off_tokens_match_line_loop(tmp_path_factory, text):
    # comments end at \n, \r\n or \r, as the text-mode line loop ended them
    path = tmp_path_factory.getbasetemp() / "tokens.off"
    path.write_bytes(text.encode("ascii"))
    assert _off_tokens(path) == reference_off_tokens(path)


def test_off_faces_match_loop(tmp_path):
    path = tmp_path / "donut.off"
    cs.write_off(path, cs.parametric_torus_mesh(8, 6))
    tris = cs.read_off(path).triangles
    assert tris.dtype == int and tris.flags.c_contiguous
    assert np.array_equal(tris, reference_read_faces(path))


def test_degenerate_triangle_rejected():
    from cylspec.errors import DegenerateTriangle
    # doubled triangle is combinatorially closed; collinear points kill the area
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(DegenerateTriangle):
        cs.surface_from_triangles(pos, [[0, 1, 2], [0, 2, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_geometry_rejected(bad):
    from cylspec.errors import DegenerateTriangle
    surf = cs.parametric_torus_mesh(6, 4)
    pos = surf.vertex_positions.copy()
    pos[5, 2] = bad
    with pytest.raises(ValueError, match=r"^vertex 5 has a non-finite coordinate"):
        cs.surface_from_triangles(pos, surf.triangles)
    # lengths given directly: a NaN length fails the area test, as no
    # comparison with NaN holds
    lengths = surf.edge_lengths.copy()
    lengths[surf.triangle_edges[4, 1]] = np.nan
    with pytest.raises(DegenerateTriangle, match="triangle 4 has"):
        dataclasses.replace(surf, edge_lengths=lengths).validate()


def test_edge_length_limit():
    # at the limit Heron's formula stays in float range with no warning;
    # just above it validate names the edge
    surf = cs.parametric_torus_mesh(6, 4)
    lengths = np.minimum(surf.edge_lengths * (MAX_EDGE_LENGTH / surf.edge_lengths.max()),
                         MAX_EDGE_LENGTH)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, s, area = dataclasses.replace(surf, edge_lengths=lengths).validate()
    assert s.max() == MAX_EDGE_LENGTH and np.all(np.isfinite(area) & (area > 0))
    lengths[7] = np.nextafter(MAX_EDGE_LENGTH, np.inf)
    u, v = surf.edges[7]
    with pytest.raises(InputError, match=rf"^edge 7 from vertex {u} to {v} has a length above "
                                         rf"1e\+75: 1\.0000000000000001e\+75$"):
        dataclasses.replace(surf, edge_lengths=lengths).validate()


def test_side_length_lower_limit():
    # equilateral triangles with sides at the limit keep every bit of their
    # area; a triangle whose sides are all below it is named
    surf = cs.parametric_torus_mesh(6, 4)
    at = dataclasses.replace(surf, edge_lengths=np.full(surf.n_edges, MIN_EDGE_LENGTH))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, area = at.validate()
    assert np.allclose(area, np.sqrt(3) / 4 * MIN_EDGE_LENGTH**2, rtol=1e-15, atol=0)
    below = float(np.nextafter(MIN_EDGE_LENGTH, 0.0))
    with pytest.raises(InputError, match=rf"^triangle 0 has no side of length 1e-73 or more: "
                                         rf"the longest is {re.escape(repr(below))}$"):
        dataclasses.replace(surf, edge_lengths=np.full(surf.n_edges, below)).validate()


# ---------------------------------------------------------------------------
# the per-side loops that vectorised matching and validation replaced

def reference_match_triangles(triangles):
    """Directed-side dict matching that surface_from_triangles used: edges as
    (min, max) in order of first occurrence and the edge id of every side."""
    directed = {}
    for t, (a, b, c) in enumerate(triangles):
        for k, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            key = (int(u), int(v))
            if key in directed:
                raise NonManifoldEdge(f"directed side {key} occurs twice")
            directed[key] = (t, k)
    edge_index, edges = {}, []
    tri_edges = np.full((len(triangles), 3), -1, dtype=int)
    for (u, v), (t, k) in directed.items():
        if (v, u) not in directed:
            raise NonManifoldEdge(f"side ({u}, {v}) has no oppositely oriented partner")
        key = (min(u, v), max(u, v))
        if key not in edge_index:
            edge_index[key] = len(edges)
            edges.append(key)
        tri_edges[t, k] = edge_index[key]
    return np.asarray(edges, dtype=int), tri_edges


def reference_match_cycles(faces):
    """Unchecked first-occurrence edge numbering genus2_quad_complex used."""
    edge_index, edges = {}, []
    face_edges = np.empty(np.shape(faces), dtype=int)
    for f, cycle in enumerate(faces):
        for k in range(len(cycle)):
            u, v = int(cycle[k]), int(cycle[(k + 1) % len(cycle)])
            key = (min(u, v), max(u, v))
            if key not in edge_index:
                edge_index[key] = len(edges)
                edges.append(key)
            face_edges[f, k] = edge_index[key]
    return np.asarray(edges, dtype=int), face_edges


def reference_validate(surf):
    """The combinatorial part of TriangulatedSurface.validate, side by side."""
    counts = np.zeros(surf.n_edges, dtype=int)
    senses = {}
    for t in range(surf.n_triangles):
        a, b, c = surf.triangles[t]
        for k, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            e = int(surf.triangle_edges[t, k])
            counts[e] += 1
            eu, ev = surf.edges[e]
            if (int(u), int(v)) == (int(eu), int(ev)):
                sense = 1
            elif (int(u), int(v)) == (int(ev), int(eu)):
                sense = -1
            else:
                raise NonManifoldEdge(
                    f"triangle {t} side {k} does not match endpoints of edge {e}")
            senses[(e, counts[e])] = sense
    if not np.all(counts == 2):
        bad = int(np.flatnonzero(counts != 2)[0])
        raise NonManifoldEdge(
            f"edge {bad} belongs to {counts[bad]} triangles (expected 2)")
    for e in range(surf.n_edges):
        if senses[(e, 1)] * senses[(e, 2)] != -1:
            raise NonManifoldEdge(
                f"edge {e} is traversed twice in the same direction (orientation clash)")


def outcome(fn, *args):
    """fn's return value, or the class and message of the error it raised."""
    try:
        return fn(*args)
    except NonManifoldEdge as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3), min_size=1, max_size=8))
def test_match_sides_agrees_with_dict_loop(triangles):
    # random triangle soups: the same edges, or the same first offending side
    tris = np.asarray(triangles, dtype=int)
    assert_same(outcome(_match_sides, tris), outcome(reference_match_triangles, tris))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 14), st.integers(3, 14))
def test_parametric_torus_matching_agrees_with_dict_loop(n, m):
    surf = cs.parametric_torus_mesh(n, m)
    assert_same((surf.edges, surf.triangle_edges), reference_match_triangles(surf.triangles))


def test_genus2_matching_agrees_with_dict_loops():
    surf = cs.genus2_mesh()
    assert_same((surf.edges, surf.triangle_edges), reference_match_triangles(surf.triangles))
    _, quads = _genus2_quads()
    assert_same(_match_sides(quads), reference_match_cycles(quads))


def explicit_surface(positions, triangles):
    """A surface with unchecked first-occurrence combinatorics, so that
    validate itself meets whatever the triangles do wrong."""
    positions = np.asarray(positions, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    edges, tri_edges = reference_match_cycles(triangles)
    d = positions[edges[:, 0]] - positions[edges[:, 1]]
    return cs.TriangulatedSurface(positions, triangles, edges, tri_edges,
                                  np.sqrt(np.einsum("ij,ij->i", d, d)))


TETRA = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
TETRA_FACES = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]


def test_validate_side_off_its_edge():
    surf = explicit_surface(TETRA, TETRA_FACES)
    surf.validate()
    tri_edges = surf.triangle_edges.copy()
    tri_edges[2, 1] = tri_edges[0, 0]         # side (2, 3) pointed at edge (0, 2)
    bad = dataclasses.replace(surf, triangle_edges=tri_edges)
    msg = f"triangle 2 side 1 does not match endpoints of edge {tri_edges[0, 0]}"
    with pytest.raises(NonManifoldEdge, match=msg):
        bad.validate()
    assert outcome(reference_validate, bad) == (NonManifoldEdge, msg)


def test_validate_edge_in_three_triangles():
    # a fifth triangle on the tetrahedron's edge (0, 1) and a new vertex
    surf = explicit_surface(np.vstack([TETRA, [[1.0, 1, 1]]]), TETRA_FACES + [[0, 1, 4]])
    msg = f"edge {surf.triangle_edges[4, 0]} belongs to 3 triangles (expected 2)"
    with pytest.raises(NonManifoldEdge, match=re.escape(msg)):
        surf.validate()
    assert outcome(reference_validate, surf) == (NonManifoldEdge, msg)


def test_validate_orientation_clash():
    # the tetrahedron with face (1, 2, 3) flipped: every edge still in two
    # triangles, and edge 1 = (1, 2) runs from 2 to 1 in both
    surf = explicit_surface(TETRA, [[0, 2, 1], [0, 1, 3], [2, 1, 3], [0, 3, 2]])
    msg = "edge 1 is traversed twice in the same direction (orientation clash)"
    with pytest.raises(NonManifoldEdge, match=re.escape(msg)):
        surf.validate()
    assert outcome(reference_validate, surf) == (NonManifoldEdge, msg)



# ---------------------------------------------------------------------------
# the per-vertex and per-cell loops that built the two torus meshes

def reference_triangulated_torus_mesh(torus, n, m):
    def vid(i, j):
        return (j % m) * n + (i % n)

    frac = np.empty((n * m, 2))
    for j in range(m):
        for i in range(n):
            frac[vid(i, j)] = ((i + 0.5 * (j % 2)) / n, j / m)
    positions = np.zeros((n * m, 3))
    positions[:, :2] = frac @ torus.basis.T

    nm = n * m
    H = lambda i, j: (j % m) * n + (i % n)
    F = lambda i, j: nm + (j % m) * n + (i % n)
    B = lambda i, j: 2 * nm + (j % m) * n + (i % n)
    edges = np.empty((3 * nm, 2), dtype=int)
    dfrac = np.empty((3 * nm, 2))
    for j in range(m):
        for i in range(n):
            edges[H(i, j)] = (vid(i, j), vid(i + 1, j))
            dfrac[H(i, j)] = (1.0 / n, 0.0)
            if j % 2 == 0:
                edges[F(i, j)] = (vid(i, j), vid(i, j + 1))
                dfrac[F(i, j)] = (0.5 / n, 1.0 / m)
                edges[B(i, j)] = (vid(i + 1, j), vid(i, j + 1))
                dfrac[B(i, j)] = (-0.5 / n, 1.0 / m)
            else:
                edges[F(i, j)] = (vid(i, j), vid(i, j + 1))
                dfrac[F(i, j)] = (-0.5 / n, 1.0 / m)
                edges[B(i, j)] = (vid(i, j), vid(i + 1, j + 1))
                dfrac[B(i, j)] = (0.5 / n, 1.0 / m)
    vecs = dfrac @ torus.basis.T
    edge_lengths = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))

    triangles = np.empty((2 * nm, 3), dtype=int)
    tri_edges = np.empty((2 * nm, 3), dtype=int)
    t = 0
    for j in range(m):
        for i in range(n):
            if j % 2 == 0:
                triangles[t] = (vid(i, j), vid(i + 1, j), vid(i, j + 1))
                tri_edges[t] = (H(i, j), B(i, j), F(i, j))
                triangles[t + 1] = (vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
                tri_edges[t + 1] = (F(i + 1, j), H(i, j + 1), B(i, j))
            else:
                triangles[t] = (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1))
                tri_edges[t] = (H(i, j), F(i + 1, j), B(i, j))
                triangles[t + 1] = (vid(i, j), vid(i + 1, j + 1), vid(i, j + 1))
                tri_edges[t + 1] = (B(i, j), H(i, j + 1), F(i, j))
            t += 2
    return positions, triangles, edges, tri_edges, edge_lengths


def reference_parametric_torus_mesh(n, m):
    """(positions, triangles) of the donut, before edge matching."""
    big_radius, small_radius = 2.0, 0.7
    positions = np.empty((n * m, 3))
    for j in range(m):
        phi = TWO_PI * j / m
        for i in range(n):
            theta = TWO_PI * i / n
            rho = big_radius + small_radius * np.cos(phi)
            positions[j * n + i] = (rho * np.cos(theta), rho * np.sin(theta),
                                    small_radius * np.sin(phi))
    tris = []
    for j in range(m):
        for i in range(n):
            v00 = (j % m) * n + i % n
            v10 = (j % m) * n + (i + 1) % n
            v01 = ((j + 1) % m) * n + i % n
            v11 = ((j + 1) % m) * n + (i + 1) % n
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return positions, np.asarray(tris, dtype=int)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(lattice_bases(), st.integers(2, 20), st.integers(1, 10))
@example(np.diag([TWO_PI, TWO_PI]), 192, 64)
def test_triangulated_torus_mesh_matches_loop(basis, n, half_m):
    torus = cs.FlatTorus(basis)
    surf = cs.triangulated_torus_mesh(torus, n, 2 * half_m)
    want = reference_triangulated_torus_mesh(torus, n, 2 * half_m)
    for got, ref in zip((surf.vertex_positions, surf.triangles, surf.edges,
                         surf.triangle_edges, surf.edge_lengths), want):
        assert_bitwise(got, ref)


@pytest.mark.parametrize("n, m", [(3, 3), (4, 7), (12, 8), (24, 16), (192, 128)])
def test_parametric_torus_mesh_matches_loop(n, m):
    surf = cs.parametric_torus_mesh(n, m)
    positions, triangles = reference_parametric_torus_mesh(n, m)
    assert_bitwise(surf.vertex_positions, positions)
    assert_bitwise(surf.triangles, triangles)
