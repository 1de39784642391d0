"""Closed oriented triangulated surfaces and the mesh builders used in tests.

A surface carries its combinatorics explicitly (edges and the edge id of
every triangle side) so that structured tori with repeated vertex pairs
(e.g. the 2x2 grid torus, where n1 = 12 > C(4,2)) are representable.  The
metric is intrinsic: per-edge lengths, defaulting to Euclidean distances of
the vertex positions.  Flat-torus meshes override the lengths with the
minimum-image convention, since a flat torus has no isometric embedding in
R^3.  ``TriangulatedSurface.validate`` checks a surface and measures it once:
the DEC complex is built from the side senses, lengths and areas it returns.
Its metric tests are relative to the mesh's size, so every edge length from
MIN_EDGE_LENGTH to MAX_EDGE_LENGTH is measured alike, whatever its unit.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, InputError, NonManifoldEdge
from .lattice import TWO_PI, FlatTorus

# the longest edge validate accepts; Heron's sp**4 leaves float range near 1e77
MAX_EDGE_LENGTH = 1e75
# the least longest side of a triangle it accepts: from there up, the area
# floor 1e-12 sp**4 is a normal float, so an accepted area keeps its bits
MIN_EDGE_LENGTH = 1e-73


@dataclass(frozen=True)
class TriangulatedSurface:
    """Closed oriented surface: positions, triangles, edges, intrinsic metric.

    ``triangle_edges[t, k]`` is the edge id of side k of triangle t, where the
    sides of triangle (a, b, c) are (a,b), (b,c), (c,a) in order.
    """

    vertex_positions: np.ndarray   # (n0, 3)
    triangles: np.ndarray          # (n2, 3) int
    edges: np.ndarray              # (n1, 2) int
    triangle_edges: np.ndarray     # (n2, 3) int
    edge_lengths: np.ndarray       # (n1,)

    @property
    def n_vertices(self) -> int:
        return self.vertex_positions.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_triangles

    @property
    def genus(self) -> int:
        chi = self.euler_characteristic
        if chi % 2 != 0 or chi > 2:
            raise NonManifoldEdge(f"Euler characteristic {chi} is not that of a closed surface")
        return (2 - chi) // 2

    def side_lengths(self) -> np.ndarray:
        """Per-triangle side lengths, aligned with ``triangle_edges``; shape (n2, 3)."""
        return self.edge_lengths[self.triangle_edges]

    def validate(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Check closedness, orientability, the Euler characteristic, edge
        lengths up to MAX_EDGE_LENGTH, a longest side of each triangle of
        MIN_EDGE_LENGTH or more and areas above 1e-6 sp^2 (sp the
        semi-perimeter).  Returns the side senses (+1 where side k of triangle
        t runs along its edge, -1 against it) and side lengths, (n2, 3) like
        ``triangle_edges``, and the (n2,) areas."""
        sense = _side_senses(self.triangles, self.edges, self.triangle_edges)
        if not sense.all():
            t, k = np.argwhere(sense == 0)[0]
            raise NonManifoldEdge(f"triangle {t} side {k} does not match endpoints "
                                  f"of edge {self.triangle_edges[t, k]}")
        sides = self.triangle_edges.ravel()
        counts = np.bincount(sides, minlength=self.n_edges)
        if not np.all(counts == 2):
            bad = int(np.flatnonzero(counts != 2)[0])
            raise NonManifoldEdge(
                f"edge {bad} belongs to {counts[bad]} triangles (expected 2)")
        clash = np.flatnonzero(np.bincount(sides, weights=sense.ravel(), minlength=self.n_edges))
        if clash.size:
            raise NonManifoldEdge(f"edge {clash[0]} is traversed twice in the same "
                                  f"direction (orientation clash)")
        self.genus   # raises on an Euler characteristic no closed surface has
        too_long = self.edge_lengths > MAX_EDGE_LENGTH   # False for NaN, left to the area test
        if too_long.any():
            e = int(np.argmax(too_long))
            u, v = self.edges[e].tolist()
            length = self.edge_lengths[e]
            what = ("a non-finite length" if np.isinf(length)
                    else f"a length above {MAX_EDGE_LENGTH:g}:")
            raise InputError(f"edge {e} from vertex {u} to {v} has {what} {length}")
        s = self.side_lengths()
        longest = s.max(axis=1)
        if np.any(longest < MIN_EDGE_LENGTH):   # False for NaN, left to the area test
            t = int(np.argmax(longest < MIN_EDGE_LENGTH))
            raise InputError(f"triangle {t} has no side of length {MIN_EDGE_LENGTH:g} "
                             f"or more: the longest is {longest[t]}")
        a, b, c = s[:, 0], s[:, 1], s[:, 2]
        sp = 0.5 * (a + b + c)
        area_sq = sp * (sp - a) * (sp - b) * (sp - c)   # Heron
        if not np.all(area_sq > 1e-12 * sp**4):   # NaN lengths fail too
            raise DegenerateTriangle(
                f"triangle {int(np.argmin(area_sq))} has (near) zero area")
        return sense, s, np.sqrt(area_sq)


def _side_senses(faces, edges, face_edges) -> np.ndarray:
    """+1 / -1 where side k of face f, from corner k to corner k+1, runs
    along / against its edge face_edges[f, k]; 0 where it misses the edge's
    endpoints."""
    tail, head = faces, np.roll(faces, -1, axis=1)
    eu, ev = edges[face_edges, 0], edges[face_edges, 1]
    return np.where((tail == eu) & (head == ev), 1, np.where((tail == ev) & (head == eu), -1, 0))


def _match_sides(faces) -> tuple[np.ndarray, np.ndarray]:
    """Edges of closed oriented faces given as vertex cycles, one per row.

    Returns the edges as (min, max) vertex pairs in order of first occurrence
    and the edge id of every face side (side k runs from corner k to k+1).
    Every directed side must occur once and its reverse once.
    """
    faces = np.asarray(faces, dtype=int)
    tail, head = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    base = int(faces.min())
    span = int(faces.max()) - base + 1
    code = lambda u, v: (u - base) * span + (v - base)
    directed = code(tail, head)
    _, once = np.unique(directed, return_index=True)
    if once.size < directed.size:
        i = np.setdiff1d(np.arange(directed.size), once)[0]
        raise NonManifoldEdge(f"directed side {(int(tail[i]), int(head[i]))} occurs twice")
    lone = np.flatnonzero(~np.isin(code(head, tail), directed))
    if lone.size:
        i = lone[0]
        raise NonManifoldEdge(f"side ({tail[i]}, {head[i]}) has no oppositely oriented partner")
    low, high = np.minimum(tail, head), np.maximum(tail, head)
    _, first, inverse = np.unique(code(low, high), return_index=True, return_inverse=True)
    return (np.column_stack([low, high])[np.sort(first)],
            np.argsort(np.argsort(first))[inverse].reshape(faces.shape))


def surface_from_triangles(positions, triangles) -> TriangulatedSurface:
    """Build a surface from bare triangles, deriving edges by manifold matching
    and edge lengths from the positions.

    Requires finite positions and every directed side (u, v) to occur
    exactly once, with its reverse (v, u) occurring exactly once in another
    triangle; meshes with doubled vertex pairs must supply explicit
    combinatorics instead.  Huge coordinates can give an infinite edge
    length, which validate rejects before any area is formed from it.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    finite = np.isfinite(positions).all(axis=1)
    if not finite.all():
        v = int(np.argmin(finite))
        raise InputError(f"vertex {v} has a non-finite coordinate: {positions[v].tolist()}")
    triangles = np.asarray(triangles, dtype=int).reshape(-1, 3)
    edges, tri_edges = _match_sides(triangles)
    with np.errstate(over="ignore"):   # an overflow is the infinite length validate rejects
        d = positions[edges[:, 0]] - positions[edges[:, 1]]
    edge_lengths = np.sqrt(np.einsum("ij,ij->i", d, d))
    surf = TriangulatedSurface(positions, triangles, edges, tri_edges, edge_lengths)
    surf.validate()
    return surf


# ---------------------------------------------------------------------------
# structured flat-torus mesh (offset rows; all triangles acute for square tori)

def triangulated_torus_mesh(torus: FlatTorus, n: int, m: int | None = None) -> TriangulatedSurface:
    """Offset-row triangulation of a flat torus with n columns and m rows.

    Odd rows are shifted by half a column, which makes every triangle acute on
    square tori (circumcentric Hodge stars stay positive).  Edge lengths come
    from the minimum-image convention in lattice coordinates; vertex positions
    are the unrolled fundamental domain at z=0 and are for reference only.
    """
    m = n if m is None else m
    if n < 2 or m < 2 or m % 2 != 0:
        raise ValueError("need n >= 2 and even m >= 2 for a closed offset-row torus mesh")

    nm = n * m
    vid = lambda i, j: (j % m) * n + (i % n)
    # edge ids: H (in-row), F (forward diagonal), B (backward diagonal)
    H = lambda i, j: (j % m) * n + (i % n)
    F = lambda i, j: nm + (j % m) * n + (i % n)
    B = lambda i, j: 2 * nm + (j % m) * n + (i % n)

    # vertex (i, j), its edges and its cell are row j * n + i of each block
    j, i = np.divmod(np.arange(nm), n)
    even = (j % 2 == 0)[:, None]    # row j at offset 0, row j+1 at offset 1/2
    frac = np.column_stack([(i + 0.5 * (j % 2)) / n, j / m])
    positions = np.zeros((nm, 3))
    positions[:, :2] = frac @ torus.basis.T

    v00, v10, v01, v11 = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
    edges = np.concatenate([np.column_stack([v00, v10]), np.column_stack([v00, v01]),
                            np.where(even, np.column_stack([v10, v01]),
                                     np.column_stack([v00, v11]))])
    half = np.where(even[:, 0], 0.5 / n, -0.5 / n)
    rise = np.full(nm, 1.0 / m)
    dfrac = np.concatenate([np.column_stack([np.full(nm, 1.0 / n), np.zeros(nm)]),
                            np.column_stack([half, rise]), np.column_stack([-half, rise])])
    vecs = dfrac @ torus.basis.T
    edge_lengths = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))

    # two triangles per cell, down then up, with corners and sides by row parity
    h0, h1, f0, f1, b0 = H(i, j), H(i, j + 1), F(i, j), F(i + 1, j), B(i, j)
    triangles = np.where(even, np.column_stack([v00, v10, v01, v10, v11, v01]),
                         np.column_stack([v00, v10, v11, v00, v11, v01])).reshape(2 * nm, 3)
    tri_edges = np.where(even, np.column_stack([h0, b0, f0, f1, h1, b0]),
                         np.column_stack([h0, f1, b0, b0, h1, f0])).reshape(2 * nm, 3)

    surf = TriangulatedSurface(positions, triangles, edges, tri_edges, edge_lengths)
    surf.validate()
    return surf


# ---------------------------------------------------------------------------
# embedded donut (for the OFF path; geometry is the induced round metric)

def parametric_torus_mesh(n: int = 24, m: int = 16) -> TriangulatedSurface:
    """Genus-1 surface embedded in R^3 as a donut (radii 2, 0.7), split into triangles."""
    if n < 3 or m < 3:
        raise ValueError("need n, m >= 3 so vertex pairs identify edges uniquely")
    big_radius, small_radius = 2.0, 0.7
    theta = TWO_PI * np.arange(n) / n
    phi = TWO_PI * np.arange(m) / m
    rho = big_radius + small_radius * np.cos(phi)
    positions = np.stack([np.outer(rho, np.cos(theta)), np.outer(rho, np.sin(theta)),
                          np.repeat(small_radius * np.sin(phi)[:, None], n, axis=1)],
                         axis=-1).reshape(n * m, 3)    # vertex (i, j) is row j * n + i
    j, i = np.divmod(np.arange(n * m), n)
    v00, v10 = j * n + i, j * n + (i + 1) % n
    v01, v11 = (j + 1) % m * n + i, (j + 1) % m * n + (i + 1) % n
    tris = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(2 * n * m, 3)
    return surface_from_triangles(positions, tris)


# ---------------------------------------------------------------------------
# genus-2 voxel surface (boundary of a 5x3x1 slab with two through-holes)

_GENUS2_SOLID = {(x, y) for x in range(5) for y in range(3)} - {(1, 1), (3, 1)}


def _genus2_quads() -> tuple[np.ndarray, np.ndarray]:
    """Outward-oriented boundary quads of the two-hole voxel slab; genus 2."""
    vindex: dict[tuple[int, int, int], int] = {}
    verts: list[tuple[int, int, int]] = []

    def vid(p):
        p = tuple(int(q) for q in p)
        if p not in vindex:
            vindex[p] = len(verts)
            verts.append(p)
        return vindex[p]

    quads = []
    for (x, y) in _GENUS2_SOLID:
        if (x, y - 1) not in _GENUS2_SOLID:   # -y
            quads.append(((x, y, 0), (x + 1, y, 0), (x + 1, y, 1), (x, y, 1)))
        if (x, y + 1) not in _GENUS2_SOLID:   # +y
            quads.append(((x, y + 1, 0), (x, y + 1, 1), (x + 1, y + 1, 1), (x + 1, y + 1, 0)))
        if (x - 1, y) not in _GENUS2_SOLID:   # -x
            quads.append(((x, y, 0), (x, y, 1), (x, y + 1, 1), (x, y + 1, 0)))
        if (x + 1, y) not in _GENUS2_SOLID:   # +x
            quads.append(((x + 1, y, 0), (x + 1, y + 1, 0), (x + 1, y + 1, 1), (x + 1, y, 1)))
        # slab is one cell thick: top and bottom always exposed
        quads.append(((x, y, 1), (x + 1, y, 1), (x + 1, y + 1, 1), (x, y + 1, 1)))
        quads.append(((x, y, 0), (x, y + 1, 0), (x + 1, y + 1, 0), (x + 1, y, 0)))

    quad_ids = np.asarray([[vid(p) for p in q] for q in quads], dtype=int)
    return np.asarray(verts, dtype=float), quad_ids


def genus2_mesh() -> TriangulatedSurface:
    """Triangulated closed genus-2 surface (each boundary quad split in two)."""
    positions, quads = _genus2_quads()
    surf = surface_from_triangles(positions, quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))
    if surf.genus != 2:
        raise NonManifoldEdge(f"voxel surface has genus {surf.genus}, expected 2")
    return surf


# ---------------------------------------------------------------------------
# OFF io

# a comment runs from "#" to the end of its line (\n, \r\n or \r)
_COMMENT = re.compile(r"#[^\r\n]*")


def _off_tokens(path) -> list:
    """The whitespace-separated tokens of an ASCII file, comments removed.
    The file is decoded whole, so a non-ASCII byte is reported at its offset
    in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from exc
    return _COMMENT.sub("", text).split()


def _parsed(convert, tokens):
    """convert(tokens), where a token that is no number raises InputError
    with convert's own message."""
    try:
        return convert(tokens)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _check_face(f: int, tokens: list, nv: int):
    """Raise the error of face f of an OFF file, from its tokens (the vertex
    count, then the indices), if it has one."""
    cnt = _parsed(int, tokens[0])
    if cnt != 3:
        raise InputError(f"face {f} has {cnt} vertices; only triangles are supported")
    tri = [_parsed(int, t) for t in tokens[1:4]]   # Python ints: past int64 is out of range too
    if min(tri) < 0 or max(tri) >= nv:
        raise InputError(f"face {f} has a vertex index outside [0, {nv}): {tri}")


def read_off(path) -> TriangulatedSurface:
    """Read an ASCII OFF file (triangles only) into a surface."""
    tokens = _off_tokens(path)
    if not tokens or tokens[0] != "OFF":
        raise InputError("not an OFF file (missing OFF header)")
    if len(tokens) < 4:
        raise InputError("truncated OFF file: missing the vertex, face and edge counts")
    nv, nf = _parsed(int, tokens[1]), _parsed(int, tokens[2])
    pos = 4  # skip the edge count
    if min(nv, nf) < 0 or len(tokens) < pos + 3 * nv + 4 * nf:
        raise InputError(f"truncated OFF file: {nv} vertices and {nf} triangles need "
                         f"{pos + 3 * nv + 4 * nf} tokens, found {len(tokens)}")
    verts = _parsed(lambda t: np.asarray(t, dtype=float), tokens[pos:pos + 3 * nv]).reshape(nv, 3)
    pos += 3 * nv
    block = tokens[pos:pos + 4 * nf]
    try:
        faces = np.asarray(block, dtype=int).reshape(nf, 4)
    except (ValueError, OverflowError):   # a token that is no int64
        first = 0
    else:
        tris = faces[:, 1:]
        bad = (faces[:, 0] != 3) | (tris < 0).any(axis=1) | (tris >= nv).any(axis=1)
        first = int(np.argmax(bad)) if bad.any() else nf
    # the faces from the first bad one on (all of them after a parse error)
    # are checked one by one, so the first failing face reports its fault
    for f in range(first, nf):
        _check_face(f, block[4 * f:4 * f + 4], nv)
    return surface_from_triangles(verts, np.ascontiguousarray(tris))


def write_off(path, surface: TriangulatedSurface):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("OFF\n")
        fh.write(f"{surface.n_vertices} {surface.n_triangles} {surface.n_edges}\n")
        for p in surface.vertex_positions:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for t in surface.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
