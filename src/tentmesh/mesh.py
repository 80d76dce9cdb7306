"""Simplicial space meshes in one and two dimensions.

A mesh is a set of vertices plus segments (1D) or triangles (2D).  Simplices
are stored with their vertex ids sorted ascending, whatever their orientation
in the input, so identical inputs always produce identical in-memory
structures and output files.  The mesh owns its arrays: ``build_mesh``, the
one way a mesh is made (``load_mesh`` calls it on the arrays it parsed),
copies the caller's vertices and freezes its copies.

The text format is line based::

    # comment
    dim 2
    v 0.0 0.0
    v 1.0 0.0
    v 0.0 1.0
    s 0 1 2

``v`` lines assign vertex ids in file order starting at 0.  ``save_mesh``
writes the canonical form of this format (floats via ``repr``, so coordinates
round-trip bit-exactly): ``dim 1`` or ``dim 2``, every ``v`` line, then every
``s`` line, tokens split by single spaces, ``\\n`` line ends, ASCII, with no
comment, blank line, tab or other whitespace that ``str.split`` breaks on.

``load_mesh`` reads the file once and has two readers for its text.  A
document in the canonical layout is converted by two ``np.loadtxt`` calls,
one per block, whose ``usecols`` skip the tag.  Whole-text string counts
check the layout first: each block's tagged lines must number its lines, and
its spaces its lines times its tokens per line, because ``usecols`` would
drop a surplus column unseen.  Every other document goes to the line reader,
and so does a canonical one that numpy does not convert (Python's ``float``
and ``int`` also take underscores; numpy rejects an id beyond int64) or
whose ids leave ``[0, n)``; where numpy converts a token, it gives Python's
value.  The line reader checks each line's tag and token count in one pass
and converts the collected tokens with Python's own ``float`` and ``int``;
ids are range-checked as Python ints, so an id too large for int64 still
reports the missing vertex and its line.  It alone makes every error.

Validation is strict: every vertex must be used, simplices must be
nondegenerate and pairwise distinct, and the mesh must be manifold (a vertex
in at most two segments in 1D, an edge in at most two triangles in 2D).
Boundary vertices are ordinary vertices; nothing here treats them specially.
When an input has several defects, ``build_mesh`` reports the first of:

1. a non-finite vertex coordinate (lowest vertex id);
2. per simplex, in input order: wrong arity, a vertex id out of range, a
   repeated vertex, the same vertices as an earlier simplex;
3. a degenerate simplex, or one too large for its width, measure or
   diameter to be finite (lowest simplex id);
4. an unused vertex (lowest vertex id);
5. 1D: a vertex in more than two segments (lowest id), then two segments
   overlapping (the first pair in order of left end); 2D: an edge in more
   than two triangles (the first such edge met in simplex order).

Adjacency is stored as arrays.  ``mesh.stars`` is a :class:`Stars`: one
read-only int64 array holding, vertex by vertex, the ids of the simplices
that contain it in ascending order, and the int64 offsets where each
vertex's run starts; ``mesh.stars[v]`` makes vertex v's slice on access, so
no per-vertex object is kept.  Row v of ``neighbor_matrix`` lists v's
neighbours ascending, padded with -1 to the largest vertex degree.
"""

from __future__ import annotations

import functools
import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import numbered_lines
from .geometry import DEGENERACY_RATIO, ApexGeometry
from .geometry import apex_geometry as _apex_geometry


class Stars(Sequence):
    """Vertex stars over one read-only id array: ``stars[v]`` is vertex v's.

    ``ids`` holds, vertex by vertex, the ids of the simplices containing it
    in ascending order; vertex v's run is ``ids[offsets[v]:offsets[v + 1]]``
    (``offsets`` is int64, n + 1 long).  Each access makes a fresh read-only
    view, so the mesh holds two arrays rather than one view per vertex.
    """

    __slots__ = ("ids", "offsets", "_n")

    def __init__(self, ids: np.ndarray, offsets: np.ndarray):
        self.ids = ids
        self.offsets = offsets
        self._n = len(offsets) - 1

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, v) -> np.ndarray:
        # The pitcher reads a star several times per patch: no more work
        # here than the bounds check and one slice.
        n = self._n
        i = v + n if v < 0 else v
        if not 0 <= i < n:
            raise IndexError(f"no star {v}: the mesh has {n} vertices")
        off = self.offsets
        return self.ids[off.item(i):off.item(i + 1)]


@dataclass
class SpaceMesh:
    """An immutable simplicial mesh with precomputed adjacency and geometry.

    Treat instances as frozen after construction; the advancing front stores
    times separately and never mutates the mesh.  Beyond the arrays
    ``build_mesh`` fills in, the one derived value is :attr:`apex_geometry`,
    which the 2D causality and progress checks and the pitcher's star cap
    all read.
    """

    dim: int
    vertices: np.ndarray          # (n, dim) float64
    simplices: np.ndarray         # (m, dim+1) int64, rows sorted ascending

    # Derived structure, filled in by build_mesh.
    stars: Stars | None = None                                 # vertex -> simplex ids, ascending
    neighbor_matrix: np.ndarray | None = None                  # (n, maxdeg), -1 padded
    widths: np.ndarray | None = None                           # (m,)
    measures: np.ndarray | None = None                         # (m,) length or area
    centroids: np.ndarray | None = None                        # (m, dim)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]

    @property
    def wmin(self) -> float:
        return float(self.widths.min())

    @functools.cached_property
    def apex_geometry(self) -> ApexGeometry:
        """2D only: :class:`ApexGeometry` of every triangle, row = simplex id.

        Built on first use, by the first 2D star cap or check of a run, so
        building a mesh and 1D runs never pay for it.
        """
        return _apex_geometry(self.vertices[self.simplices])


def _sorted_rows(simplices, n: int, k: int) -> np.ndarray:
    """The simplex rows as (m, k) int64 in input order, each sorted ascending.

    Raises the error of the first simplex with a defect; for that simplex the
    checks run in the order arity, range, repeated vertex, duplicate.
    """
    if isinstance(simplices, np.ndarray) and simplices.ndim == 2:
        arity = np.full(len(simplices), simplices.shape[1])
    else:
        simplices = list(simplices)
        arity = np.fromiter(map(len, simplices), np.int64, len(simplices))
    m = len(simplices)
    if not m:
        raise ValidationError("mesh has no simplices")
    # Rows before the first one of the wrong arity form a proper array.
    bad_arity = np.flatnonzero(arity != k)
    stop = int(bad_arity[0]) if bad_arity.size else m
    head = simplices[:stop]
    try:
        rows = np.array(head, dtype=np.int64).reshape(stop, k)
    except OverflowError:
        # An id beyond int64 is out of range; clamp it so the check below sees it.
        rows = np.array([[min(max(int(v), -1), n) for v in s] for s in head],
                        dtype=np.int64).reshape(stop, k)
    srt = np.sort(rows, axis=1)
    out_of_range = ((rows < 0) | (rows >= n)).any(axis=1)
    repeated = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
    # Equal sorted rows are adjacent in lexicographic order; the sort is
    # stable, so each run starts at the first simplex with those vertices.
    # The key a*n + b of a row's first two ids fits int64 for n < 3e9.
    pair = srt[:, 0] * n + srt[:, 1]
    order = np.lexsort((srt[:, 2], pair)) if k == 3 else np.argsort(pair, kind="stable")
    same = np.zeros(stop, dtype=bool)
    same[1:] = (srt[order[1:]] == srt[order[:-1]]).all(axis=1)
    run_start = np.maximum.accumulate(np.where(same, 0, np.arange(stop)))
    first_seen = np.empty(stop, dtype=np.int64)
    first_seen[order] = order[run_start]
    duplicate = first_seen != np.arange(stop)

    bad = np.flatnonzero(out_of_range | repeated | duplicate)
    if not bad.size and stop == m:
        return srt
    s = int(bad[0]) if bad.size else stop
    where = f"simplex {s}"
    if s == stop:
        raise ValidationError(
            f"simplex has {int(arity[s])} vertices, expected {k}", where
        )
    row = tuple(int(v) for v in simplices[s])
    if out_of_range[s]:
        v = next(v for v in row if not 0 <= v < n)
        raise ValidationError(f"vertex id {v} out of range 0..{n - 1}", where)
    if repeated[s]:
        raise ValidationError(f"repeated vertex in simplex {row}", where)
    raise ValidationError(
        f"duplicate simplex {row}, same vertices as simplex {first_seen[s]}", where
    )


def build_mesh(vertices, simplices) -> SpaceMesh:
    """Validate raw arrays and assemble a :class:`SpaceMesh`.

    ``vertices`` is (n, dim) with dim 1 or 2; ``simplices`` is an (m, dim+1)
    integer array or a sequence of (dim+1)-tuples of vertex ids in any order.
    The mesh keeps a read-only copy of ``vertices``; the caller's array is
    neither shared nor frozen.
    Raises :class:`ValidationError` describing the first problem found, in
    the order given in the module docstring.
    """
    verts = np.array(vertices, dtype=np.float64)
    if verts.ndim == 1:
        verts = verts[:, None]
    if verts.ndim != 2 or verts.shape[1] not in (1, 2):
        raise ValidationError(f"vertex array must be (n, 1) or (n, 2), got {verts.shape}")
    dim = int(verts.shape[1])
    n = verts.shape[0]
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if bad.size:
        raise ValidationError(f"non-finite coordinates {verts[bad[0]].tolist()}",
                              f"vertex {bad[0]}")

    k = dim + 1
    srt = _sorted_rows(simplices, n, k)
    m = len(srt)
    pts = verts[srt]                                   # (m, k, dim)

    # Edge lengths by vecdot + sqrt round exactly as np.linalg.norm of one
    # edge does; an axis-wise norm or sqrt(sum) differs in the last bit.
    # Squares of finite coordinates can overflow; such simplices are
    # rejected below, so the overflow warnings are not raised.
    with np.errstate(over="ignore", invalid="ignore"):
        if dim == 1:
            edge = pts[:, 1] - pts[:, 0]
            widths = np.sqrt(np.vecdot(edge, edge))
            measures = widths.copy()
            diam = widths
        else:
            a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
            edges = np.stack([b - a, c - b, a - c], axis=1)       # (m, 3, 2)
            diam = np.sqrt(np.vecdot(edges, edges)).max(axis=1)
            e0, e2 = edges[:, 0], edges[:, 2]
            area2 = np.abs(e0[:, 0] * (-e2[:, 1]) - e0[:, 1] * (-e2[:, 0]))
            widths = np.zeros(m)
            np.divide(area2, diam, out=widths, where=diam > 0.0)
            measures = 0.5 * area2
        huge = ~(np.isfinite(widths) & np.isfinite(measures) & np.isfinite(diam))
        bad = np.flatnonzero(huge | (widths < DEGENERACY_RATIO * diam)
                             | (diam == 0.0))
    if bad.size:
        s = int(bad[0])
        if huge[s]:
            raise ValidationError(
                f"simplex {tuple(srt[s].tolist())} is too large: its size "
                f"overflows (width {widths[s]:g}, measure {measures[s]:g})",
                f"simplex {s}",
            )
        raise ValidationError(
            f"degenerate simplex {tuple(srt[s].tolist())} (width {widths[s]:g})",
            f"simplex {s}",
        )

    # Stars: one stable sort of the flat vertex ids groups each vertex's
    # simplices, ascending, and a bincount gives where each group starts.
    flat = srt.ravel()
    degree = np.bincount(flat, minlength=n)
    unused = np.flatnonzero(degree == 0)
    if unused.size:
        v = int(unused[0])
        raise ValidationError(f"vertex {v} is not part of any simplex", f"vertex {v}")
    star_ids = np.argsort(flat, kind="stable") // k
    star_ids.setflags(write=False)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])
    offsets.setflags(write=False)
    stars = Stars(star_ids, offsets)

    if dim == 1:
        crowded = np.flatnonzero(degree > 2)
        if crowded.size:
            v = int(crowded[0])
            raise ValidationError(
                f"non-manifold: vertex {v} belongs to {degree[v]} segments",
                f"vertex {v}",
            )
        # Segments may meet only at endpoints: sort by interval and check overlap.
        ends_x = verts[srt, 0]
        lo, hi = ends_x.min(axis=1), ends_x.max(axis=1)
        order = np.lexsort((hi, lo))
        overlap = np.flatnonzero(lo[order[1:]] < hi[order[:-1]])
        if overlap.size:
            k1, k2 = order[overlap[0]], order[overlap[0] + 1]
            raise ValidationError(
                f"segments {k1} and {k2} overlap geometrically", f"simplex {k2}"
            )
    else:
        # Edge (a, b) of a sorted row has key a*n + b; flat position 3*s + j
        # orders edges by first appearance, so the first crowded edge
        # reported is the first one met in simplex order.
        edge_keys = (srt[:, [0, 0, 1]] * n + srt[:, [1, 2, 2]]).ravel()
        order = np.argsort(edge_keys, kind="stable")
        sorted_keys = edge_keys[order]
        starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        counts = np.diff(np.r_[starts, len(sorted_keys)])
        crowded = np.flatnonzero(counts > 2)
        if crowded.size:
            i = crowded[np.argmin(order[starts[crowded]])]
            a, b = divmod(int(sorted_keys[starts[i]]), n)
            raise ValidationError(
                f"non-manifold: edge ({a}, {b}) belongs to {counts[i]} triangles",
                f"edge ({a}, {b})",
            )

    # Neighbours: every ordered pair of distinct vertices of a simplex, keyed
    # v*n + w; the sorted distinct keys are the rows, ascending.  Sorting and
    # dropping repeats is an order of magnitude faster than np.unique here.
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    pairs = np.sort((srt[:, i] * n + srt[:, j]).ravel())
    pairs = pairs[np.r_[True, pairs[1:] != pairs[:-1]]]
    v, w = np.divmod(pairs, n)
    count = np.bincount(v, minlength=n)
    neighbor_matrix = np.full((n, int(count.max())), -1, dtype=np.int64)
    starts = np.cumsum(count) - count
    neighbor_matrix[v, np.arange(len(pairs)) - starts[v]] = w

    centroids = pts.mean(axis=1)

    mesh = SpaceMesh(
        dim=dim,
        vertices=verts,
        simplices=srt,
        stars=stars,
        neighbor_matrix=neighbor_matrix,
        widths=widths,
        measures=measures,
        centroids=centroids,
    )
    verts.setflags(write=False)
    srt.setflags(write=False)
    return mesh


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def _line_error(tag: str, args: list[str], dim: int | None,
                where: str) -> ValidationError | None:
    """The problem with a line that is not a well-formed ``v`` or ``s`` line.

    Returns None for a valid ``dim`` line.
    """
    if tag == "dim":
        if dim is not None:
            return ValidationError("duplicate dim line", where)
        if len(args) != 1 or args[0] not in ("1", "2"):
            return ValidationError(f"dim must be 1 or 2, got {args!r}", where)
        return None
    if tag == "v":
        if dim is None:
            return ValidationError("dim line must come before vertices", where)
        return ValidationError(f"vertex needs {dim} coordinates, got {len(args)}", where)
    if tag == "s":
        if dim is None:
            return ValidationError("dim line must come before simplices", where)
        return ValidationError(
            f"simplex needs {dim + 1} vertex ids, got {len(args)}", where
        )
    return ValidationError(f"unknown directive {tag!r}", where)


def _bad_token(tokens: list[str], linenos: list[int], per_line: int, conv,
               what: str, path) -> tuple[int, ValidationError] | None:
    """(line number, error) of the first token ``conv`` rejects, or None."""
    for i, token in enumerate(tokens):
        try:
            conv(token)
        except ValueError as exc:
            lineno = linenos[i // per_line]
            return lineno, ValidationError(f"{what}: {exc}", f"{path}:{lineno}")
    return None


def _convert(coords: list[str], vlines: list[int], ids: list[str],
             slines: list[int], dim: int, path) -> tuple[np.ndarray, list[int]]:
    """Coordinates as float64 and vertex ids as Python ints, in file order.

    Both use Python's own ``float`` and ``int`` parse rules.  When a token
    does not parse, raises the error of the earliest such line.
    """
    try:
        xs = np.fromiter(map(float, coords), np.float64, len(coords))
        return xs, list(map(int, ids))
    except ValueError:
        pass
    bad = [e for e in (_bad_token(coords, vlines, dim, float, "bad coordinate", path),
                       _bad_token(ids, slines, dim + 1, int, "bad vertex id", path))
           if e is not None]
    raise min(bad, key=lambda e: e[0])[1]


# Characters ``str.split`` breaks on besides the space and the newline, and
# the comment mark: a document without them splits on single spaces.
_NOT_IN_LAYOUT = ("#", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_in_layout(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices and simplex rows of a document in ``save_mesh``'s layout.

    Returns None for any other document, and for one that numpy does not
    convert or whose ids leave ``[0, n)``, for the line reader to read.
    """
    if not (text.startswith(("dim 1\n", "dim 2\n")) and text.endswith("\n")
            and text.isascii()) or any(c in text for c in _NOT_IN_LAYOUT):
        return None
    dim = int(text[4])
    split = text.find("\ns ", 5) + 1           # where the first s line starts
    if split <= 6:                               # no v line or no s line
        return None
    arrays = []
    for block, tag, width, dtype in ((text[6:split], "v ", dim, np.float64),
                                     (text[split:], "s ", dim + 1, np.int64)):
        # Every line starts with the tag and holds ``width`` spaces: a line
        # with fewer lacks a column ``usecols`` asks for and fails, so with
        # the total right none has a surplus, which ``usecols`` would drop.
        lines = block.count("\n")
        if not (block.startswith(tag) and block.count("\n" + tag) == lines - 1
                and block.count(" ") == lines * width):
            return None
        try:
            rows = np.loadtxt(io.StringIO(block), dtype=dtype, comments=None,
                              delimiter=" ", usecols=range(1, width + 1), ndmin=2)
        except (ValueError, OverflowError):
            return None
        if rows.shape != (lines, width):
            return None
        arrays.append(rows)
    verts, simps = arrays
    if simps.min() < 0 or simps.max() >= len(verts):
        return None
    return verts, simps


def _read_lines(text: str, path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and simplex rows of any mesh document, line by line.

    Raises :class:`ValidationError` naming the first bad line.
    """
    dim: int | None = None
    v_width = s_width = -1             # tokens on a v / s line, once dim is known
    coords: list[str] = []
    vlines: list[int] = []
    ids: list[str] = []
    slines: list[int] = []

    for lineno, rawline in numbered_lines(text):
        tokens = rawline.split("#", 1)[0].split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag == "v" and len(tokens) == v_width:
            coords += tokens[1:]
            vlines.append(lineno)
        elif tag == "s" and len(tokens) == s_width:
            ids += tokens[1:]
            slines.append(lineno)
        else:
            exc = _line_error(tag, tokens[1:], dim, f"{path}:{lineno}")
            if exc is not None:
                # A token that does not parse on an earlier line is
                # the first error; converting raises it.
                if dim is not None:
                    _convert(coords, vlines, ids, slines, dim, path)
                raise exc
            dim = int(tokens[1])
            v_width, s_width = dim + 1, dim + 2

    if dim is None:
        raise ValidationError("missing dim line", str(path))
    xs, vids = _convert(coords, vlines, ids, slines, dim, path)
    nv = len(vlines)
    if vids and (min(vids) < 0 or max(vids) >= nv):
        i = next(i for i, v in enumerate(vids) if not 0 <= v < nv)
        raise ValidationError(
            f"simplex references missing vertex {vids[i]}",
            f"{path}:{slines[i // (dim + 1)]}",
        )
    return xs.reshape(nv, dim), np.array(vids, dtype=np.int64).reshape(-1, dim + 1)


def _parse_mesh(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (n, dim) and simplex rows (m, dim+1) int64 of a mesh document.

    Raises :class:`ValidationError` naming the first bad line.
    """
    # Undecodable bytes read as U+FFFD and fail like any other bad token.
    # Line ends stay as written, so a \r keeps a document out of the layout.
    try:
        with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read mesh document: {exc}", str(path)) from None
    parsed = _read_in_layout(text)
    return parsed if parsed is not None else _read_lines(text, path)


def load_mesh(path) -> SpaceMesh:
    """Parse a mesh document; raise :class:`ValidationError` with the offending line.

    A document in ``save_mesh``'s layout is converted in bulk, every other
    one line by line, to the same arrays; the line reader makes every error
    message (see the module docstring).  A path that cannot be read raises
    :class:`ValidationError` too.
    """
    verts, simps = _parse_mesh(path)
    try:
        return build_mesh(verts, simps)
    except ValidationError as exc:
        # Structural errors name a simplex, vertex or edge, not a line.
        where = str(path) if exc.location is None else f"{exc.location} of {path}"
        raise ValidationError(exc.reason, where) from None


def save_mesh(mesh: SpaceMesh, path) -> None:
    """Write the canonical text form (load . save is the identity)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {mesh.dim}\n")
        for row in mesh.vertices:
            fh.write("v " + " ".join(repr(float(x)) for x in row) + "\n")
        for row in mesh.simplices:
            fh.write("s " + " ".join(str(int(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# constructors for common meshes
# ---------------------------------------------------------------------------


def interval_mesh(xs) -> SpaceMesh:
    """1D mesh over the given sorted breakpoints, one segment per gap."""
    xs = np.asarray(xs, dtype=np.float64)
    segs = [(i, i + 1) for i in range(len(xs) - 1)]
    return build_mesh(xs[:, None], segs)


def strip_mesh(cells: int, height: float = 0.3) -> SpaceMesh:
    """A triangle strip of isoceles triangles, all obtuse when height < 1/2.

    Bottom vertices sit at (i, 0), top vertices at (i + 1/2, height);
    triangles alternate pointing up and down.  With a flat profile every
    triangle's widest angle exceeds 90 degrees, which exercises the
    constraint cases where the edge normals of a triangle agree in direction.
    """
    if cells < 1:
        raise ValidationError("strip needs at least one cell")
    bottom = [(float(i), 0.0) for i in range(cells + 1)]
    top = [(i + 0.5, height) for i in range(cells)]
    verts = bottom + top
    t0 = cells + 1  # index of the first top vertex
    simps = []
    for i in range(cells):
        simps.append((i, i + 1, t0 + i))
        if i + 1 < cells:
            simps.append((t0 + i, i + 1, t0 + i + 1))
    return build_mesh(np.array(verts), simps)


def grid_mesh(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
              skew: float = 0.0) -> SpaceMesh:
    """Structured triangulated grid on [0, lx] x [0, ly] with nx x ny cells.

    Each cell is split along its lower-left to upper-right diagonal.  A
    nonzero ``skew`` shears the vertex rows in x, which makes the triangles
    increasingly obtuse; handy for stressing the angle-dependent bounds.
    """
    verts = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            verts.append((lx * i / nx + skew * j, ly * j / ny))
    simps = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            simps.append((a, b, d))
            simps.append((a, d, c))
    return build_mesh(np.array(verts), simps)
