"""Level-set function construction and maintenance.

Sign convention used throughout the package: phi >= 0 is *inside* the
contour. ``signed_distance`` checks and builds phi0 for the two initial
shapes, circles and the periodic field; ``reinitialize`` restores
|grad phi| ~ 1 without moving the zero level; ``extract_contour`` traces
the zero level as subpixel polylines via marching squares.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarField, Scratch, _check_count, divide_by, rowwise, split_rows

BORDER_MARGIN = 2.0  # init shapes must keep this many pixels of clearance
PERIOD = 5.0  # px, of the periodic shape (Getreuer, "Chan-Vese Segmentation", IPOL 2012)


@dataclass(frozen=True)
class InitShape:
    """Initial-contour geometry: circles of one radius, or the periodic shape.

    Coordinates are pixel units, x along columns and y along rows.
    """

    kind: str                    # circles | periodic
    centers: tuple = ()          # circles: ((cx, cy), ...)
    radius: float = 0.0          # circles

    @classmethod
    def circle(cls, cx: float, cy: float, radius: float) -> "InitShape":
        return cls(kind="circles", centers=((float(cx), float(cy)),), radius=float(radius))

    @classmethod
    def circle_grid(cls, nx: int, ny: int, radius: float, width: int, height: int) -> "InitShape":
        """nx * ny circles evenly spread over a width x height grid."""
        _check_count("nx", nx, 1)
        _check_count("ny", ny, 1)
        centers = tuple(
            ((i + 0.5) * width / nx, (j + 0.5) * height / ny)
            for j in range(ny)
            for i in range(nx)
        )
        return cls(kind="circles", centers=centers, radius=float(radius))


def default_seed_grid(width: int, height: int) -> InitShape:
    """The default initializer, for a grid of any size: the periodic shape,
    whose phi0 is signed-distance-like only near its zero level. The region
    models move phi through delta_eps(phi), which falls off as 1/phi^2;
    with |phi0| <= PERIOD/pi every pixel moves from the first step, and no
    structure lies between seeds, as between the circles of a circle grid.
    The arguments are unused: every grid gets the same shape.
    """
    return InitShape("periodic")


def signed_distance(shape: InitShape, width: int, height: int) -> ScalarField:
    """Signed distance to the shape boundary: positive inside, negative
    outside, |grad| = 1 away from the medial axis. Circle grids take the
    pointwise max over the per-circle distances.
    The periodic shape gives phi0 = (p/pi) sin(pi x/p) sin(pi y/p) with
    p = PERIOD: 1-Lipschitz, |phi0| <= p/pi, signed-distance-like only near
    phi0 = 0, and fits any grid. Circles need a centre, a finite radius > 0,
    and each must fit in the grid with a BORDER_MARGIN-pixel margin (so no
    centre is NaN or infinite). Any other shape, or a width or height that
    is not an integer >= 3, raises ValueError.
    """
    _check_count("width", width, 3)
    _check_count("height", height, 3)
    if shape.kind == "periodic":
        p = PERIOD
        wave = np.sin(np.arange(max(width, height), dtype=np.float64) * (math.pi / p))
        return ScalarField(np.multiply.outer(wave[:height] * (p / math.pi), wave[:width]))
    if shape.kind != "circles":
        raise ValueError(f"unknown init shape kind: {shape.kind!r}")
    r = shape.radius
    if not (0 < r < math.inf):
        raise ValueError(f"circle radius must be finite and > 0, got {r}")
    if not shape.centers:
        raise ValueError("a circles shape needs at least one centre")
    hi_x, hi_y = width - 1 - BORDER_MARGIN, height - 1 - BORDER_MARGIN
    for cx, cy in shape.centers:
        if not (BORDER_MARGIN <= cx - r and cx + r <= hi_x
                and BORDER_MARGIN <= cy - r and cy + r <= hi_y):
            raise ValueError(
                f"circle ({cx}, {cy}) of radius {r} does not fit a {width}x{height} "
                f"grid with a {BORDER_MARGIN:.0f}px margin"
            )
    x, y = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    phi = np.full((height, width), -np.inf)
    for cx, cy in shape.centers:
        np.maximum(phi, r - np.hypot(x - cx, y - cy), out=phi)
    return ScalarField(phi)


def mask_inside(phi: np.ndarray) -> np.ndarray:
    """Boolean mask of the inside region {phi >= 0}."""
    return phi >= 0.0


def _godunov_term(b: np.ndarray, minus_f: np.ndarray, low: np.ndarray,
                  negative: np.ndarray) -> None:
    # max(b, -f, 0)^2 where phi0 >= 0 and min(b, -f, 0)^2 where phi0 < 0,
    # written into minus_f; low is work space
    np.minimum(minus_f, b, out=low)
    np.minimum(low, 0.0, out=low)
    np.maximum(minus_f, b, out=minus_f)
    np.maximum(minus_f, 0.0, out=minus_f)
    np.copyto(minus_f, low, where=negative)
    minus_f *= minus_f


def reinitialize(phi: np.ndarray, iterations: int, spacing: float = 1.0, *,
                 scratch: Scratch | None = None) -> np.ndarray:
    """Relax phi toward a signed distance function without moving the zero
    level: iterate d_t = S(phi0) (1 - |grad d|) with Godunov upwind
    differences and the smoothed sign S = phi0 / sqrt(phi0^2 + h^2).

    The sweeps work in ``scratch`` (a fresh set when None) and return a new
    array in its dtype. The forward difference f of a pixel is the backward
    difference b of the next one (0 past the last), so only b is stored, and
    the Godunov term max(max(b, 0)^2, min(f, 0)^2) is taken as
    max(b, -f, 0)^2 (inside; min(b, -f, 0)^2 outside), which is exact for
    squares of non-negative numbers. b in x and the -f shift are each one
    pass over the flattened rows, which also crosses from each row's end to
    the next row's start; the first column of b and the last of -f are then
    set to 0.

    A sweep runs on the row slabs of grid.split_rows. The -f shift in y of
    a slab's last row takes the next row's b again from d, and d is updated
    in a second split, once every slab has taken its differences; the
    result has the bits of a sweep over the whole array.
    """
    _check_count("iterations", iterations)
    s = Scratch.ensure(scratch, phi)
    negative = phi < 0
    zero = phi == 0
    # dt * S(phi0) with dt = h / 2, once per call
    rowwise(_step_scale_rows, s.arrays[0], phi, spacing)
    d = phi.astype(s.dtype)  # a new array in the set's dtype
    # a sweep reads the rows next to its slab's, so no slab updates d
    # until every slab has taken its differences
    slopes = functools.partial(_slope_rows, d, spacing, s.arrays, negative, zero)
    for _ in range(iterations):
        split_rows(slopes, len(d), d.size)
        rowwise(_take_step_rows, d, s.arrays[3])
    return d


def _take_step_rows(d, step):
    d -= step


def _step_scale_rows(dts, d0, h):
    np.multiply(d0, d0, out=dts)
    dts += h * h
    np.sqrt(dts, out=dts)
    np.divide(d0, dts, out=dts)
    dts *= 0.5 * h


def _slope_rows(d, h, arrays, negative, zero, lo, hi):
    # the sweep's update dt * S(phi0) (|grad d| - 1) of rows lo .. hi - 1,
    # into arrays[3]; it reads rows lo - 1 and hi of d and writes no other
    # slab's rows
    rows = slice(lo, hi)
    dts, bx, by, grad, low = (a[rows] for a in arrays)
    negative, zero = negative[rows], zero[rows]
    # 1-D runs over the rows, for the x-differences
    d_run, bx_run, grad_run = d[rows].reshape(-1), bx.reshape(-1), grad.reshape(-1)
    # backward differences; the first column and row replicate the edge
    np.subtract(d_run[1:], d_run[:-1], out=bx_run[1:])
    bx[:, 0] = 0.0
    divide_by(bx, h)
    top = max(lo, 1)
    np.subtract(d[top:hi], d[top - 1:hi - 1], out=by[top - lo:])
    if lo == 0:
        by[0] = 0.0
    divide_by(by, h)
    # -f: the next pixel's b, negated; 0 past the last column and row
    np.negative(bx_run[1:], out=grad_run[:-1])
    grad[:, -1] = 0.0
    _godunov_term(bx, grad, low, negative)
    np.negative(by[1:], out=bx[:-1])
    if hi == len(d):
        bx[-1] = 0.0
    else:  # the next slab's first b in y, taken again from d
        np.subtract(d[hi], d[hi - 1], out=bx[-1])
        divide_by(bx[-1], h)
        np.negative(bx[-1], out=bx[-1])
    _godunov_term(by, bx, low, negative)
    grad += bx
    np.sqrt(grad, out=grad)
    np.copyto(grad, 0.0, where=zero)
    grad -= 1.0
    grad *= dts


@dataclass
class Contour:
    """Zero-level polylines: each loop is an (n, 2) float array of (x, y)
    subpixel vertices, n >= 2. Every edge crossing of phi is a vertex of
    exactly one loop. Loops traced fully inside the grid are closed (last
    vertex connects back to the first); chains that hit the image border
    are left open.
    """

    loops: list = field(default_factory=list)
    closed: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.loops)

    @property
    def empty(self) -> bool:
        return not self.loops

    def vertices(self) -> np.ndarray:
        """All vertices stacked into one (n, 2) array."""
        if not self.loops:
            return np.empty((0, 2))
        return np.vstack(self.loops)


# marching-squares lookup: cell corners a=(x,y) b=(x+1,y) c=(x+1,y+1) d=(x,y+1);
# bit set when corner is inside (phi >= 0); edge slots 0: a-b (top), 1: b-c (right),
# 2: d-c (bottom), 3: a-d (left). Row `code` holds a cell's segments as slot pairs,
# padded with -1; rows 16 and 17 are the saddles 5 and 10 whose centre is inside.
_SEGMENTS = np.full((18, 2, 2), -1)
for _codes, _pairs in (((1, 14), [(3, 0)]), ((2, 13), [(0, 1)]), ((4, 11), [(1, 2)]),
                       ((8, 7), [(2, 3)]), ((3, 12), [(3, 1)]), ((6, 9), [(0, 2)]),
                       ((5, 17), [(3, 0), (1, 2)]), ((10, 16), [(0, 1), (2, 3)])):
    _SEGMENTS[_codes, :len(_pairs)] = _pairs


def edge_crossings(phi: np.ndarray) -> list:
    """The zero crossings of phi on the grid edges, as (keys, t, crossed) for
    the horizontal and then the vertical edges. The edge from pixel a to its
    right or lower neighbour b is crossed (crossed[a]; never from a row's end)
    when one end is inside (phi >= 0) and the other is not. keys are the
    crossed a, ascending; t = phi_a / (phi_a - phi_b) places the crossing
    from a to b, with both halved first (exact for normal floats) so that the
    difference cannot overflow near the largest float. Halving rounds the
    smallest subnormals to 0, so t is 0 where both halves are.
    """
    flat = phi.ravel()
    inside = flat >= 0.0
    width = phi.shape[1]
    found = []
    for step in (1, width):
        crossed = inside[:-step] != inside[step:]
        if step == 1:
            crossed[width - 1::width] = False
        keys = np.flatnonzero(crossed)
        a = flat[keys] * 0.5
        gap = a - flat[keys + step] * 0.5
        found.append((keys, np.divide(a, gap, out=np.zeros_like(a), where=gap != 0.0), crossed))
    return found


def extract_contour(phi: np.ndarray) -> Contour:
    """Trace the zero level set with marching squares; vertices are the
    edge_crossings of phi, linearly interpolated along cell edges, so phi
    interpolates to zero on them by construction, and each crossing is a
    vertex of exactly one chain. A saddle cell is resolved by the sign of
    the sum of its corners' quarters (their average, which cannot overflow).
    Returns an empty contour when phi has uniform sign.
    """
    h, w = phi.shape

    # the crossings by edge id: the horizontal edge from pixel k has id k,
    # the vertical one h * w + k, so the ids of both kinds ascend together
    (h_keys, h_t, _), (v_keys, v_t, _) = edge_crossings(phi)
    ids = np.concatenate((h_keys, v_keys + h * w))
    points = np.empty((len(ids), 2))
    points[:len(h_keys), 0] = h_keys % w + h_t
    points[:len(h_keys), 1] = h_keys // w
    points[len(h_keys):, 0] = v_keys % w
    points[len(h_keys):, 1] = v_keys // w + v_t

    # the cells whose corners mix signs, in row-major order: code, and k of corner a
    inside = (phi >= 0.0).view(np.uint8)
    cell = inside[:-1, :-1] | inside[:-1, 1:] << 1 | inside[1:, 1:] << 2 | inside[1:, :-1] << 3
    ys, xs = np.nonzero((cell != 0) & (cell != 15))
    code, k = cell[ys, xs], ys * w + xs
    f = phi.ravel()
    centre = 0.25 * f[k] + 0.25 * f[k + 1] + 0.25 * f[k + w + 1] + 0.25 * f[k + w]
    saddle = ((code == 5) | (code == 10)) & (centre >= 0)
    code[saddle] = 16 + (code[saddle] == 10)

    # the segments as crossing pairs, in link order (cell k's edges have ids k,
    # h*w + k + 1, k + w and h*w + k); a segment (a, b) appends b to a's links,
    # then a to b's, and -1 follows a crossing's only neighbour
    slots = _SEGMENTS[code]
    edges = np.array([0, h * w + 1, w, h * w])[slots] + k[:, None, None]
    ends = np.searchsorted(ids, edges[slots[..., 0] >= 0])
    node = ends.ravel()
    first = np.unique(node, return_index=True)[1]  # each crossing's first link
    links = np.full((len(ids), 2), -1)
    links[node, (np.arange(len(node)) != first[node]).astype(np.intp)] = ends[:, ::-1].ravel()

    # an edge belongs to at most two cells and a cell's segments use disjoint edges,
    # so every crossing has one or two neighbours and the graph is paths and cycles.
    # Paths (border hits) start at their degree-1 ends, which are walked first; a
    # chain that starts at degree 2 is a cycle. one and two are each crossing's first
    # and second neighbour; seen[-1] stands for a missing one.
    one, two = links.T.tolist()
    seen = bytearray(len(ids) + 1)
    seen[-1] = 1
    loops, closed = [], []
    for start in np.lexsort((first, links[:, 1] >= 0)).tolist():
        at, chain = start, []
        while not seen[at]:
            seen[at] = 1
            chain.append(at)
            at = two[at] if seen[one[at]] else one[at]
        if chain:
            loops.append(points[chain])
            closed.append(two[start] >= 0)

    return Contour(loops=loops, closed=closed)
