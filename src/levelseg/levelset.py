"""Level-set function construction and maintenance.

Sign convention used throughout the package: phi >= 0 is *inside* the
contour. Initializers build signed-distance fields for circles, circle
grids, and rectangles; ``reinitialize`` restores |grad phi| ~ 1 without
moving the zero level; ``extract_contour`` traces the zero level as
subpixel polylines via marching squares.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .grid import ScalarField, Scratch, divide_by

BORDER_MARGIN = 2.0  # init shapes must keep this many pixels of clearance


@dataclass(frozen=True)
class InitShape:
    """Initial-contour geometry: a circle, a grid of circles, or a rectangle.

    Coordinates are pixel units, x along columns and y along rows.
    """

    kind: str
    centers: tuple = ()          # circle / grid: ((cx, cy), ...)
    radius: float = 0.0          # circle / grid
    corners: tuple = ()          # rect: (x0, y0, x1, y1)

    @classmethod
    def circle(cls, cx: float, cy: float, radius: float) -> "InitShape":
        return cls(kind="circle", centers=((float(cx), float(cy)),), radius=float(radius))

    @classmethod
    def circle_grid(cls, nx: int, ny: int, radius: float, width: int, height: int) -> "InitShape":
        """nx * ny circles evenly spread over a width x height grid."""
        if nx < 1 or ny < 1:
            raise ValueError(f"grid counts must be >= 1, got {nx}x{ny}")
        centers = tuple(
            ((i + 0.5) * width / nx, (j + 0.5) * height / ny)
            for j in range(ny)
            for i in range(nx)
        )
        return cls(kind="grid", centers=centers, radius=float(radius))

    @classmethod
    def rectangle(cls, x0: float, y0: float, x1: float, y1: float) -> "InitShape":
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"rectangle corners must satisfy x1 > x0, y1 > y0: {(x0, y0, x1, y1)}")
        return cls(kind="rect", corners=(float(x0), float(y0), float(x1), float(y1)))

    def validate(self, width: int, height: int) -> None:
        """Shapes must fit strictly inside the grid with a 2-pixel margin."""
        lo_x, lo_y = BORDER_MARGIN, BORDER_MARGIN
        hi_x, hi_y = width - 1 - BORDER_MARGIN, height - 1 - BORDER_MARGIN
        if self.kind in ("circle", "grid"):
            if not (self.radius > 0):
                raise ValueError(f"radius must be positive, got {self.radius}")
            for cx, cy in self.centers:
                if (cx - self.radius < lo_x or cx + self.radius > hi_x
                        or cy - self.radius < lo_y or cy + self.radius > hi_y):
                    raise ValueError(
                        f"circle at ({cx:.1f}, {cy:.1f}) r={self.radius:.1f} does not fit a "
                        f"{width}x{height} grid with a {BORDER_MARGIN:.0f}px margin"
                    )
        elif self.kind == "rect":
            x0, y0, x1, y1 = self.corners
            if x0 < lo_x or y0 < lo_y or x1 > hi_x or y1 > hi_y:
                raise ValueError(
                    f"rectangle {self.corners} does not fit a {width}x{height} grid "
                    f"with a {BORDER_MARGIN:.0f}px margin"
                )
        else:
            raise ValueError(f"unknown init shape kind: {self.kind!r}")


def default_seed_grid(width: int, height: int) -> InitShape:
    """The default initializer: a 4x4 grid of circles of radius min(w, h)/10.

    Multiple seeds let the region models latch onto disconnected structures;
    a single shrinking contour easily misses them. The outer circles sit
    min(w, h)/8 from the edges and the last pixel is at w - 1, so below
    120 px the radius shrinks to keep the BORDER_MARGIN that signed_distance
    checks; below 24 px no radius fits.
    """
    n = min(width, height)
    radius = min(n / 10.0, n / 8.0 - (BORDER_MARGIN + 1.0))
    return InitShape.circle_grid(4, 4, radius, width, height)


def signed_distance(shape: InitShape, width: int, height: int) -> ScalarField:
    """Signed distance to the shape boundary: positive inside, negative
    outside, |grad| = 1 away from the medial axis. Circle grids take the
    pointwise max over the per-circle distances.
    """
    shape.validate(width, height)
    x, y = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    if shape.kind in ("circle", "grid"):
        phi = np.full((height, width), -np.inf)
        for cx, cy in shape.centers:
            np.maximum(phi, shape.radius - np.hypot(x - cx, y - cy), out=phi)
    else:
        x0, y0, x1, y1 = shape.corners
        # distance outside the box, and distance to the nearest side inside
        dx_out = np.maximum(np.maximum(x0 - x, x - x1), 0.0)
        dy_out = np.maximum(np.maximum(y0 - y, y - y1), 0.0)
        outside = np.hypot(dx_out, dy_out)
        inside = np.minimum(np.minimum(x - x0, x1 - x), np.minimum(y - y0, y1 - y))
        phi = np.where(outside > 0, -outside, inside)
    return ScalarField(phi)


def mask_inside(phi: ScalarField) -> np.ndarray:
    """Boolean mask of the inside region {phi >= 0}."""
    return phi.data >= 0.0


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


def reinitialize(phi: ScalarField, iterations: int = 10, *,
                 scratch: Scratch | None = None) -> ScalarField:
    """Relax phi toward a signed distance function without moving the zero
    level: iterate d_t = S(phi0) (1 - |grad d|) with Godunov upwind
    differences and the smoothed sign S = phi0 / sqrt(phi0^2 + h^2).

    The sweeps work in ``scratch`` (a fresh set when None) and return a new
    field. The forward difference f of a pixel is the backward difference b
    of the next one (0 past the last), so only b is stored, and the Godunov
    term max(max(b, 0)^2, min(f, 0)^2) is taken as max(b, -f, 0)^2 (inside;
    min(b, -f, 0)^2 outside), which is exact for squares of non-negative
    numbers. b in x and the -f shift are each one pass over the flattened
    rows, which also crosses from each row's end to the next row's start;
    the first column of b and the last of -f are then set to 0.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    h = phi.spacing
    d0 = phi.data
    dts, bx, by, grad, low = Scratch.ensure(scratch, d0.shape).arrays
    negative = d0 < 0
    zero = d0 == 0
    # dt * S(phi0) with dt = h / 2, once per call
    np.multiply(d0, d0, out=dts)
    dts += h * h
    np.sqrt(dts, out=dts)
    np.divide(d0, dts, out=dts)
    dts *= 0.5 * h
    d = d0.copy()
    # 1-D views of the rows, for the x-differences
    d_run, bx_run, grad_run = d.reshape(-1), bx.reshape(-1), grad.reshape(-1)
    for _ in range(iterations):
        # backward differences; the first column and row replicate the edge
        np.subtract(d_run[1:], d_run[:-1], out=bx_run[1:])
        bx[:, 0] = 0.0
        divide_by(bx, h)
        np.subtract(d[1:], d[:-1], out=by[1:])
        by[0] = 0.0
        divide_by(by, h)
        # -f: the next pixel's b, negated; 0 past the last column and row
        np.negative(bx_run[1:], out=grad_run[:-1])
        grad[:, -1] = 0.0
        _godunov_term(bx, grad, low, negative)
        np.negative(by[1:], out=bx[:-1])
        bx[-1] = 0.0
        _godunov_term(by, bx, low, negative)
        grad += bx
        np.sqrt(grad, out=grad)
        np.copyto(grad, 0.0, where=zero)
        grad -= 1.0
        grad *= dts
        d -= grad
    return phi.like(d)


@dataclass
class Contour:
    """Zero-level polylines: each loop is an (n, 2) float array of (x, y)
    subpixel vertices. Loops traced fully inside the grid are closed
    (last vertex connects back to the first); chains that hit the image
    border are left open.
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


# marching-squares lookup: cell corners a=(x,y) b=(x+1,y) c=(x+1,y+1)
# d=(x,y+1); bit set when corner is inside (phi >= 0); edges are
# 0: a-b (top), 1: b-c (right), 2: d-c (bottom), 3: a-d (left).
_SEGMENTS = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
}


def _edge_key(edge: int, x: int, y: int):
    # canonical (orientation, x, y) id of a cell edge in grid coordinates
    if edge == 0:
        return ("h", x, y)
    if edge == 1:
        return ("v", x + 1, y)
    if edge == 2:
        return ("h", x, y + 1)
    return ("v", x, y)


def extract_contour(phi: ScalarField) -> Contour:
    """Trace the zero level set with marching squares; vertices are linearly
    interpolated along cell edges, so phi interpolates to zero on them by
    construction. Returns an empty contour when phi has uniform sign.
    """
    d = phi.data
    h, w = d.shape
    inside = d >= 0.0
    if inside.all() or not inside.any():
        return Contour()

    def crossing(key):
        # subpixel crossing point on a sign-change edge; a and b are halved
        # (exact for normal floats) so that a - b cannot overflow where
        # |phi| nears the largest float
        kind, x, y = key
        a = 0.5 * d[y, x]
        b = 0.5 * (d[y, x + 1] if kind == "h" else d[y + 1, x])
        t = a / (a - b)
        return (x + t, y) if kind == "h" else (x, y + t)

    # cells whose four corners mix signs
    cell = (
        inside[:-1, :-1].astype(np.uint8)
        | inside[:-1, 1:].astype(np.uint8) << 1
        | inside[1:, 1:].astype(np.uint8) << 2
        | inside[1:, :-1].astype(np.uint8) << 3
    )
    ys, xs = np.nonzero((cell != 0) & (cell != 15))

    # adjacency between edge crossings: every segment links two edges
    links: dict = {}

    def link(k1, k2):
        links.setdefault(k1, []).append(k2)
        links.setdefault(k2, []).append(k1)

    for y, x in zip(ys.tolist(), xs.tolist()):
        case = int(cell[y, x])
        if case in (5, 10):
            # saddle: resolve with the cell-center average
            center = 0.25 * (d[y, x] + d[y, x + 1] + d[y + 1, x + 1] + d[y + 1, x])
            if case == 5:
                pairs = [(0, 1), (2, 3)] if center >= 0 else [(3, 0), (1, 2)]
            else:
                pairs = [(3, 0), (1, 2)] if center >= 0 else [(0, 1), (2, 3)]
        else:
            pairs = _SEGMENTS[case]
        for e1, e2 in pairs:
            link(_edge_key(e1, x, y), _edge_key(e2, x, y))

    # an edge belongs to at most two cells and a cell's segments use disjoint
    # edges, so every crossing has at most two neighbours and the graph is
    # paths and cycles. Paths (border hits) start at their degree-1 ends,
    # which are walked first; a chain that starts at degree 2 is a cycle.
    seen = set()
    loops, closed = [], []
    for start in sorted(links, key=lambda k: len(links[k])):
        if start in seen:
            continue
        seen.add(start)
        chain = [start]
        while nexts := [k for k in links[chain[-1]] if k not in seen]:
            seen.add(nexts[0])
            chain.append(nexts[0])
        if len(chain) >= 3:
            loops.append(np.array([crossing(k) for k in chain], dtype=np.float64))
            closed.append(len(links[start]) == 2)

    return Contour(loops=loops, closed=closed)


def contour_csv(contour: Contour) -> str:
    """CSV serialization: loop_id, vertex_id, x, y with 4 decimal places."""
    out = io.StringIO()
    out.write("loop_id,vertex_id,x,y\n")
    for li, pts in enumerate(contour.loops):
        for vi, (x, y) in enumerate(pts):
            out.write(f"{li},{vi},{x:.4f},{y:.4f}\n")
    return out.getvalue()
