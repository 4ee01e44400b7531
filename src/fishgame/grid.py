"""Uniform vertex-centered grids on intervals and rectangles.

Provides the two core value types (Grid, Field), the discrete differential
operators (Neumann Laplacian via mirrored ghost nodes, nodal gradient) and
trapezoid quadrature.  Everything downstream (elliptic solves, optimizers,
time steppers) is built on the stencils defined here, so the quadrature
weights and the Laplacian must stay consistent: the weighted operator
W @ lap is symmetric, which is what the eigenvalue and energy computations
rely on.

Node layout: vertices including the boundary, spacing h = (hi - lo)/(n - 1).
In 2D the nodes are ordered row-major with axis 0 (x) outermost, so the
flattened index of node (i, j) is i * ny + j.  CSV dumps follow the same
order.
"""

from __future__ import annotations

import io
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "laplacian_apply",
    "gradient",
    "mean",
    "integral",
    "norm_l2",
    "norm_sup",
    "field_to_csv",
    "write_table",
    "grid_rows",
]


@dataclass(frozen=True)
class Grid:
    """Uniform 1D or 2D grid with boundary nodes included.

    lower/upper are per-axis bounds, shape is the node count per axis
    (at least 3 per axis so the interior stencil exists).
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        shape = tuple(int(n) for n in self.shape)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "shape", shape)
        if not (len(lower) == len(upper) == len(shape)):
            raise ValueError("lower, upper and shape must have equal length")
        if len(shape) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if any(n < 3 for n in shape):
            raise ValueError("need at least 3 nodes per axis")
        if any(u <= l for l, u in zip(lower, upper)):
            raise ValueError("upper bound must exceed lower bound on every axis")

    @classmethod
    def interval(cls, lower: float, upper: float, nodes: int) -> "Grid":
        return cls((lower,), (upper,), (nodes,))

    @classmethod
    def rectangle(cls, lower, upper, nodes) -> "Grid":
        return cls(tuple(lower), tuple(upper), tuple(nodes))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (u - l) / (n - 1) for l, u, n in zip(self.lower, self.upper, self.shape)
        )

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def volume(self) -> float:
        return float(np.prod([u - l for l, u in zip(self.lower, self.upper)]))

    def axis(self, k: int) -> np.ndarray:
        """Node coordinates along axis k."""
        return np.linspace(self.lower[k], self.upper[k], self.shape[k])

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays, each shaped like the grid."""
        axes = [self.axis(k) for k in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @property
    def axis_names(self) -> tuple[str, ...]:
        """Coordinate column names of grid tables: ("x",) or ("x", "y")."""
        return ("x", "y")[: self.dim]

    def axis_weights(self, k: int) -> np.ndarray:
        """Trapezoid weights along axis k: h inside, h/2 at both ends."""
        h = self.spacing[k]
        w = np.full(self.shape[k], h)
        w[0] = w[-1] = h / 2
        return w

    def quad_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, shaped like the grid (cached)."""
        return _quad_weights(self)


@lru_cache(maxsize=64)
def _quad_weights(grid: "Grid") -> np.ndarray:
    per_axis = [grid.axis_weights(k) for k in range(grid.dim)]
    out = per_axis[0] if grid.dim == 1 else np.outer(per_axis[0], per_axis[1])
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Field:
    """Nodal scalar function on a grid.  Immutable after construction.

    Values must be finite; any operation producing NaN/Inf is a bug in the
    caller and is rejected here.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            if v.size == self.grid.node_count:
                v = v.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"values shape {v.shape} incompatible with grid {self.grid.shape}"
                )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "Field":
        return cls(grid, fn(*grid.coordinates()))

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Linear interpolation at arbitrary points (n,) in 1D or (n, 2) in 2D."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if self.grid.dim == 1:
            return np.interp(pts.reshape(-1), self.grid.axis(0), self.values)
        pts = pts.reshape(-1, 2)
        x, y = self.grid.axis(0), self.grid.axis(1)
        hx, hy = self.grid.spacing
        i = np.clip(((pts[:, 0] - x[0]) / hx).astype(int), 0, len(x) - 2)
        j = np.clip(((pts[:, 1] - y[0]) / hy).astype(int), 0, len(y) - 2)
        tx = np.clip((pts[:, 0] - x[i]) / hx, 0.0, 1.0)
        ty = np.clip((pts[:, 1] - y[j]) / hy, 0.0, 1.0)
        v = self.values
        out = (
            v[i, j] * (1 - tx) * (1 - ty)
            + v[i + 1, j] * tx * (1 - ty)
            + v[i, j + 1] * (1 - tx) * ty
            + v[i + 1, j + 1] * tx * ty
        )
        return out

    # Small arithmetic surface; all results are new Fields on the same grid.
    def _binary(self, other, op) -> "Field":
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return Field(self.grid, op(self.values, other.values))
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return Field(self.grid, np.subtract(other, self.values))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)


def _mirror_second_diff(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central second difference along one axis with mirrored ghost nodes."""
    pad = [(0, 0)] * v.ndim
    pad[axis] = (1, 1)
    p = np.pad(v, pad, mode="reflect")
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    return (p[tuple(lo)] - 2.0 * v + p[tuple(hi)]) / h**2


def laplacian_apply(f: Field) -> Field:
    """Discrete Neumann Laplacian: second-order central differences with the
    boundary handled by mirrored ghost nodes (symmetric stencil)."""
    out = np.zeros_like(f.values)
    for k in range(f.grid.dim):
        out += _mirror_second_diff(f.values, k, f.grid.spacing[k])
    return Field(f.grid, out)


def gradient(f: Field) -> tuple[Field, ...]:
    """Nodal gradient: central differences interior, one-sided at the boundary."""
    comps = []
    for k in range(f.grid.dim):
        g = np.gradient(f.values, f.grid.spacing[k], axis=k, edge_order=1)
        comps.append(Field(f.grid, g))
    return tuple(comps)


def integral(f: Field) -> float:
    return float(np.sum(f.grid.quad_weights() * f.values))


def mean(f: Field) -> float:
    """Volume-averaged integral (the slashed-integral) via trapezoid quadrature."""
    return integral(f) / f.grid.volume


def norm_l2(f: Field) -> float:
    return float(np.sqrt(np.sum(f.grid.quad_weights() * f.values**2)))


def norm_sup(f: Field) -> float:
    return float(np.max(np.abs(f.values)))


def write_table(path, header, rows) -> None:
    """Write a CSV table: one header line, then one line per row.

    The single cell format of every fishgame CSV: strings are written
    verbatim (labels), everything else as a number with 17 significant
    digits, so floats round-trip exactly and ints and bools print as
    ``24`` and ``1``.  ``path`` is a file path or an open text stream; each
    row is written as it is drawn from ``rows``.
    """
    numeric = ",".join(["%.17g"] * len(header)) + "\n"
    with nullcontext(path) if hasattr(path, "write") else open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            try:
                fh.write(numeric % tuple(row))
            except TypeError:  # a label cell, or a row of another width
                fh.write(",".join([v if isinstance(v, str) else f"{v:.17g}" for v in row]) + "\n")


def grid_rows(grid: Grid, *columns):
    """Rows ``x[, y], *columns`` over the nodes in row-major order (x
    outermost); each column holds one value per node."""
    cols = grid.coordinates() + columns
    return zip(*(c.reshape(-1).tolist() for c in cols))


def field_to_csv(f: Field, path=None) -> str:
    """Dump a field as CSV: header ``x[,y],value``, one node per line in
    row-major order.  Returns the CSV text; writes it to ``path`` when
    given."""
    buf = io.StringIO()
    write_table(buf, f.grid.axis_names + ("value",), grid_rows(f.grid, f.values))
    if path is not None:
        with open(path, "w") as fh:
            fh.write(buf.getvalue())
    return buf.getvalue()
