"""Adaptive 2-D quadrature on rectangles (tensor Simpson with quadtree refinement).

Cells whose Richardson error estimate exceeds their share of the tolerance
budget are split into four children; integrable singularities (log poles,
indicator boundaries) are handled by the depth cap, with the caller
supplying any analytic patch for excluded neighborhoods.

Splitting a cell reuses its 3x3 Simpson nodes: only the 16 new points of
the 5x5 stencil covering its four children are evaluated, so the first
level costs 9 integrand points and every split 16.  Cells still above their
tolerance at `max_depth` are accepted, but if the summed error estimate of
all accepted cells then exceeds `tol`, `QuadratureError` is raised.
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive refinement missed the tolerance or exhausted its cell budget."""


_WX = np.array([1.0, 4.0, 1.0]) / 6.0
_W9 = np.outer(_WX, _WX).ravel()   # tensor Simpson weights on a 3x3 stencil
# A split's 5x5 stencil, flattened with the x index major, is stored as the
# parent's 9 nodes followed by the 16 new ones; _STORED maps a flat 5x5
# position to its column in that store.
_OLD = np.array([0, 2, 4, 10, 12, 14, 20, 22, 24])
_NEW = np.setdiff1d(np.arange(25), _OLD)
_STORED = np.argsort(np.concatenate([_OLD, _NEW]))
# stencil (x, y) offsets of the four children, in child order
_CORNERS = ((0, 0), (2, 0), (0, 2), (2, 2))
# store columns of the children's 3x3 stencils
_CHILD = _STORED[[[5 * (i + a) + j + b for a in range(3) for b in range(3)]
                  for i, j in _CORNERS]]
# A cell is a column (x0, y0, x1, y1); its 5x5 stencil's coordinates are the
# rows (x, y) of 5 points from (x0, y0) to (x1, y1).  The rows of the new
# nodes' x and y, and of the children's (x0, y0, x1, y1):
_NEW_X, _NEW_Y = 2 * (_NEW // 5), 2 * (_NEW % 5) + 1
_BOXES = np.array([[2 * i, 2 * j + 1, 2 * i + 4, 2 * j + 5] for i, j in _CORNERS]).T


def adaptive_quad2d(func, box, tol, max_depth: int = 14, max_cells: int = 2_000_000):
    """Integrate func over box = (x0, x1, y0, y1).

    func maps a complex ndarray of points to real values, vectorized.
    Returns (integral, error_estimate).  Raises ValueError for a box with a
    non-finite corner or without positive area, or a tol that is not a
    positive finite number, before any
    call of func; raises QuadratureError when the cell budget is exhausted,
    or when cells accepted at max_depth leave the summed error estimate
    above tol.
    """
    bx0, bx1, by0, by1 = map(float, box)
    total_area = (bx1 - bx0) * (by1 - by0)
    if not (np.isfinite([bx0, bx1, by0, by1]).all() and total_area > 0):
        raise ValueError(f"box must have finite corners and positive area, got {box}")
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")

    xs = np.array([bx0, 0.5 * (bx0 + bx1), bx1])
    ys = np.array([by0, 0.5 * (by0 + by1), by1])
    pts = xs[:, None] + 1j * ys[None, :]
    vals = np.asarray(func(pts.reshape(-1)), dtype=float).reshape(1, 9)
    cells = np.array([[bx0], [by0], [bx1], [by1]])
    area = (cells[2] - cells[0]) * (cells[3] - cells[1])
    parent = area * (vals @ _W9)

    integral = 0.0
    err_acc = 0.0
    cells_used = 1
    for depth in range(max_depth + 1):
        m = cells.shape[1]
        lo, hi = cells[:2], cells[2:]
        mid = 0.5 * (lo + hi)
        coords = np.concatenate([lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi])
        new_pts = coords.T[:, _NEW_X] + 1j * coords.T[:, _NEW_Y]
        new_vals = np.asarray(func(new_pts.reshape(-1)), dtype=float).reshape(m, 16)
        stencil = np.concatenate([vals, new_vals], axis=1)
        # children are stored child-major: all first children, then all second ...
        child_vals = np.take(stencil, _CHILD, axis=1).transpose(1, 0, 2).reshape(4 * m, 9)
        child_cells = coords[_BOXES].reshape(4, 4 * m)
        child_area = ((child_cells[2] - child_cells[0])
                      * (child_cells[3] - child_cells[1]))
        child = child_area * (child_vals @ _W9)
        refined = child.reshape(4, -1).sum(axis=0)

        err = np.abs(refined - parent) / 15.0
        done = (err <= tol * area / total_area) | (depth == max_depth)

        accepted = refined[done]
        integral += float(np.sum(accepted + (accepted - parent[done]) / 15.0))
        err_acc += float(np.sum(err[done]))

        kept = np.flatnonzero(~done)
        if kept.size == 0:
            break
        sel = (kept + m * np.arange(4)[:, None]).reshape(-1)
        cells = child_cells[:, sel]
        area = child_area[sel]
        parent = child[sel]
        vals = child_vals[sel]
        cells_used += 4 * kept.size
        if cells_used > max_cells:
            raise QuadratureError(
                f"exceeded {max_cells} cells at depth {depth}; tol={tol:g} too tight")
    if err_acc > tol:
        raise QuadratureError(
            f"error estimate {err_acc:.3g} exceeds tol={tol:g} at max_depth={max_depth}")
    return integral, err_acc
