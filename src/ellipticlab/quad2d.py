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
# points of a 5x5 child stencil that are not nodes of the parent's 3x3 stencil
_NEW = np.ones((5, 5), dtype=bool)
_NEW[::2, ::2] = False
# (x, y) stencil offsets of the four children, in child order
_CHILD = ((0, 0), (2, 0), (0, 2), (2, 2))


def _nodes(a, b):
    """Per-cell coordinates [a, (a+b)/2, b]."""
    return np.stack([a, 0.5 * (a + b), b], axis=1)


def _simpson(vals, x0, x1, y0, y1):
    """Tensor Simpson estimates from per-cell 3x3 node values."""
    return (x1 - x0) * (y1 - y0) * (vals.reshape(len(x0), 9) @ _W9)


def adaptive_quad2d(func, box, tol, max_depth: int = 14, max_cells: int = 2_000_000):
    """Integrate func over box = (x0, x1, y0, y1).

    func maps a complex ndarray of points to real values, vectorized.
    Returns (integral, error_estimate).  Raises QuadratureError when the
    cell budget is exhausted, or when cells accepted at max_depth leave the
    summed error estimate above tol.
    """
    bx0, bx1, by0, by1 = map(float, box)
    total_area = (bx1 - bx0) * (by1 - by0)
    if total_area <= 0:
        raise ValueError("box must have positive area")

    x0 = np.array([bx0]); x1 = np.array([bx1])
    y0 = np.array([by0]); y1 = np.array([by1])
    pts = _nodes(x0, x1)[:, :, None] + 1j * _nodes(y0, y1)[:, None, :]
    vals = np.asarray(func(pts.reshape(-1)), dtype=float).reshape(1, 3, 3)
    parent = _simpson(vals, x0, x1, y0, y1)

    integral = 0.0
    err_acc = 0.0
    cells_used = 1
    for depth in range(max_depth + 1):
        xm = 0.5 * (x0 + x1)
        ym = 0.5 * (y0 + y1)
        xs = np.concatenate([_nodes(x0, xm), _nodes(xm, x1)[:, 1:]], axis=1)
        ys = np.concatenate([_nodes(y0, ym), _nodes(ym, y1)[:, 1:]], axis=1)
        stencil = np.empty((len(x0), 5, 5))
        stencil[:, ::2, ::2] = vals
        new_pts = (xs[:, :, None] + 1j * ys[:, None, :])[:, _NEW]
        stencil[:, _NEW] = np.asarray(func(new_pts.reshape(-1)),
                                      dtype=float).reshape(len(x0), 16)
        child_vals = np.concatenate([stencil[:, i:i + 3, j:j + 3] for i, j in _CHILD])
        cx0 = np.concatenate([x0, xm, x0, xm])
        cx1 = np.concatenate([xm, x1, xm, x1])
        cy0 = np.concatenate([y0, y0, ym, ym])
        cy1 = np.concatenate([ym, ym, y1, y1])
        child = _simpson(child_vals, cx0, cx1, cy0, cy1)
        refined = child.reshape(4, -1).sum(axis=0)

        err = np.abs(refined - parent) / 15.0
        cell_tol = tol * ((x1 - x0) * (y1 - y0)) / total_area
        done = (err <= cell_tol) | (depth == max_depth)

        integral += float(np.sum(refined[done] + (refined[done] - parent[done]) / 15.0))
        err_acc += float(np.sum(err[done]))

        keep = ~done
        if not keep.any():
            break
        mask4 = np.tile(keep, 4)
        x0, x1 = cx0[mask4], cx1[mask4]
        y0, y1 = cy0[mask4], cy1[mask4]
        parent = child[mask4]
        vals = child_vals[mask4]
        cells_used += int(keep.sum()) * 4
        if cells_used > max_cells:
            raise QuadratureError(
                f"exceeded {max_cells} cells at depth {depth}; tol={tol:g} too tight")
    if err_acc > tol:
        raise QuadratureError(
            f"error estimate {err_acc:.3g} exceeds tol={tol:g} at max_depth={max_depth}")
    return integral, err_acc
