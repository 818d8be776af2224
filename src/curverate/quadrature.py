"""Composite Gauss-Legendre panels and the node-doubling self-check shared by the numeric modules."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import AccuracyError

PANEL_ORDER = 16  # Gauss-Legendre nodes per panel, in every rule the package builds
SELF_CHECK_TOL = 1e-9  # relative agreement the node-doubling self-check demands


@lru_cache(maxsize=32)
def gauss_legendre(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def panel_nodes(lo: float, hi: float, min_nodes: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi].

    Uses ceil(min_nodes / PANEL_ORDER) equal panels of order PANEL_ORDER,
    so the returned rule has at least min_nodes nodes.
    """

    if hi <= lo:
        return np.empty(0), np.empty(0)
    panels = max(1, -(-int(min_nodes) // PANEL_ORDER))
    base_x, base_w = gauss_legendre(PANEL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    xs = (mid + half * base_x[None, :]).ravel()
    ws = (half * np.broadcast_to(base_w, (panels, PANEL_ORDER))).ravel()
    return xs, ws


def _certify(blocks, context: str, label):
    """Node-doubling self-check shared by every certified quantity.

    blocks yields (coarse, fine, mass, cols), one per block of a quantity
    whose last axis runs over columns: coarse and fine are the block's
    values on the rules with the budgeted and with twice the budgeted
    nodes, of shape (..., len(cols)), cols the increasing indices of the
    columns they hold, and mass a scalar or array that broadcasts against
    them. Each block is checked as it comes, so its caller may overwrite
    it once the next is asked for: every entry must agree to
    SELF_CHECK_TOL * max(|coarse|, |fine|, mass), a bound formed only
    where the gap passes the floor SELF_CHECK_TOL * mass, so a NaN gap
    (a non-finite estimate) never certifies. After the last
    block, the failing entry first in the quantity's C order (x-major on
    a window), at index i, raises AccuracyError with both its estimates,
    named by context + label(*i).
    """

    first = None
    for coarse, fine, mass, cols in blocks:
        gap = abs(fine - coarse)
        bad = ~(gap <= SELF_CHECK_TOL * mass)  # so a NaN gap fails
        if bad.any():  # a gap past tol * mass fails unless tol * max(|coarse|, |fine|) covers it
            bad[bad] = ~(gap[bad] <= SELF_CHECK_TOL * np.maximum(abs(coarse[bad]), abs(fine[bad])))
        if bad.any():
            k = np.unravel_index(np.flatnonzero(bad)[0], bad.shape)
            index = tuple(int(i) for i in k[:-1]) + (int(cols[k[-1]]),)
            if first is None or index < first[0]:
                first = index, coarse[k].item(), fine[k].item()
    if first is not None:
        index, coarse, fine = first
        raise AccuracyError("node-doubling self-check failed", coarse, fine, context + label(*index))
