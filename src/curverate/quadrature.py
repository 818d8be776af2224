"""Composite Gauss-Legendre panel machinery shared by the numeric modules."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PANEL_ORDER = 16  # Gauss-Legendre nodes per panel, in every rule the package builds


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
