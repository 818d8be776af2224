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


def _certify(run, context: str, label):
    """Node-doubling self-check shared by every certified quantity.

    run(doubling) returns (values, mass) on the rules with doubling times
    the budgeted nodes; values is an array and mass a scalar or an array
    that broadcasts against it (one entry per column of a window). Returns the run(2) values once every entry agrees
    with run(1) to SELF_CHECK_TOL * max(|coarse|, |fine|, mass), formed
    only where the gap passes the floor SELF_CHECK_TOL * mass. Otherwise
    it raises AccuracyError with both estimates of the first failing
    entry, named by context + label(k), k its index in the flattened
    values.
    """

    coarse, _ = run(1)
    fine, mass = run(2)
    gap = abs(fine - coarse)
    bad = gap > SELF_CHECK_TOL * mass
    if bad.any():  # a gap past tol * mass fails unless tol * max(|coarse|, |fine|) covers it
        bad[bad] = gap[bad] > SELF_CHECK_TOL * np.maximum(abs(coarse[bad]), abs(fine[bad]))
    if not bad.any():
        return fine
    k = int(np.flatnonzero(bad)[0])
    coarse, fine = np.ravel(coarse)[k].item(), np.ravel(fine)[k].item()
    raise AccuracyError("node-doubling self-check failed", coarse, fine, context + label(k))
