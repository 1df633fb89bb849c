"""Minimal hand-emitted SVG figures: the measured (K, E) ribbon with the
conventional and fitted recoil parabolas overlaid.  No plotting dependency.

The ribbon draws one mark per occupied pixel, not one per point: a bank of
detectors puts tens of thousands of points into a few thousand pixels, and
the pixel's one circle carries the opacity its points' circles would
composite to."""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .kinematics import recoil_energy

WIDTH, HEIGHT = 640, 480
MARGIN = 56
RIBBON_CIRCLE = ('<circle cx="{:.2f}" cy="{:.2f}" r="2.4" fill="steelblue" '
                 'fill-opacity="{:.3f}"/>')


class _Axes:
    def __init__(self, k_range, e_range):
        self.k0, self.k1 = k_range
        self.e0, self.e1 = e_range

    def x(self, k):
        return MARGIN + (k - self.k0) / (self.k1 - self.k0) * (WIDTH - 2 * MARGIN)

    def y(self, e):
        return HEIGHT - MARGIN - (e - self.e0) / (self.e1 - self.e0) * (HEIGHT - 2 * MARGIN)


def _parabola_path(ax, mass, e_rot=0.0, n=120):
    ks = np.linspace(max(ax.k0, 1e-6), ax.k1, n)
    pts = []
    for k, e in zip(ks, e_rot + recoil_energy(ks, mass)):
        if ax.e0 <= e <= ax.e1:
            pts.append(f"{ax.x(k):.2f},{ax.y(e):.2f}")
    return " ".join(pts)


def _ticks(lo, hi, n=6):
    step = (hi - lo) / (n - 1)
    mag = 10 ** math.floor(math.log10(step)) if step > 0 else 1.0
    step = round(step / mag) * mag or mag
    start = math.ceil(lo / step) * step
    vals = []
    v = start
    while v <= hi + 1e-12:
        vals.append(v)
        v += step
    return vals


def _rows_of_three(points):
    """points, an (n, 3) array or a sequence of n triples, as an (n, 3) float
    array; ValueError for anything else.  Triples go through np.fromiter,
    10 ms on bank_io's 98304 triples with the row check, where np.asarray,
    which converts them scalar by scalar, took 18 ms."""
    if isinstance(points, np.ndarray):
        if points.ndim == 2 and points.shape[1] == 3:
            return points.astype(float, copy=False)
    else:
        try:
            lengths = set(map(len, points))
        except TypeError:   # a row without a length
            lengths = {None}
        if lengths <= {3}:
            return np.fromiter(chain.from_iterable(points), float,
                               3 * len(points)).reshape(-1, 3)
    raise ValueError("points must be (K, E, intensity) rows of 3 values")


def _ribbon(points):
    """Axes fitted to the finite (K, E, intensity) rows, and one circle per
    pixel that a shown point falls in.

    A point is shown, with opacity a = intensity / max, where a > 0.  Its own
    circles would stack in a pixel to the opacity 1 - prod(1 - a_i), so the
    pixel's one circle, at its centre, takes that, the product running in
    the points' order.  Circles go in pixel order, row by row.  The arrays
    die on return, before the caller joins the document.
    """
    pts = _rows_of_three(points)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        pts = pts[finite]
    if not len(pts):
        raise ValueError("no finite points to plot")
    ks, es, inten = pts.T
    imax = inten.max() or 1.0
    kpad = 0.05 * (ks.max() - ks.min() or 1.0)
    epad = 0.05 * (es.max() - es.min() or 1.0)
    ax = _Axes((ks.min() - kpad, ks.max() + kpad), (es.min() - epad, es.max() + epad))
    a = inten / imax
    np.minimum(a, 1.0, out=a)
    shown = a > 0
    pixel = (np.floor(ax.y(es[shown])).astype(np.intp) * WIDTH
             + np.floor(ax.x(ks[shown])).astype(np.intp))
    order = np.argsort(pixel, kind="stable")
    pixel = pixel[order]
    starts = np.flatnonzero(np.diff(pixel, prepend=-1))
    opacity = 1.0 - np.multiply.reduceat(1.0 - a[shown][order], starts)
    row, col = np.divmod(pixel[starts], WIDTH)
    return ax, list(map(RIBBON_CIRCLE.format, (col + 0.5).tolist(),
                        (row + 0.5).tolist(), opacity.tolist()))


def ribbon_svg(points, m_conventional=None, m_fitted=None, e_rot_fitted=0.0,
               centroids=None, title="S(K,E) ribbon"):
    """SVG document for (K, E, intensity) scatter data with parabola overlays.

    points: (K, E, intensity) rows, as an (n, 3) array or a sequence of
    triples (ValueError otherwise); rows with a non-finite value are not
    drawn.  centroids: optional (K, E) pairs drawn as filled circles.
    """
    ax, circles = _ribbon(points)
    el = ['<?xml version="1.0" encoding="UTF-8"?>',
          f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
          f'viewBox="0 0 {WIDTH} {HEIGHT}">',
          f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
          f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
          f'font-family="sans-serif" font-size="15">{title}</text>']
    # axes frame and ticks
    el.append(f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
              f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>')
    for kv in _ticks(ax.k0, ax.k1):
        x = ax.x(kv)
        el.append(f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN}" x2="{x:.1f}" '
                  f'y2="{HEIGHT - MARGIN + 5}" stroke="black"/>')
        el.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="11">{kv:.3g}</text>')
    for ev in _ticks(ax.e0, ax.e1):
        y = ax.y(ev)
        el.append(f'<line x1="{MARGIN - 5}" y1="{y:.1f}" x2="{MARGIN}" '
                  f'y2="{y:.1f}" stroke="black"/>')
        el.append(f'<text x="{MARGIN - 8}" y="{y + 4:.1f}" text-anchor="end" '
                  f'font-family="sans-serif" font-size="11">{ev:.3g}</text>')
    el.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
              f'font-family="sans-serif" font-size="13">K (1/&#8491;)</text>')
    el.append(f'<text x="16" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
              f'font-family="sans-serif" font-size="13" '
              f'transform="rotate(-90 16 {HEIGHT / 2:.0f})">E (meV)</text>')
    el.extend(circles)   # intensity ribbon
    if m_conventional:
        el.append(f'<polyline points="{_parabola_path(ax, m_conventional)}" '
                  'fill="none" stroke="crimson" stroke-width="1.6" '
                  'stroke-dasharray="6 4"/>')
        el.append(f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 16}" text-anchor="end" '
                  f'font-family="sans-serif" font-size="12" fill="crimson">'
                  f'conventional M = {m_conventional:.4g}</text>')
    if m_fitted:
        el.append(f'<polyline points="{_parabola_path(ax, m_fitted, e_rot_fitted)}" '
                  'fill="none" stroke="crimson" stroke-width="1.8"/>')
        el.append(f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 32}" text-anchor="end" '
                  f'font-family="sans-serif" font-size="12" fill="crimson">'
                  f'fitted M = {m_fitted:.4g}</text>')
    if centroids:
        for k, e in centroids:
            el.append(f'<circle cx="{ax.x(k):.2f}" cy="{ax.y(e):.2f}" r="3.5" '
                      'fill="none" stroke="black" stroke-width="1.2"/>')
    el.append("</svg>")
    return "\n".join(el) + "\n"
