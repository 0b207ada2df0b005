"""Minimal SVG emitter: raw and smoothed series as exactly two polylines."""
from __future__ import annotations

from .series import Series

_PAD = 10.0


def _points(series: Series, t0, t1, v0, v1, width, height) -> str:
    t_span = (t1 - t0) or 1
    v_span = (v1 - v0) or 1.0
    xs = _PAD + (series.timestamps - t0) / t_span * (width - 2 * _PAD)
    ys = height - _PAD - (series.values - v0) / v_span * (height - 2 * _PAD)
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def render_overlay(raw: Series, smoothed: Series, width: int) -> str:
    """SVG document width wide and half as tall (at least 120) with the raw
    polyline drawn thin underneath the smoothed polyline."""
    if width < 2:
        raise ValueError("width must be >= 2")
    height = max(120, width // 2)
    # float64 spans: an int64 t1 - t0 overflows once timestamps span 2**63 ms,
    # and every timestamp below 2**53 converts exactly.
    t0 = float(min(raw.timestamps.min(), smoothed.timestamps.min()))
    t1 = float(max(raw.timestamps.max(), smoothed.timestamps.max()))
    v0 = float(min(raw.values.min(), smoothed.values.min()))
    v1 = float(max(raw.values.max(), smoothed.values.max()))
    raw_pts = _points(raw, t0, t1, v0, v1, width, height)
    smooth_pts = _points(smoothed, t0, t1, v0, v1, width, height)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'  <polyline fill="none" stroke="#b8bfc9" stroke-width="1" points="{raw_pts}"/>\n'
        f'  <polyline fill="none" stroke="#1f5fbf" stroke-width="2" points="{smooth_pts}"/>\n'
        "</svg>\n"
    )
