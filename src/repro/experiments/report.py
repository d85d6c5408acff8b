"""Plain-text rendering of experiment series and banners.

Every experiment module returns plain data (lists of row dicts or
series); tables print with :func:`repro.cli.render_table` and these
helpers print the rest, in the shape the paper's figure captions
report, so ``pytest benchmarks/ --benchmark-only`` output can be
compared against the paper side by side.
"""

from __future__ import annotations

from typing import Iterable

from ..cli import _format_cell

__all__ = ["render_series", "banner"]


def render_series(
    name: str, xs: Iterable[float], ys: Iterable[float], max_points: int = 12
) -> str:
    """Render an (x, y) series, downsampled to ``max_points`` rows."""
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    n = len(xs)
    if n == 0:
        return f"{name}: (empty)"
    stride = max(1, n // max_points)
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    pts = ", ".join(
        f"({_format_cell(xs[i])}, {_format_cell(ys[i])})" for i in idx
    )
    return f"{name} [{n} pts]: {pts}"


def banner(text: str) -> str:
    bar = "=" * max(len(text), 8)
    return f"{bar}\n{text}\n{bar}"
