"""Convex planar domains.

A domain is a convex subset of the plane (axis-aligned rectangle or disk)
together with a base point in its interior.  The base point anchors the
integration constants: every antiderivative of the chain (and of
`expr.Antiderivative`) takes its given constant there.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Domain:
    """Rectangle or disk with a distinguished interior base point.

    Rectangles are given by two opposite corners (any order), disks by
    center and radius.  Exactly one of `corners` / `(center, radius)` must
    be supplied.
    """

    shape: str  # "rectangle" | "disk"
    base_point: complex = 0j
    corners: tuple = None  # (corner0, corner1) for rectangles
    center: complex = None
    radius: float = None

    def __post_init__(self):
        if self.shape == "rectangle":
            if self.corners is None or len(self.corners) != 2:
                raise DomainError("rectangle domain needs two opposite corners")
            a, b = (complex(c) for c in self.corners)
            if a.real == b.real or a.imag == b.imag:
                raise DomainError("rectangle corners must span a 2D region")
        elif self.shape == "disk":
            if self.center is None or self.radius is None:
                raise DomainError("disk domain needs center and radius")
            if not self.radius > 0:
                raise DomainError("disk radius must be positive")
        else:
            raise DomainError(f"unknown domain shape {self.shape!r}")
        if not self.contains(self.base_point, margin=1e-12 * self.diameter):
            raise DomainError(
                f"base point {self.base_point} is not interior to the domain"
            )

    @classmethod
    def rectangle(cls, corner0, corner1, base_point=None):
        a, b = complex(corner0), complex(corner1)
        if base_point is None:
            base_point = (a + b) / 2
        return cls(shape="rectangle", base_point=complex(base_point), corners=(a, b))

    @classmethod
    def disk(cls, center, radius, base_point=None):
        if base_point is None:
            base_point = complex(center)
        return cls(
            shape="disk",
            base_point=complex(base_point),
            center=complex(center),
            radius=float(radius),
        )

    @property
    def bounds(self):
        """(x0, x1, y0, y1) of the bounding rectangle, sorted."""
        if self.shape == "rectangle":
            a, b = self.corners
            return (
                min(a.real, b.real),
                max(a.real, b.real),
                min(a.imag, b.imag),
                max(a.imag, b.imag),
            )
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    @property
    def diameter(self):
        if self.shape == "rectangle":
            a, b = self.corners
            return abs(b - a)
        return 2.0 * self.radius

    def contains(self, z, margin=0.0):
        """Whether z lies in the (closed) domain shrunk inward by `margin`.

        Accepts scalars or arrays; returns bool or boolean array.
        """
        z = np.asarray(z)
        x0, x1, y0, y1 = self.bounds
        if self.shape == "rectangle":
            ok = (
                (z.real >= x0 + margin)
                & (z.real <= x1 - margin)
                & (z.imag >= y0 + margin)
                & (z.imag <= y1 - margin)
            )
        else:
            ok = np.abs(z - self.center) <= self.radius - margin
        return bool(ok) if ok.ndim == 0 else ok

    def grid(self, rows, cols, margin=0.0):
        """Row-major sample grid over the bounding rectangle, shrunk by
        `margin` on every side.

        Returns (zs, inside) where zs has shape (rows, cols), row index
        sweeping the imaginary axis bottom-to-top, column index the real
        axis left-to-right, and inside marks points of the domain shrunk
        by `margin` (room for finite-difference stencils; always all-true
        for rectangles).
        """
        if rows < 2 or cols < 2:
            raise DomainError("grid too small: need at least 2x2")
        x0, x1, y0, y1 = self.bounds
        if x1 - x0 <= 2 * margin or y1 - y0 <= 2 * margin:
            raise DomainError("margin leaves no interior region")
        xs = np.linspace(x0 + margin, x1 - margin, cols)
        ys = np.linspace(y0 + margin, y1 - margin, rows)
        zs = xs[None, :] + 1j * ys[:, None]
        return zs, self.contains(zs, margin=margin)
