import numpy as np
import pytest

from holosphere.domain import Domain
from holosphere.errors import DomainError


class TestValidation:
    def test_base_point_must_be_interior(self):
        with pytest.raises(DomainError):
            Domain.rectangle(-1 - 1j, 1 + 1j, base_point=2 + 0j)
        with pytest.raises(DomainError):
            Domain.disk(0j, 1.0, base_point=1.5j)

    def test_degenerate_rectangle(self):
        with pytest.raises(DomainError):
            Domain.rectangle(0j, 2j)

    def test_nonpositive_radius(self):
        with pytest.raises(DomainError):
            Domain.disk(0j, 0.0)

    def test_corner_order_irrelevant(self):
        d = Domain.rectangle(1 + 1j, -1 - 1j)
        assert d.bounds == (-1.0, 1.0, -1.0, 1.0)
        assert d.contains(0.5 - 0.5j)


class TestContains:
    def test_rectangle_membership(self):
        d = Domain.rectangle(-1 - 1j, 1 + 1j)
        assert d.contains(1 + 1j)
        assert not d.contains(1.01 + 0j)
        assert not d.contains(0.5, margin=0.6)

    def test_disk_membership_array(self):
        d = Domain.disk(0j, 1.0)
        zs = np.array([0j, 0.99, 1.2 + 0j, 1j])
        assert list(d.contains(zs)) == [True, True, False, True]


class TestGrids:
    def test_row_major_layout(self):
        d = Domain.rectangle(-1 - 1j, 1 + 1j)
        zs, inside = d.grid(3, 5)
        assert zs.shape == (3, 5)
        assert zs[0, 0] == -1 - 1j
        assert zs[0, 4] == 1 - 1j       # columns sweep the real axis
        assert zs[2, 0] == -1 + 1j      # rows sweep the imaginary axis
        assert inside.all()

    def test_disk_grid_masks_corners(self):
        d = Domain.disk(0j, 1.0)
        zs, inside = d.grid(9, 9)
        assert not inside[0, 0]
        assert inside[4, 4]

    def test_too_small(self):
        d = Domain.rectangle(-1 - 1j, 1 + 1j)
        with pytest.raises(DomainError):
            d.grid(1, 1)

    def test_margin_grid_keeps_clearance(self):
        d = Domain.rectangle(-1 - 1j, 1 + 1j)
        zs, inside = d.grid(4, 4, margin=0.25)
        assert inside.all()
        assert zs.real.min() == -0.75 and zs.real.max() == 0.75
