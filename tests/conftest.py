import numpy as np
import pytest

from holosphere import Domain, build_alpha_chain
from holosphere.geometry import SurfaceEvaluator


@pytest.fixture(scope="session")
def chain_n1():
    return build_alpha_chain(["1"])


@pytest.fixture(scope="session")
def chain_n2():
    return build_alpha_chain(["1", "1"])


@pytest.fixture(scope="session")
def chain_n3():
    return build_alpha_chain(["1", "1", "1"])


@pytest.fixture(scope="session")
def surface_n1(chain_n1):
    return SurfaceEvaluator.from_chain(chain_n1)


@pytest.fixture(scope="session")
def surface_n2(chain_n2):
    return SurfaceEvaluator.from_chain(chain_n2)


@pytest.fixture(scope="session")
def small_sphere_surface():
    """A round but non-great 2-sphere inside S^4: minimal it is not.

    Image of z -> (c, N(z), 0) / sqrt(1 + c^2) with N the inverse
    stereographic projection; its mean curvature residual is c/4.
    """
    c = 0.5

    def func(zs):
        out = np.empty((zs.size, 5))
        D = 1 + np.abs(zs) ** 2
        out[:, 0] = c
        out[:, 1] = 2 * zs.real / D
        out[:, 2] = 2 * zs.imag / D
        out[:, 3] = (np.abs(zs) ** 2 - 1) / D
        out[:, 4] = 0.0
        return out / np.sqrt(1 + c * c)

    return SurfaceEvaluator(
        func=func, domain=Domain.rectangle(-1 - 1j, 1 + 1j), dim=5, n=2
    )


def oracle_surface_n1(phi, dphi):
    """Closed form for the n=1 surface, derived independently by expanding
    the orthogonalization of (1 - p^2, i(1 + p^2), 2p) by hand:

        F_2 = -(2 p' / (1+|p|^2)) * (2 Re p, 2 Im p, |p|^2 - 1),

    so the normalized real part is -sign(Re p') times the inverse
    stereographic image of p.
    """
    D = 1 + abs(phi) ** 2
    sign = 1.0 if dphi.real > 0 else -1.0
    return -sign * np.array([2 * phi.real, 2 * phi.imag, abs(phi) ** 2 - 1]) / D


# gamma(x, y) of the Kaehler map with its partials (gamma, gamma_x,
# gamma_y), written out by hand
GAMMA_ORACLES = {
    "1+x^2+y^2": lambda x, y: (1 + x**2 + y**2, 2 * x, 2 * y),
    "2+x-0.5*y^2": lambda x, y: (2 + x - 0.5 * y**2, np.ones_like(x), -y),
    "exp(x)*cos(y)+1": lambda x, y: (np.exp(x) * np.cos(y) + 1,
                                     np.exp(x) * np.cos(y), -np.exp(x) * np.sin(y)),
    "(1+x)^3/(2+y)": lambda x, y: ((1 + x) ** 3 / (2 + y), 3 * (1 + x) ** 2 / (2 + y),
                                   -(1 + x) ** 3 / (2 + y) ** 2),
    "sin(x*y)-x^5/(3+y^2)": lambda x, y: (
        np.sin(x * y) - x**5 / (3 + y**2),
        y * np.cos(x * y) - 5 * x**4 / (3 + y**2),
        x * np.cos(x * y) + 2 * y * x**5 / (3 + y**2) ** 2),
}
