import numpy as np
import pytest

import ovalbound as ob


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def circle_state():
    curve = ob.FourierCurve()
    solution = ob.ground_state(curve, n_modes=64, check_convergence=False)
    return curve, solution


@pytest.fixture(scope="session")
def mixed_state():
    """Curve with both parities present; non-constant energy projection."""
    curve = ob.FourierCurve(a={2: 0.1}, b={3: 0.1})
    solution = ob.ground_state(curve, n_modes=160, check_convergence=False)
    data = ob.build_projection(curve, solution.psi)
    return curve, solution, data


@pytest.fixture(scope="session")
def designed_projection():
    """Test function concentrated on the long arc cut by one projection, so
    that the projection quotient dips below one somewhere: min I < 1 < max I."""
    curve = ob.FourierCurve(a={3: 0.3})
    t = 2.0 * np.pi * np.arange(4096) / 4096
    t0 = np.pi / 6.0
    s2 = float(curve.phi_inv(t0 + np.pi)) % (2.0 * np.pi)
    arc = np.pi + 2.0 * 0.3 * np.sin(3.0 * t0)
    u = (curve.phi_inv(t) - s2) % (2.0 * np.pi)
    hump = np.where(u < arc, np.sin(np.pi * np.minimum(u, arc) / arc) ** 2, 0.0)
    den = np.abs(np.sin(t0 - t))
    psi = 0.02 + hump / np.maximum(den, 1e-12)
    data = ob.build_projection(curve, psi)
    return curve, psi, data
