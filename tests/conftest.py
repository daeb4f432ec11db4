import numpy as np
import pytest

from singtrace.functions import (
    exponential,
    power_log,
    pure_power,
    step_mu,
)


@pytest.fixture(scope="session")
def symbolic_suite():
    """Named families with closed-form asymptotics, shared across tests."""
    return [
        ("power_p0.25", power_log(p=0.25)),
        ("power_p0.5", power_log(p=0.5)),
        ("power_p1", power_log(p=1.0)),
        ("power_p2", power_log(p=2.0)),
        ("power_p4", power_log(p=4.0)),
        ("powerlog_qm1", power_log(p=1.0, q=-1.0)),
        ("powerlog_q0", power_log(p=1.0, q=0.0)),
        ("powerlog_q2", power_log(p=1.0, q=2.0)),
        ("exponential", exponential(1.0)),
        ("pure_power_p1", pure_power(p=1.0)),
    ]


@pytest.fixture(scope="session")
def finite_rank_steps():
    return [
        ("step_321", step_mu([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0])),
        ("step_single", step_mu([0.0, 2.0], [5.0])),
    ]


@pytest.fixture(scope="session")
def x_grid():
    return np.exp(np.linspace(np.log(1e-3), np.log(1e9), 400))


@pytest.fixture(scope="session")
def seeded_samples():
    """(grid, values) of 150 sampled profiles on decimal grids, a third from x = 0.

    Decimal grid points make exp(log x) round below x at many knots.
    """
    rng = np.random.default_rng(385)
    out = []
    for i in range(150):
        n = int(rng.integers(2, 30))
        xs = np.exp(np.append(rng.uniform(-3.0, 12.0, n), rng.uniform(6.0, 12.0)))
        grid = np.unique(np.round(xs, 4))
        if i % 3 == 0:
            grid[0] = 0.0
        values = np.sort(np.round(rng.uniform(0.01, 5.0, len(grid)), 3))[::-1]
        out.append((grid.tolist(), values.tolist()))
    return out
