"""Shared fixtures.  Expensive artifacts (benchmark controllers, the
synthesized example controllers) are session-scoped and lazy."""

from __future__ import annotations

import numpy as np
import pytest

import regretsynth as rs


def random_stable_ss(rng, n, n_u, n_y, rho=0.7, sample_time=1.0,
                     feedthrough=True):
    A = rng.standard_normal((n, n))
    r = max(np.abs(np.linalg.eigvals(A))) if n else 1.0
    A = rho * A / max(r, 1e-9)
    B = rng.standard_normal((n, n_u))
    C = rng.standard_normal((n_y, n))
    D = rng.standard_normal((n_y, n_u)) if feedthrough else np.zeros((n_y, n_u))
    return rs.StateSpace(A, B, C, D, sample_time)


def same_bits(a, b) -> bool:
    """Equal shapes, equal values and equal signs, signs of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def with_signed_zeros(rng, g, share=0.3):
    """``g`` with about ``share`` of the entries of A, B, C and D set to
    +0.0 or -0.0."""
    mats = []
    for M in (g.A, g.B, g.C, g.D):
        M = M.copy()
        hit = rng.random(M.shape) < share
        M[hit] = np.where(rng.random(M.shape) < 0.5, 0.0, -0.0)[hit]
        mats.append(M)
    return rs.StateSpace(*mats, g.sample_time)


def random_plant_with_dscale_pole(rng, n=4):
    """diag(d, 1) G diag(1/d, 1) for a random stable 2 x 2 G and the D-scale
    section d(z) = (z + 0.9999) / (z + 0.99999): real poles at -0.99999
    and -0.9999, each nearly cancelled by a zero, and a tenfold gain of
    the off-diagonal channels within 1e-4 rad of pi."""
    g = random_stable_ss(rng, n, 2, 2, rho=0.9)
    a, b = -0.9999, -0.99999
    d = rs.StateSpace([[b]], [[1.0]], [[b - a]], [[1.0]], 1.0)
    one = rs.static_gain([[1.0]], 1.0)
    return rs.series(rs.series(rs.append(rs.invert(d), one), g), rs.append(d, one))


def random_generalized_plant(seed, n=3, nd=2, nu=1, ne=2, ny=1, rho=0.7):
    """Random stable plant with the standing zero-feedthrough pattern."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    r = max(np.abs(np.linalg.eigvals(A))) if n else 1.0
    A = rho * A / r
    B = rng.standard_normal((n, nd + nu))
    C = rng.standard_normal((ne + ny, n))
    D = np.zeros((ne + ny, nd + nu))
    D[:ne, nd:] = rng.standard_normal((ne, nu))
    D[ne:, :nd] = rng.standard_normal((ny, nd))
    ss = rs.StateSpace(A, B, C, D, 1.0)
    return rs.GeneralizedPlant(ss, n_d=nd, n_u=nu, n_e=ne, n_y=ny)


def scalar_plant():
    """a = 0.5, b_u = b_d = 1, q = r = 1, s = 0, full state measurement."""
    ss = rs.StateSpace([[0.5]], [[1.0, 1.0]],
                       [[1.0], [0.0], [1.0]],
                       [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]], 1.0)
    return rs.GeneralizedPlant(ss, n_d=1, n_u=1, n_e=2, n_y=1)


class ExampleStore:
    """Lazy cache of the expensive per-example artifacts."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def uncertain(self, name):
        return self._get(("unc", name), lambda: rs.build_example(name))

    def nominal(self, name):
        return self._get(("nom", name), lambda: self.uncertain(name).nominal())

    def k0(self, name):
        return self._get(("k0", name),
                         lambda: rs.build_noncausal(self.nominal(name)))

    def special(self, name, kind, tol_abs=1e-4, tol_rel=1e-4):
        def build():
            return rs.optimize_special(self.nominal(name), kind, tol_abs,
                                       tol_rel, K0=self.k0(name))
        return self._get(("special", name, kind, tol_abs, tol_rel), build)

    def robust_special(self, name, kind, tol_abs=1e-3, tol_rel=1e-3):
        def build():
            oracle = rs.dk_feasibility_oracle(self.uncertain(name),
                                              K0=self.k0(name))
            return rs.optimize_special(self.nominal(name), kind, tol_abs,
                                       tol_rel, K0=self.k0(name),
                                       feasibility=oracle)
        return self._get(("robust", name, kind, tol_abs, tol_rel), build)


@pytest.fixture
def schur_stein_calls(monkeypatch):
    """Sizes of the Schur-coordinate Stein equations solved during a test."""
    calls = []
    solve = rs.statespace._schur_stein

    def counted(A, Q):
        calls.append(A.shape[0])
        return solve(A, Q)

    monkeypatch.setattr(rs.statespace, "_schur_stein", counted)
    return calls


@pytest.fixture
def system_balance_calls(monkeypatch):
    """State sizes of the plants that H-infinity synthesis balanced
    during a test."""
    calls = []
    balance = rs.hinf.balance_states

    def counted(A, B, C):
        calls.append(A.shape[0])
        return balance(A, B, C)

    monkeypatch.setattr(rs.hinf, "balance_states", counted)
    return calls


@pytest.fixture(scope="session")
def store():
    return ExampleStore()


@pytest.fixture(scope="session")
def siso_nominal(store):
    return store.nominal("siso")


@pytest.fixture(scope="session")
def boeing_nominal(store):
    return store.nominal("boeing747")


@pytest.fixture(scope="session")
def quartercar_nominal(store):
    return store.nominal("quartercar")
