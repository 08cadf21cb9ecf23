"""Desk-scale test-problem catalog.

Each builder returns a :class:`Problem` bundling the semi-discrete system,
a default initial state, an optional exact-solution handle (exact for the
*discrete* operator, so time-integration error is measured alone), and the
field-of-values class of the linearized operator:

* ``dahlquist``     scalar (or 2x2 real form) test equation, exact
* ``heat1d``        Dirichlet 3-point Laplacian, symmetric negative
                    semi-definite, exact via discrete sine modes
* ``advection1d``   periodic central differences, skew-symmetric, exact
                    via circulant modes
* ``advdiff1d``     periodic advection plus diffusion
* ``burgers1d``     conservative flux form with viscosity, exact Jacobian
* ``dae_manufactured``  index-1 scalar pair with closed-form solution
* ``shear_layer_small`` 2D vorticity/streamfunction system on a periodic
                    grid with lagged advection (index-1, zero L_w)

Periodic stencils are written straight onto CSR arrays on interned
patterns.  A field-of-values label follows from its builder's formula
(heat1d's ``nu >= 0`` times a negative semi-definite Laplacian, advection1d's
exactly skew stencil), and :func:`make_problem` rejects a parameter its
builder does not take.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dae import DaeSystem
from .errors import ConfigurationError
from .nonlinear import OdeSystem
from .sparsela import BandedLU, Pattern, SparseMatrix, _is_count


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    kind: str  # ode-linear | ode-nonlinear | dae-index1
    params: dict = field(default_factory=dict)
    fov_class: str = "general"  # snsd | skew | general


@dataclass(frozen=True)
class Problem:
    spec: ProblemSpec
    system: object  # OdeSystem or DaeSystem
    u0: np.ndarray
    w0: np.ndarray | None = None
    exact: object = None  # exact(t) -> u  (or (u, w) for DAEs)
    operator: SparseMatrix | None = None  # frozen linearization, linear problems


def _linear_system(mat, name):
    """The system ``u' = mat @ u``, linearized to ``mat`` itself."""
    return OdeSystem(dim=mat.n, rhs=lambda u, t: mat @ u, linearize=lambda u, t: mat, name=name)


def dahlquist(lam_re=-1.0, lam_im=0.0):
    """Scalar test equation ``u' = lam * u`` (2x2 real form when complex)."""
    if lam_im == 0.0:
        mat = SparseMatrix(sp.csr_matrix(np.array([[lam_re]])))
        u0 = np.array([1.0])

        def exact(t):
            return np.array([np.exp(lam_re * t)])

    else:
        mat = SparseMatrix(np.array([[lam_re, -lam_im], [lam_im, lam_re]]))
        u0 = np.array([1.0, 0.0])

        def exact(t):
            r = np.exp(lam_re * t)
            return r * np.array([np.cos(lam_im * t), np.sin(lam_im * t)])

    system = _linear_system(mat, "dahlquist")
    spec = ProblemSpec(
        "dahlquist", "ode-linear", {"lam_re": lam_re, "lam_im": lam_im}, "general"
    )
    return Problem(spec, system, u0, exact=exact, operator=mat)


def heat1d(n=64, nu=1.0):
    """Dirichlet heat equation on (0, 1): 3-point Laplacian, SNSD for ``nu >= 0``."""
    if not _is_count(n):
        raise ConfigurationError(f"n must be an integer >= 1, got {n!r}")
    if not 0.0 <= nu < np.inf:
        raise ConfigurationError(f"nu must be finite and >= 0, got {nu}")
    h = 1.0 / (n + 1)
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) * (nu / h**2)
    mat = SparseMatrix(lap)
    x = np.arange(1, n + 1) * h
    modes = [(1, 1.0), (3, 0.5)]
    u0 = sum(a * np.sin(k * np.pi * x) for k, a in modes)
    # Discrete eigenvalues of the 3-point stencil.
    lam = {k: -(4.0 * nu / h**2) * np.sin(0.5 * k * np.pi * h) ** 2 for k, _ in modes}

    def exact(t):
        return sum(a * np.exp(lam[k] * t) * np.sin(k * np.pi * x) for k, a in modes)

    system = _linear_system(mat, "heat1d")
    spec = ProblemSpec("heat1d", "ode-linear", {"n": n, "nu": nu}, "snsd")
    return Problem(spec, system, u0, exact=exact, operator=mat)


def _periodic_spacing(n, length=1.0):
    """Grid spacing of ``n`` periodic points; rejects all but an integer ``n >= 3`` first."""
    if not (_is_count(n) and n >= 3):
        # below three points the wrap entries would fall on the +-1 diagonals
        raise ConfigurationError(f"periodic stencils need an integer n >= 3 points, got {n!r}")
    return length / n


def _stencil(cols, vals):
    """The square matrix whose row i holds ``vals`` at the distinct columns
    ``cols[i]``, written straight onto its CSR arrays (zero values stored)."""
    m, k = cols.shape
    order = np.argsort((np.arange(m)[:, None] * m + cols).ravel())
    pattern = Pattern.of((m, m), np.arange(0, m * k + 1, k), cols.ravel()[order])
    return SparseMatrix.on_pattern(pattern, np.asarray(vals, dtype=float)[order % k])


def _periodic_tridiagonal(n, lower, diag, upper):
    """Circulant ``[lower, diag, upper]`` stencil on the full 3-point circulant
    pattern (a zero ``diag`` stays stored), so all such operators share it."""
    return _stencil((np.arange(n)[:, None] + np.arange(-1, 2)) % n, [lower, diag, upper])


def _periodic_central(n, h):
    return _periodic_tridiagonal(n, -1.0 / (2.0 * h), 0.0, 1.0 / (2.0 * h))


def _periodic_laplacian(n, h):
    return _periodic_tridiagonal(n, 1.0 / h**2, -2.0 / h**2, 1.0 / h**2)


def advection1d(n=64, speed=1.0):
    """Periodic transport ``u_t = speed * u_x`` with central differences."""
    h = _periodic_spacing(n)
    mat = SparseMatrix(speed * _periodic_central(n, h).csr)
    x = np.arange(n) * h
    u0 = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    coeffs = np.fft.fft(u0)
    wavenum = np.fft.fftfreq(n, d=1.0 / n)
    lam = 1j * speed * np.sin(2 * np.pi * wavenum / n) / h

    def exact(t):
        return np.real(np.fft.ifft(coeffs * np.exp(lam * t)))

    system = _linear_system(mat, "advection1d")
    spec = ProblemSpec("advection1d", "ode-linear", {"n": n, "speed": speed}, "skew")
    return Problem(spec, system, u0, exact=exact, operator=mat)


def advdiff1d(n=64, speed=1.0, nu=0.01):
    """Periodic advection-diffusion (general class; still left half-plane)."""
    h = _periodic_spacing(n)
    mat = SparseMatrix(speed * _periodic_central(n, h).csr + nu * _periodic_laplacian(n, h).csr)
    x = np.arange(n) * h
    u0 = np.sin(2 * np.pi * x) + 0.2 * np.sin(6 * np.pi * x)
    system = _linear_system(mat, "advdiff1d")
    spec = ProblemSpec(
        "advdiff1d", "ode-linear", {"n": n, "speed": speed, "nu": nu}, "general"
    )
    return Problem(spec, system, u0, operator=mat)


def burgers1d(n=128, nu=0.02, base=0.5, amplitude=0.45):
    """Viscous Burgers on a periodic unit interval, conservative flux form.

    ``N(u) = -D(u^2/2) + nu * Lap u`` with central differences.  ``D`` and
    ``Lap`` share the circulant pattern, so the exact Jacobian
    ``-D diag(u) + nu * Lap`` is computed as values on it.
    """
    h = _periodic_spacing(n)
    dmat = _periodic_central(n, h)
    pattern = dmat.pattern
    lap = SparseMatrix.on_pattern(pattern, nu * _periodic_laplacian(n, h).data)
    x = np.arange(n) * h
    u0 = base + amplitude * np.sin(2 * np.pi * x)

    def rhs(u, t):
        return -(dmat @ (0.5 * u * u)) + lap @ u

    def linearize(u, t):
        return SparseMatrix.on_pattern(pattern, -(dmat.data * u[pattern.indices]) + lap.data)

    system = OdeSystem(dim=n, rhs=rhs, linearize=linearize, name="burgers1d")
    spec = ProblemSpec(
        "burgers1d",
        "ode-nonlinear",
        {"n": n, "nu": nu, "base": base, "amplitude": amplitude},
        "general",
    )
    return Problem(spec, system, u0)


def dae_manufactured():
    """Index-1 pair ``u' = -u + w``, ``0 = w - cos t`` with closed form.

    Eliminating ``w`` gives ``u(t) = (cos t + sin t) / 2 + exp(-t) / 2``
    for ``u(0) = 1``.
    """
    lu = SparseMatrix(np.array([[-1.0]]))
    lw = SparseMatrix(np.array([[1.0]]))
    gu = SparseMatrix(np.array([[0.0]]))
    gw = SparseMatrix(np.array([[1.0]]))

    system = DaeSystem(
        dim_u=1,
        dim_w=1,
        rhs=lambda u, w, t: -u + w,
        constraint=lambda u, w, t: w - np.cos(t),
        blocks=lambda u, w, t: (lu, lw, gu, gw),
        name="dae_manufactured",
    )

    def exact(t):
        return (
            np.array([0.5 * (np.cos(t) + np.sin(t)) + 0.5 * np.exp(-t)]),
            np.array([np.cos(t)]),
        )

    spec = ProblemSpec("dae_manufactured", "dae-index1", {}, "general")
    return Problem(spec, system, np.array([1.0]), w0=np.array([1.0]), exact=exact)


def _grid_ops_2d(n, length=2.0 * np.pi):
    """Periodic ``dx``, ``dy`` (``I kron D``, ``D kron I`` for the central
    circulant ``D``, zero diagonal stored), the 5-point Laplacian (the sum
    of the 1-D ones), the spacing, and ``dx``'s and ``dy``'s values on the
    Laplacian's pattern, on an n x n grid (point ``(a, b)`` at ``a * n + b``)."""
    h, nn = _periodic_spacing(n, length), n * n
    a, b = np.divmod(np.arange(nn)[:, None], n)
    step = np.arange(-1, 2)
    along_x, along_y = a * n + (b + step) % n, (a + step) % n * n + b
    five = np.hstack([along_x, along_y[:, ::2]])
    lo, mid, half = 1.0 / h**2, -2.0 / h**2, 1.0 / (2.0 * h)
    return (_stencil(along_x, [-half, 0.0, half]), _stencil(along_y, [-half, 0.0, half]),
            _stencil(five, [lo, mid + mid, lo, lo, lo]), h,
            _stencil(five, [-half, 0.0, half, 0.0, 0.0]).data,
            _stencil(five, [0.0, 0.0, 0.0, -half, half]).data)


def shear_layer_small(n=16, reynolds=1e4, delta=0.05, rho=np.pi / 15.0):
    """Double shear layer in vorticity/streamfunction form, desk scale.

    The streamfunction solves the pinned periodic Poisson problem
    ``Lap psi = omega`` (one row replaced by ``psi_0 = 0`` to fix the
    nullspace), velocities come from ``(-d_y psi, d_x psi)``, and the
    advection operator is lagged in the linearization so the differential
    rows never couple to the streamfunction (``L_w = 0``).
    """
    dx, dy, lap, h, dxv, dyv = _grid_ops_2d(n)
    nn = n * n

    # Pinned constraint operator: Lap with row 0 (five entries) replaced by the
    # identity row; -I with row 0 emptied; no L_w entries
    ops = [(np.append(0, lap.indptr[1:] - 4), np.append(0, lap.indices[5:]),
            np.append(1.0, lap.data[5:])),
           (np.append(0, np.arange(nn)), np.arange(1, nn), np.full(nn - 1, -1.0)),
           (np.zeros(nn + 1, int), [], np.zeros(0))]
    gw, gu, lw = (SparseMatrix.on_pattern(Pattern.of((nn, nn), indptr, indices), data)
                  for indptr, indices, data in ops)
    visc = SparseMatrix.on_pattern(lap.pattern, (1.0 / reynolds) * lap.data)
    cols = visc.indices

    def velocity(psi):
        return -(dy @ psi), dx @ psi

    def rhs(omega, psi, t):
        ux, uy = velocity(psi)
        return -(dx @ (ux * omega) + dy @ (uy * omega)) + visc @ omega

    def constraint(omega, psi, t):
        g = lap @ psi - omega
        g[0] = psi[0]
        return g

    def blocks(omega, psi, t):
        ux, uy = velocity(psi)
        adv = -(dxv * ux[cols] + dyv * uy[cols])
        return SparseMatrix.on_pattern(visc.pattern, adv + visc.data), lw, gu, gw

    system = DaeSystem(
        dim_u=nn,
        dim_w=nn,
        rhs=rhs,
        constraint=constraint,
        blocks=blocks,
        name="shear_layer_small",
    )

    xs = (np.arange(n) * h)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    omega0 = np.where(
        yg.ravel() <= np.pi,
        delta * np.cos(xg.ravel())
        - np.cosh(np.clip((yg.ravel() - np.pi / 2) / rho, -30, 30)) ** -2 / rho,
        delta * np.cos(xg.ravel())
        + np.cosh(np.clip((3 * np.pi / 2 - yg.ravel()) / rho, -30, 30)) ** -2 / rho,
    )
    rhs_psi = omega0.copy()
    rhs_psi[0] = 0.0
    psi0 = BandedLU.factor(gw).solve(rhs_psi)
    spec = ProblemSpec(
        "shear_layer_small",
        "dae-index1",
        {"n": n, "reynolds": reynolds, "delta": delta, "rho": rho},
        "general",
    )
    return Problem(spec, system, omega0, w0=psi0)


_BUILDERS = {
    "dahlquist": dahlquist,
    "heat1d": heat1d,
    "advection1d": advection1d,
    "advdiff1d": advdiff1d,
    "burgers1d": burgers1d,
    "dae_manufactured": dae_manufactured,
    "shear_layer_small": shear_layer_small,
}
_PARAMETERS = {name: tuple(inspect.signature(b).parameters) for name, b in _BUILDERS.items()}


def problem_names():
    return sorted(_BUILDERS)


def make_problem(name, **params):
    """Build a catalog problem by name; an unknown name, an unknown parameter or
    a value that is not a real number (a ``bool`` is not) is a configuration error."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown problem {name!r}; available: {', '.join(problem_names())}")
    accepted = _PARAMETERS[name]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ConfigurationError(f"{name} takes no parameter {', '.join(map(repr, unknown))}; "
                                 f"accepted: {', '.join(accepted) or 'none'}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(f"{name}: {key} must be a real number, got {value!r}")
    return builder(**params)
