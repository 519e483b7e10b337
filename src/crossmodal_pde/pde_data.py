"""Generators for the four 1-D PDE task datasets, with solver-verified ground
truth and a portable container file format.

All solvers run in float64 internally; instance frames are stored float32.
Advection targets are evaluated analytically (no solver), so they are exact up
to storage precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .container import DataFileError, file_errors, read_container, write_container
from .tensor import Tensor
from .transformer import ConfigError

ADVECTION = "advection"
DIFFUSION_REACTION = "diffusion_reaction"
DIFFUSION_SORPTION = "diffusion_sorption"
BURGERS_NS = "burgers_ns"  # 1-D viscous Burgers stand-in for compressible Navier-Stokes
FAMILIES = (ADVECTION, DIFFUSION_REACTION, DIFFUSION_SORPTION, BURGERS_NS)

N_FOURIER_MODES = 5


@dataclass(frozen=True)
class GridSpec:
    n_x: int = 128
    t_in: float = 0.0
    t_out: float = 0.5
    dt_solver: float | None = None  # None: generator picks a stable default

    def __post_init__(self):
        if self.n_x <= 0 or self.n_x % 2 != 0:
            raise ConfigError("n_x must be positive and even")
        if self.t_out <= self.t_in:
            raise ConfigError("t_out must exceed t_in")
        if self.dt_solver is not None and not (0 < self.dt_solver < math.inf):
            raise ConfigError(f"dt_solver must be finite and positive, got {self.dt_solver}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

    def to_dict(self) -> dict:
        return {"n_x": self.n_x, "t_in": self.t_in, "t_out": self.t_out,
                "dt_solver": self.dt_solver}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(n_x=d["n_x"], t_in=d["t_in"], t_out=d["t_out"], dt_solver=d.get("dt_solver"))


@dataclass(frozen=True)
class SorptionParams:
    diffusivity: float = 5e-4
    c: float = 1.0
    n: float = 0.874

    def __post_init__(self):
        if self.diffusivity <= 0:
            raise ConfigError("diffusivity must be positive")
        if self.c < 0 or not (0.0 < self.n < 1.0):
            raise ConfigError("retardation needs c >= 0 and 0 < n < 1")


@dataclass(frozen=True)
class PdeParams:
    family: str
    beta: float = 0.4
    nu: float = 0.5
    rho: float = 1.0
    eta: float = 0.1
    zeta: float = 0.1
    sorption: SorptionParams = field(default_factory=SorptionParams)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown PDE family {self.family!r}")

    def to_dict(self) -> dict:
        return {"family": self.family, "beta": self.beta, "nu": self.nu, "rho": self.rho,
                "eta": self.eta, "zeta": self.zeta,
                "sorption": {"diffusivity": self.sorption.diffusivity,
                             "c": self.sorption.c, "n": self.sorption.n}}

    @classmethod
    def from_dict(cls, d: dict) -> "PdeParams":
        s = d["sorption"]
        return cls(family=d["family"], beta=d["beta"], nu=d["nu"], rho=d["rho"],
                   eta=d["eta"], zeta=d["zeta"],
                   sorption=SorptionParams(diffusivity=s["diffusivity"], c=s["c"], n=s["n"]))


def default_params(family: str, **overrides) -> PdeParams:
    if family == BURGERS_NS:
        overrides.setdefault("nu", 0.1)  # matched to eta = zeta = 0.1
    return PdeParams(family=family, **overrides)


def default_grid(family: str, n_x: int = 128) -> GridSpec:
    horizons = {ADVECTION: 0.5, DIFFUSION_REACTION: 0.05,
                DIFFUSION_SORPTION: 20.0, BURGERS_NS: 0.5}
    return GridSpec(n_x=n_x, t_in=0.0, t_out=horizons[family])


@dataclass
class PdeInstance:
    input: Tensor
    target: Tensor
    params: PdeParams
    grid: GridSpec
    seed: int

    def __post_init__(self):
        self.input.validate_finite()
        self.target.validate_finite()


def _fourier_coefficients(rng: np.random.Generator, n_modes: int = N_FOURIER_MODES):
    """Coefficients for a smooth random series: amplitude decays as 1/k."""
    ks = np.arange(1, n_modes + 1)
    a = rng.normal(0.0, 1.0, size=n_modes) / ks
    b = rng.normal(0.0, 1.0, size=n_modes) / ks
    return a, b


def _fourier_eval(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    ks = np.arange(1, len(a) + 1)
    phase = 2.0 * np.pi * np.outer(x, ks)
    return np.cos(phase) @ a + np.sin(phase) @ b


def periodic_x(n_x: int) -> np.ndarray:
    return np.arange(n_x, dtype=np.float64) / n_x


def _instance(u0: np.ndarray, ut: np.ndarray, params: PdeParams, grid: GridSpec,
              seed: int) -> PdeInstance:
    return PdeInstance(input=Tensor(u0.astype(np.float32)),
                       target=Tensor(ut.astype(np.float32)),
                       params=params, grid=grid, seed=seed)


# -- advection (analytic translation) ------------------------------------


def advection_frames_f64(grid: GridSpec, beta: float, seed: int):
    """Float64 (input, target) frames; the target is the exact translated series."""
    rng = np.random.default_rng(seed)
    a, b = _fourier_coefficients(rng)
    x = periodic_x(grid.n_x)
    shift = beta * (grid.t_out - grid.t_in)
    return _fourier_eval(a, b, x), _fourier_eval(a, b, x - shift)


def gen_advection(grid: GridSpec, beta: float = 0.4, seed: int = 0,
                  params: PdeParams | None = None) -> PdeInstance:
    if params is None:
        params = default_params(ADVECTION, beta=beta)
    u0, ut = advection_frames_f64(grid, params.beta, seed)
    return _instance(u0, ut, params, grid, seed)


# The solvers below step every row of a [m, n_x] array at once (a [n_x] frame
# is one row). Their ops act along the last axis, row by row, so each row gets
# the same bits as when it is solved alone.


# -- diffusion-reaction (explicit FD) -------------------------------------

DIFFUSION_STABILITY_LIMIT = 0.4


def _periodic_laplacian(u: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(u, -1, axis=-1) - 2.0 * u + np.roll(u, 1, axis=-1)) / (dx * dx)


def _resolve_dt(grid: GridSpec, dt_max: float, safety: float = 0.625) -> tuple[float, int]:
    """Pick (dt, steps) covering the horizon exactly; error if grid's dt is unstable."""
    horizon = grid.t_out - grid.t_in
    if grid.dt_solver is not None:
        if grid.dt_solver > dt_max:
            raise ConfigError(
                f"dt_solver={grid.dt_solver:g} violates stability bound {dt_max:g}")
        dt = grid.dt_solver
    else:
        dt = safety * dt_max
    steps = max(1, int(np.ceil(horizon / dt)))
    return horizon / steps, steps


def diffusion_reaction_solve(u0: np.ndarray, grid: GridSpec, nu: float, rho: float) -> np.ndarray:
    dt_max = DIFFUSION_STABILITY_LIMIT * grid.dx**2 / nu
    dt, steps = _resolve_dt(grid, dt_max)
    u = u0.astype(np.float64).copy()
    for _ in range(steps):
        u = u + dt * (nu * _periodic_laplacian(u, grid.dx) + rho * u * (1.0 - u))
    return u


# -- diffusion-sorption (Dirichlet, implicit-explicit) ---------------------

SORPTION_U_FLOOR = 1e-8


def sorption_x(n_x: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_x)


def _retardation(u: np.ndarray, c: float, n: float) -> np.ndarray:
    return 1.0 + c * np.maximum(u, SORPTION_U_FLOOR) ** (n - 1.0)


def diffusion_sorption_solve(u0: np.ndarray, grid: GridSpec, sp: SorptionParams) -> np.ndarray:
    """Implicit diffusion with the retardation coefficient frozen per step.

    Dirichlet boundaries u(0)=1, u(1)=0 are enforced every step; the frozen
    coefficient makes each step an M-matrix solve, preserving [0, 1] bounds.
    All rows form one block-diagonal tridiagonal system per step: the
    couplings between blocks are exact zeros, so LAPACK's ``gtsv`` (the
    routine behind ``solve_banded((1, 1), ...)``) never pivots across a block
    and solves each row as it would alone.
    """
    n_x = grid.n_x
    dx = 1.0 / (n_x - 1)
    dt = grid.dt_solver if grid.dt_solver is not None else (grid.t_out - grid.t_in) / 400.0
    steps = max(1, int(np.ceil((grid.t_out - grid.t_in) / dt)))
    dt = (grid.t_out - grid.t_in) / steps
    u = u0.astype(np.float64).copy()
    u[..., 0], u[..., -1] = 1.0, 0.0
    # row i couples to i-1 and i+1 by -coef[i]; boundary rows and the links
    # between rows of u are zero
    off = np.zeros_like(u)
    for _ in range(steps):
        coef = dt * sp.diffusivity / (_retardation(u, sp.c, sp.n) * dx * dx)
        main = 1.0 + 2.0 * coef
        main[..., 0] = main[..., -1] = 1.0  # boundary rows pinned
        off[..., 1:-1] = -coef[..., 1:-1]
        rhs = u.copy()
        rhs[..., 0], rhs[..., -1] = 1.0, 0.0
        flat = off.reshape(-1)  # gtsv copies its inputs, so one array serves both
        _, _, _, x, info = dgtsv(flat[1:], main.reshape(-1), flat[:-1], rhs.reshape(-1))
        if info != 0:
            raise np.linalg.LinAlgError(f"sorption step is singular (gtsv info {info})")
        u = x.reshape(u.shape)
    return u


# -- viscous Burgers stand-in for compressible Navier-Stokes ---------------


def burgers_step(u: np.ndarray, dx: float, dt: float, nu: float) -> np.ndarray:
    """One conservative step: Rusanov flux for u^2/2 plus central diffusion."""
    f = 0.5 * u * u
    u_r = np.roll(u, -1, axis=-1)
    a = np.maximum(np.abs(u), np.abs(u_r))
    flux = 0.5 * (f + np.roll(f, -1, axis=-1)) - 0.5 * a * (u_r - u)  # at i + 1/2
    div = (flux - np.roll(flux, 1, axis=-1)) / dx
    return u + dt * (-div + nu * _periodic_laplacian(u, dx))


def burgers_solve(u0: np.ndarray, grid: GridSpec, nu: float) -> np.ndarray:
    """The step size bound depends on each row's max |u0|, so rows are grouped
    by their (dt, steps) plan and each group is stepped as one array."""
    u = u0.astype(np.float64).copy()
    rows = u.reshape(-1, u.shape[-1])  # a view: writing rows writes u
    plans = []
    for umax in np.abs(rows).max(axis=-1):
        dt_max = min(DIFFUSION_STABILITY_LIMIT * grid.dx**2 / nu,
                     DIFFUSION_STABILITY_LIMIT * grid.dx / max(1e-12, float(umax)))
        plans.append(_resolve_dt(grid, dt_max))
    for dt, steps in sorted(set(plans)):
        group = [i for i, plan in enumerate(plans) if plan == (dt, steps)]
        v = rows[group]
        for _ in range(steps):
            v = burgers_step(v, grid.dx, dt, nu)
        rows[group] = v
    return u


# -- instances and dataset assembly ----------------------------------------


def _initial_frame(family: str, grid: GridSpec, seed: int) -> np.ndarray:
    """The float64 input frame of one instance, drawn from its own seed's rng."""
    a, b = _fourier_coefficients(np.random.default_rng(seed))
    if family == DIFFUSION_REACTION:
        return np.clip(0.5 + 0.5 * _fourier_eval(a, b, periodic_x(grid.n_x)), 0.0, 1.0)
    if family == DIFFUSION_SORPTION:
        x = sorption_x(grid.n_x)
        u0 = np.clip((1.0 - x) + 0.4 * np.sin(np.pi * x) * _fourier_eval(a, b, x), 0.0, 1.0)
        u0[0], u0[-1] = 1.0, 0.0
        return u0
    return _fourier_eval(a, b, periodic_x(grid.n_x))


def _solve(family: str, u0: np.ndarray, grid: GridSpec, params: PdeParams) -> np.ndarray:
    if family == DIFFUSION_REACTION:
        return diffusion_reaction_solve(u0, grid, params.nu, params.rho)
    if family == DIFFUSION_SORPTION:
        return diffusion_sorption_solve(u0, grid, params.sorption)
    return burgers_solve(u0, grid, params.nu)


def _generate(family: str, grid: GridSpec, params: PdeParams,
              seeds: list[int]) -> list[PdeInstance]:
    """One instance per seed; a solved family's frames are solved together."""
    if family == ADVECTION:
        frames = [advection_frames_f64(grid, params.beta, s) for s in seeds]
    else:
        u0 = np.stack([_initial_frame(family, grid, s) for s in seeds])
        frames = zip(u0, _solve(family, u0, grid, params))
    return [_instance(a, b, params, grid, s) for (a, b), s in zip(frames, seeds)]


def generate_instance(family: str, grid: GridSpec, params: PdeParams, seed: int) -> PdeInstance:
    return _generate(family, grid, params, [seed])[0]


def gen_diffusion_reaction(grid: GridSpec, nu: float = 0.5, rho: float = 1.0,
                           seed: int = 0, params: PdeParams | None = None) -> PdeInstance:
    if params is None:
        params = default_params(DIFFUSION_REACTION, nu=nu, rho=rho)
    return generate_instance(DIFFUSION_REACTION, grid, params, seed)


def gen_diffusion_sorption(grid: GridSpec, sorption: SorptionParams | None = None,
                           seed: int = 0, params: PdeParams | None = None) -> PdeInstance:
    if params is None:
        params = default_params(DIFFUSION_SORPTION,
                                sorption=sorption or SorptionParams())
    return generate_instance(DIFFUSION_SORPTION, grid, params, seed)


def gen_burgers_ns_standin(grid: GridSpec, nu: float = 0.1, seed: int = 0,
                           params: PdeParams | None = None) -> PdeInstance:
    if params is None:
        params = default_params(BURGERS_NS, nu=nu)
    return generate_instance(BURGERS_NS, grid, params, seed)


_TRAIN_STREAM, _TEST_STREAM = 0, 1


def _instance_seed(base_seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=(base_seed, stream, index)).generate_state(1)[0])


@dataclass
class PdeDataset:
    family: str
    params: PdeParams
    grid: GridSpec
    seed: int
    train: list[PdeInstance]
    test: list[PdeInstance]


def build_dataset(family: str, n_train: int, n_test: int, grid: GridSpec,
                  params: PdeParams | None = None, seed: int = 0,
                  out_path=None) -> PdeDataset:
    """Generate train/test splits from disjoint seed streams; optionally persist.

    Every instance of both splits is solved in one pass over a
    [n_train + n_test, n_x] array."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown PDE family {family!r}")
    if n_train < 1 or n_test < 1:
        raise ConfigError("n_train and n_test must be >= 1")
    if params is None:
        params = default_params(family)
    seeds = ([_instance_seed(seed, _TRAIN_STREAM, i) for i in range(n_train)]
             + [_instance_seed(seed, _TEST_STREAM, i) for i in range(n_test)])
    instances = _generate(family, grid, params, seeds)
    ds = PdeDataset(family=family, params=params, grid=grid, seed=seed,
                    train=instances[:n_train], test=instances[n_train:])
    if out_path is not None:
        save_dataset(ds, out_path)
    return ds


def save_dataset(ds: PdeDataset, path) -> None:
    """Write the container: frames payload is ordered [instance][input|target][x]."""
    instances = ds.train + ds.test
    frames = np.stack([np.stack([inst.input.data, inst.target.data]) for inst in instances])
    header = {
        "kind": "pde_dataset",
        "family": ds.family,
        "params": ds.params.to_dict(),
        "grid": ds.grid.to_dict(),
        "n_train": len(ds.train),
        "n_test": len(ds.test),
        "seed": ds.seed,
        "instance_seeds": [inst.seed for inst in instances],
    }
    write_container(path, header, [("frames", frames)])


def load_dataset(path) -> PdeDataset:
    header, blocks = read_container(path)
    if header.get("kind") != "pde_dataset":
        raise DataFileError(f"{path} is not a pde dataset container")
    with file_errors(path, "pde dataset"):
        params = PdeParams.from_dict(header["params"])
        grid = GridSpec.from_dict(header["grid"])
        frames, seeds = blocks["frames"], header["instance_seeds"]
        n_train, n_test = header["n_train"], header["n_test"]
        family, seed = header["family"], header["seed"]
    if family != params.family:
        raise DataFileError(f"pde dataset {path} has family {family!r} but params for "
                            f"{params.family!r}")
    for name, n in (("n_train", n_train), ("n_test", n_test)):
        if type(n) is not int or n < 0:  # bool is an int subclass; reject it too
            raise DataFileError(f"pde dataset {path} has {name} = {n!r}, "
                                f"not a non-negative integer")
    if frames.ndim != 3 or frames.shape[1:] != (2, grid.n_x):
        raise DataFileError(f"frames in {path} have shape {list(frames.shape)}, "
                            f"not [n, 2, {grid.n_x}]")
    if not len(seeds) == n_train + n_test == len(frames):
        raise DataFileError(f"{path} holds {len(frames)} frame pairs, {len(seeds)} "
                            f"instance seeds and n_train + n_test = {n_train} + {n_test}")
    if not np.all(np.isfinite(frames)):
        bad = int(np.count_nonzero(~np.isfinite(frames)))
        raise DataFileError(f"frames in {path} hold {bad} non-finite values")
    instances = [PdeInstance(input=Tensor(u0), target=Tensor(ut), params=params, grid=grid,
                             seed=s) for (u0, ut), s in zip(frames, seeds)]
    return PdeDataset(family=family, params=params, grid=grid, seed=seed,
                      train=instances[:n_train], test=instances[n_train:])
