"""Generators for the four 1-D PDE task datasets, with solver-verified ground
truth and a portable container file format.

A dataset split is one ``FrameSplit``: a float32 [n, n_x] array of input
frames, the [n, n_x] array of their target frames and the n instance seeds.
All solvers run in float64 internally; frames are stored float32. Advection
targets are evaluated analytically (no solver), so they are exact up to
storage precision.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from .container import DataFileError, file_errors, read_container, typed_block, write_container
from .tensor import ContractError, ShapeError, _openblas
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
        if type(self.n_x) is not int or self.n_x <= 0 or self.n_x % 2 != 0:
            raise ConfigError(f"n_x must be a positive even int, got {self.n_x!r}")
        if not (math.isfinite(self.t_in) and math.isfinite(self.t_out)):
            raise ConfigError(f"t_in and t_out must be finite, got {self.t_in}, {self.t_out}")
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
    sorption: SorptionParams = field(default_factory=SorptionParams)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown PDE family {self.family!r}")

    def to_dict(self) -> dict:
        return {"family": self.family, "beta": self.beta, "nu": self.nu, "rho": self.rho,
                "sorption": {"diffusivity": self.sorption.diffusivity,
                             "c": self.sorption.c, "n": self.sorption.n}}

    @classmethod
    def from_dict(cls, d: dict) -> "PdeParams":
        s = d["sorption"]
        return cls(family=d["family"], beta=d["beta"], nu=d["nu"], rho=d["rho"],
                   sorption=SorptionParams(diffusivity=s["diffusivity"], c=s["c"], n=s["n"]))


def default_params(family: str, **overrides) -> PdeParams:
    if family == BURGERS_NS:
        overrides.setdefault("nu", 0.1)
    return PdeParams(family=family, **overrides)


def default_grid(family: str, n_x: int = 128) -> GridSpec:
    horizons = {ADVECTION: 0.5, DIFFUSION_REACTION: 0.05,
                DIFFUSION_SORPTION: 20.0, BURGERS_NS: 0.5}
    return GridSpec(n_x=n_x, t_in=0.0, t_out=horizons[family])


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


# -- advection (analytic translation) ------------------------------------


def advection_frames_f64(grid: GridSpec, beta: float, seed: int):
    """Float64 (input, target) frames; the target is the exact translated series."""
    rng = np.random.default_rng(seed)
    a, b = _fourier_coefficients(rng)
    x = periodic_x(grid.n_x)
    shift = beta * (grid.t_out - grid.t_in)
    return _fourier_eval(a, b, x), _fourier_eval(a, b, x - shift)


# The solvers below step every row of a [m, n_x] array at once (a [n_x] frame
# is one row). Their ops act along the last axis, row by row, so each row gets
# the same bits as when it is solved alone.


# -- diffusion-reaction (explicit FD) -------------------------------------

DIFFUSION_STABILITY_LIMIT = 0.4


def _ghost(u: np.ndarray) -> np.ndarray:
    """``u`` with a periodic ghost point at each end: every neighbour is a slice."""
    return np.concatenate([u[..., -1:], u, u[..., :1]], axis=-1)


def _periodic_laplacian(p: np.ndarray, dx: float) -> np.ndarray:  # p from _ghost
    return (p[..., 2:] - 2.0 * p[..., 1:-1] + p[..., :-2]) / (dx * dx)


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
        u = u + dt * (nu * _periodic_laplacian(_ghost(u), grid.dx) + rho * u * (1.0 - u))
    return u


# -- diffusion-sorption (Dirichlet, implicit-explicit) ---------------------

SORPTION_U_FLOOR = 1e-8


def sorption_x(n_x: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_x)


def _retardation(u: np.ndarray, c: float, n: float) -> np.ndarray:
    return 1.0 + c * np.maximum(u, SORPTION_U_FLOOR) ** (n - 1.0)


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
          b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the tridiagonal system with sub-diagonal ``dl``, diagonal ``d``
    and super-diagonal ``du`` for one right-hand side ``b``; returns
    ``(x, info)`` as LAPACK's ``dgtsv`` reports them.

    The routine is ``scipy_dgtsv_64_`` of numpy's OpenBLAS
    (``tensor._openblas``), called through the Fortran ABI with 64-bit
    integers, so the solver loads no second BLAS.  Like scipy's wrapper it
    works on float64 copies and leaves its arguments unchanged.  ``info > 0``
    is the row of a pivot that is exactly zero (a singular system).  ctypes
    checks nothing, so the dtypes and the lengths ``n-1, n, n-1, n`` are
    checked here, before the call.  Where numpy's OpenBLAS or the symbol is
    not found, scipy's ``dgtsv`` solves instead.
    """
    args = (dl, d, du, b)
    if not all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in args):
        raise ContractError("gtsv needs float64 arrays, got "
                            f"{[getattr(a, 'dtype', type(a)) for a in args]}")
    n = d.shape[0] if d.ndim == 1 else 0
    shapes = tuple(a.shape for a in args)
    if n < 1 or shapes != ((n - 1,), (n,), (n - 1,), (n,)):
        raise ShapeError(f"gtsv needs lengths n-1, n, n-1, n with n >= 1, got {shapes}")
    solve = getattr(_openblas(), "scipy_dgtsv_64_", None)
    if solve is None:
        from scipy.linalg.lapack import dgtsv

        if n == 1:  # scipy's wrapper rejects empty off-diagonals; LAPACK reads none
            dl = du = np.zeros(1)
        _, _, _, x, info = dgtsv(dl, d, du, b)
        return x, int(info)
    # the copies back to back in one buffer: dl, d, du, b start at these offsets
    copies = np.concatenate(args)
    base, offsets = copies.ctypes.data, (0, n - 1, 2 * n - 1, 3 * n - 2)
    size, nrhs, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
    solve.restype = None
    solve(ctypes.byref(size), ctypes.byref(nrhs),
          *(ctypes.c_void_p(base + 8 * k) for k in offsets),
          ctypes.byref(size), ctypes.byref(info))
    return copies[3 * n - 2:], info.value


def diffusion_sorption_solve(u0: np.ndarray, grid: GridSpec, sp: SorptionParams) -> np.ndarray:
    """Implicit diffusion with the retardation coefficient frozen per step.

    Dirichlet boundaries u(0)=1, u(1)=0 are enforced every step; the frozen
    coefficient makes each step an M-matrix solve, preserving [0, 1] bounds.
    All rows form one block-diagonal tridiagonal system per step, solved by
    ``_gtsv`` (LAPACK's ``dgtsv`` from numpy's OpenBLAS, the routine behind
    ``solve_banded((1, 1), ...)``): the couplings between blocks are exact
    zeros, so it never pivots across a block and solves each row as it
    would alone.
    """
    n_x = grid.n_x
    dx = 1.0 / (n_x - 1)
    dt = grid.dt_solver if grid.dt_solver is not None else (grid.t_out - grid.t_in) / 400.0
    steps = max(1, int(np.ceil((grid.t_out - grid.t_in) / dt)))
    dt = (grid.t_out - grid.t_in) / steps
    u = u0.astype(np.float64)
    # row i couples to i-1 and i+1 by -coef[i]; boundary rows and the links
    # between rows of u are zero
    off = np.zeros_like(u)
    for _ in range(steps):
        # u is the right-hand side, its boundaries pinned in place: a solve
        # returns them exactly only where gtsv did not pivot (coef <= 1)
        u[..., 0], u[..., -1] = 1.0, 0.0
        coef = dt * sp.diffusivity / (_retardation(u, sp.c, sp.n) * dx * dx)
        main = 1.0 + 2.0 * coef
        main[..., 0] = main[..., -1] = 1.0  # boundary rows pinned
        off[..., 1:-1] = -coef[..., 1:-1]
        flat = off.reshape(-1)  # gtsv copies its inputs, so one array serves both
        x, info = _gtsv(flat[1:], main.reshape(-1), flat[:-1], u.reshape(-1))
        if info != 0:
            raise np.linalg.LinAlgError(f"sorption step is singular (gtsv info {info})")
        u = x.reshape(u.shape)
    return u


# -- viscous Burgers stand-in for compressible Navier-Stokes ---------------


def burgers_step(u: np.ndarray, dx: float, dt: float, nu: float) -> np.ndarray:
    """One conservative step: Rusanov flux for u^2/2 plus central diffusion."""
    p = _ghost(u)
    f, speed = 0.5 * p * p, np.abs(p)
    a = np.maximum(speed[..., :-1], speed[..., 1:])
    flux = 0.5 * (f[..., :-1] + f[..., 1:]) - 0.5 * a * (p[..., 1:] - p[..., :-1])  # at i - 1/2
    div = (flux[..., 1:] - flux[..., :-1]) / dx
    return u + dt * (-div + nu * _periodic_laplacian(p, dx))


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


def generate_frames(family: str, grid: GridSpec, params: PdeParams,
                    seeds: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The float32 [len(seeds), n_x] input and target frames of one instance
    per seed; a solved family's frames are solved together."""
    if family == ADVECTION:
        u0, ut = np.stack([advection_frames_f64(grid, params.beta, s) for s in seeds], axis=1)
    else:
        u0 = np.stack([_initial_frame(family, grid, s) for s in seeds])
        ut = _solve(family, u0, grid, params)
    return u0.astype(np.float32), ut.astype(np.float32)


_TRAIN_STREAM, _TEST_STREAM = 0, 1


def derive_seed(*parts: int) -> int:
    """A 32-bit seed drawn from ``SeedSequence(entropy=parts)``: each tuple of
    parts, such as (dataset seed, split stream, instance index), gets its own."""
    return int(np.random.SeedSequence(entropy=parts).generate_state(1)[0])


@dataclass
class FrameSplit:
    """The instances of one split: row i of ``inputs`` is instance i's input
    frame, row i of ``targets`` its target frame, ``seeds[i]`` its seed."""

    inputs: np.ndarray  # [n, n_x] float32, C-contiguous
    targets: np.ndarray  # [n, n_x] float32, C-contiguous
    seeds: list[int]

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float32)
        self.targets = np.ascontiguousarray(self.targets, dtype=np.float32)
        self.seeds = list(self.seeds)
        if self.inputs.ndim != 2 or self.inputs.shape != self.targets.shape:
            raise ContractError(f"a split needs [n, n_x] inputs and targets of one shape, "
                                f"got {self.inputs.shape} and {self.targets.shape}")
        if len(self.seeds) != len(self.inputs):
            raise ContractError(f"a split of {len(self.inputs)} frame pairs has "
                                f"{len(self.seeds)} seeds")
        for name, frames in (("inputs", self.inputs), ("targets", self.targets)):
            if not np.all(np.isfinite(frames)):
                bad = int(np.count_nonzero(~np.isfinite(frames)))
                raise ContractError(f"split {name} hold {bad} non-finite values")

    def __len__(self) -> int:
        return len(self.seeds)


def _splits(inputs: np.ndarray, targets: np.ndarray, seeds: list[int],
            n_train: int) -> tuple[FrameSplit, FrameSplit]:
    """The first ``n_train`` instances as the train split, the rest as test."""
    return (FrameSplit(inputs[:n_train], targets[:n_train], seeds[:n_train]),
            FrameSplit(inputs[n_train:], targets[n_train:], seeds[n_train:]))


@dataclass
class PdeDataset:
    family: str
    params: PdeParams
    grid: GridSpec
    seed: int
    train: FrameSplit
    test: FrameSplit


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
    seeds = ([derive_seed(seed, _TRAIN_STREAM, i) for i in range(n_train)]
             + [derive_seed(seed, _TEST_STREAM, i) for i in range(n_test)])
    train, test = _splits(*generate_frames(family, grid, params, seeds), seeds, n_train)
    ds = PdeDataset(family=family, params=params, grid=grid, seed=seed,
                    train=train, test=test)
    if out_path is not None:
        save_dataset(ds, out_path)
    return ds


def save_dataset(ds: PdeDataset, path) -> None:
    """Write the container: frames payload is ordered [instance][input|target][x]."""
    frames = np.stack([np.concatenate([ds.train.inputs, ds.test.inputs]),
                       np.concatenate([ds.train.targets, ds.test.targets])], axis=1)
    header = {
        "kind": "pde_dataset",
        "family": ds.family,
        "params": ds.params.to_dict(),
        "grid": ds.grid.to_dict(),
        "n_train": len(ds.train),
        "n_test": len(ds.test),
        "seed": ds.seed,
        "instance_seeds": ds.train.seeds + ds.test.seeds,
    }
    write_container(path, header, [("frames", frames)])


def load_dataset(path) -> PdeDataset:
    header, blocks = read_container(path)
    if header.get("kind") != "pde_dataset":
        raise DataFileError(f"{path} is not a pde dataset container")
    with file_errors(path, "pde dataset"):
        params = PdeParams.from_dict(header["params"])
        grid = GridSpec.from_dict(header["grid"])
        frames = typed_block(path, blocks, "frames", np.float32)
        seeds = header["instance_seeds"]
        n_train, n_test = header["n_train"], header["n_test"]
        family, seed = header["family"], header["seed"]
    if family != params.family:
        raise DataFileError(f"pde dataset {path} has family {family!r} but params for "
                            f"{params.family!r}")
    for name, n, least in (("n_train", n_train, 1), ("n_test", n_test, 1), ("seed", seed, 0)):
        if type(n) is not int or n < least:  # bool is an int subclass; reject it too
            raise DataFileError(f"pde dataset {path} has {name} = {n!r}, "
                                f"not an integer of at least {least}")
    if not isinstance(seeds, list) or any(type(s) is not int for s in seeds):
        raise DataFileError(f"pde dataset {path} has instance_seeds that are not a list "
                            f"of integers")
    if frames.ndim != 3 or frames.shape[1:] != (2, grid.n_x):
        raise DataFileError(f"frames in {path} have shape {list(frames.shape)}, "
                            f"not [n, 2, {grid.n_x}]")
    if not len(seeds) == n_train + n_test == len(frames):
        raise DataFileError(f"{path} holds {len(frames)} frame pairs, {len(seeds)} "
                            f"instance seeds and n_train + n_test = {n_train} + {n_test}")
    with file_errors(path, "pde dataset"):  # a non-finite frame fails here
        train, test = _splits(frames[:, 0], frames[:, 1], seeds, n_train)
    return PdeDataset(family=family, params=params, grid=grid, seed=seed,
                      train=train, test=test)
