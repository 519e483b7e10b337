import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from crossmodal_pde import pde_data as pd
from crossmodal_pde.pde_data import (
    ADVECTION,
    BURGERS_NS,
    DIFFUSION_REACTION,
    DIFFUSION_SORPTION,
    FrameSplit,
    GridSpec,
    SorptionParams,
    advection_frames_f64,
    build_dataset,
    burgers_solve,
    burgers_step,
    default_grid,
    default_params,
    derive_seed,
    diffusion_reaction_solve,
    diffusion_sorption_solve,
    generate_frames,
    load_dataset,
    periodic_x,
    sorption_x,
)
from crossmodal_pde.container import DataFileError, read_container, write_container
from crossmodal_pde.tensor import ContractError, ShapeError
from crossmodal_pde.transformer import ConfigError


def _one_instance(family, grid, seed):
    """The float32 (input, target) frames of one instance with the family's
    default parameters."""
    inputs, targets = generate_frames(family, grid, default_params(family), [seed])
    return inputs[0], targets[0]


# -- advection -------------------------------------------------------------


def test_advection_target_is_exact_translation():
    grid = GridSpec(n_x=128, t_out=0.5)
    seed = 123
    u0, ut = advection_frames_f64(grid, beta=0.4, seed=seed)
    # independent reconstruction of the same seeded series, shifted by hand
    rng = np.random.default_rng(seed)
    a, b = pd._fourier_coefficients(rng)
    x = periodic_x(128)
    want = np.zeros(128)
    for k in range(1, 6):
        want += a[k - 1] * np.cos(2 * np.pi * k * (x - 0.2)) + b[k - 1] * np.sin(2 * np.pi * k * (x - 0.2))
    assert np.abs(ut - want).max() < 1e-12
    u_in, u_out = _one_instance(ADVECTION, grid, seed)
    np.testing.assert_array_equal(u_in, u0.astype(np.float32))
    np.testing.assert_array_equal(u_out, ut.astype(np.float32))


def test_advection_sin_mode_translates():
    x = periodic_x(64)
    a = np.zeros(5)
    b = np.array([1.0, 0, 0, 0, 0])
    shifted = pd._fourier_eval(a, b, x - 0.2)
    np.testing.assert_allclose(shifted, np.sin(2 * np.pi * (x - 0.2)), atol=1e-12)


def test_advection_beta_zero_identity():
    grid = GridSpec(n_x=64, t_out=0.5)
    u0, ut = advection_frames_f64(grid, beta=0.0, seed=7)
    np.testing.assert_array_equal(u0, ut)


# -- diffusion-reaction ------------------------------------------------------


def test_diffusion_reaction_heat_oracle():
    # rho = 0 reduces to the heat equation with the analytic decay factor
    grid = GridSpec(n_x=128, t_out=0.05)
    x = periodic_x(128)
    u0 = np.sin(2 * np.pi * x)
    got = diffusion_reaction_solve(u0, grid, nu=0.5, rho=0.0)
    want = np.exp(-0.5 * (2 * np.pi) ** 2 * 0.05) * u0
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 1e-3, f"relative L2 error {rel:.2e}"


def test_diffusion_reaction_fixed_points():
    grid = GridSpec(n_x=64, t_out=0.05)
    zeros = diffusion_reaction_solve(np.zeros(64), grid, nu=0.5, rho=1.0)
    np.testing.assert_array_equal(zeros, np.zeros(64))
    ones = diffusion_reaction_solve(np.ones(64), grid, nu=0.5, rho=1.0)
    np.testing.assert_allclose(ones, 1.0, atol=1e-12)


def test_diffusion_reaction_stability_guard():
    grid = GridSpec(n_x=128, t_out=0.05, dt_solver=1.0)
    with pytest.raises(ConfigError):
        _one_instance(DIFFUSION_REACTION, grid, 0)


def test_diffusion_reaction_step_refinement():
    grid = GridSpec(n_x=64, t_out=0.02)
    u0 = _one_instance(DIFFUSION_REACTION, grid, 3)[0].astype(np.float64)
    dt_max = pd.DIFFUSION_STABILITY_LIMIT * grid.dx**2 / 0.5
    coarse = diffusion_reaction_solve(u0, GridSpec(n_x=64, t_out=0.02, dt_solver=0.5 * dt_max), 0.5, 1.0)
    fine = diffusion_reaction_solve(u0, GridSpec(n_x=64, t_out=0.02, dt_solver=0.25 * dt_max), 0.5, 1.0)
    rel = np.linalg.norm(coarse - fine) / np.linalg.norm(fine)
    assert rel < 1e-3


# -- diffusion-sorption -------------------------------------------------------


def test_sorption_c_zero_heat_oracle():
    # c = 0 removes retardation; Dirichlet heat equation has a clean mode solution
    sp = SorptionParams(diffusivity=5e-4, c=0.0, n=0.874)
    grid = GridSpec(n_x=128, t_out=20.0)
    x = sorption_x(128)
    u0 = (1.0 - x) + 0.5 * np.sin(np.pi * x)
    got = diffusion_sorption_solve(u0, grid, sp)
    want = (1.0 - x) + 0.5 * np.exp(-sp.diffusivity * np.pi**2 * 20.0) * np.sin(np.pi * x)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 1e-3


def test_sorption_steady_state():
    sp = SorptionParams(c=0.0)
    grid = GridSpec(n_x=64, t_out=5.0)
    x = sorption_x(64)
    got = diffusion_sorption_solve(1.0 - x, grid, sp)
    np.testing.assert_allclose(got, 1.0 - x, atol=1e-10)


def test_sorption_maximum_principle_sweep():
    grid = GridSpec(n_x=64, t_out=20.0)
    for seed in range(100):
        u_out = _one_instance(DIFFUSION_SORPTION, grid, seed)[1]
        assert u_out.min() >= -1e-9
        assert u_out.max() <= 1.0 + 1e-9


def test_sorption_step_refinement():
    sp = SorptionParams()
    grid = GridSpec(n_x=64, t_out=20.0)
    u0 = _one_instance(DIFFUSION_SORPTION, grid, 5)[0].astype(np.float64)
    coarse = diffusion_sorption_solve(u0, GridSpec(n_x=64, t_out=20.0, dt_solver=0.05), sp)
    fine = diffusion_sorption_solve(u0, GridSpec(n_x=64, t_out=20.0, dt_solver=0.025), sp)
    rel = np.linalg.norm(coarse - fine) / np.linalg.norm(fine)
    assert rel < 1e-3


def _scipy_gtsv(dl, d, du, b):
    """scipy's ``dgtsv`` as an oracle; its wrapper rejects the empty
    off-diagonals of a one-unknown system, so those get an unread dummy."""
    if d.shape[0] == 1:
        dl = du = np.zeros(1)
    _, _, _, x, info = dgtsv(dl, d, du, b)
    return x, info


def _diagonally_dominant_system(n, seed):
    rng = np.random.default_rng(seed)
    dl, du = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
    return dl, rng.uniform(3.0, 4.0, n), du, rng.standard_normal(n)


def _sorption_step_system(rows, n_x, seed):
    """One step's block-diagonal M-matrix system as ``diffusion_sorption_solve``
    forms it: ``rows`` blocks of ``n_x`` unknowns, zero couplings between them."""
    rng = np.random.default_rng(seed)
    coef = rng.uniform(0.5, 80.0, (rows, n_x))
    main = 1.0 + 2.0 * coef
    main[:, 0] = main[:, -1] = 1.0
    off = np.zeros((rows, n_x))
    off[:, 1:-1] = -coef[:, 1:-1]
    flat = off.reshape(-1)
    return flat[1:], main.reshape(-1), flat[:-1], rng.uniform(0.0, 1.0, rows * n_x)


@pytest.fixture(params=["openblas", "scipy_fallback"])
def gtsv_path(request, monkeypatch):
    if request.param == "openblas":
        if getattr(pd._openblas(), "scipy_dgtsv_64_", None) is None:
            pytest.skip("numpy's OpenBLAS with scipy_dgtsv_64_ is not loaded")
    else:
        monkeypatch.setattr(pd, "_openblas", lambda: None)
    return request.param


@pytest.mark.parametrize("n", [1, 2, 128])
def test_gtsv_bits_match_scipy(n, gtsv_path):
    args = _diagonally_dominant_system(n, seed=n)
    before = [a.copy() for a in args]
    x, info = pd._gtsv(*args)
    want, want_info = _scipy_gtsv(*args)
    assert info == want_info == 0
    assert x.dtype == np.float64 and np.array_equal(x, want)
    assert all(np.array_equal(a, b) for a, b in zip(args, before))  # arguments untouched


def test_gtsv_block_diagonal_m_matrix_matches_scipy(gtsv_path):
    args = _sorption_step_system(24, 128, seed=4)
    x, info = pd._gtsv(*args)
    want, want_info = _scipy_gtsv(*args)
    assert info == want_info == 0 and np.array_equal(x, want)
    # zero couplings: each block is solved as it would be alone
    for r in (0, 11, 23):
        block, links = slice(128 * r, 128 * (r + 1)), slice(128 * r, 128 * r + 127)
        alone = pd._gtsv(args[0][links], args[1][block], args[2][links], args[3][block])
        assert np.array_equal(alone[0], x[block])


def test_gtsv_singular_system_reports_info_and_the_solver_raises(gtsv_path, monkeypatch):
    d = np.array([2.0, 0.0, 1.0])
    zeros = np.zeros(2)
    _, info = pd._gtsv(zeros, d, zeros, np.ones(3))
    assert info == _scipy_gtsv(zeros, d, zeros, np.ones(3))[1] == 2
    gtsv = pd._gtsv
    # the solver's own system with a zeroed diagonal has a zero pivot
    monkeypatch.setattr(pd, "_gtsv", lambda dl, d, du, b: gtsv(dl, np.zeros_like(d), du, b))
    with pytest.raises(np.linalg.LinAlgError, match=r"singular \(gtsv info [1-9][0-9]*\)"):
        diffusion_sorption_solve(sorption_x(16), GridSpec(n_x=16, t_out=1.0), SorptionParams())


class _NoForeignCall:
    def __getattr__(self, name):
        raise AssertionError(f"foreign call {name} reached")


_F64 = np.zeros(4)


@pytest.mark.parametrize("args, error", [
    ((_F64[:3], _F64, _F64[:2], _F64), ShapeError),
    ((_F64[:3], _F64, _F64[:3], _F64[:3]), ShapeError),
    ((_F64[:3], _F64.reshape(2, 2), _F64[:3], _F64), ShapeError),
    ((_F64[:0], _F64[:0], _F64[:0], _F64[:0]), ShapeError),
    ((_F64[:3], _F64, _F64[:3], _F64.astype(np.float32)), ContractError),
    ((_F64[:3], _F64.astype(np.int64), _F64[:3], _F64), ContractError),
    ((list(_F64[:3]), _F64, _F64[:3], _F64), ContractError),
], ids=["du_short", "b_short", "d_2d", "empty", "b_float32", "d_int64", "dl_list"])
def test_gtsv_checks_arguments_before_any_foreign_call(args, error, monkeypatch):
    monkeypatch.setattr(pd, "_openblas", lambda: _NoForeignCall())
    with pytest.raises(error):
        pd._gtsv(*args)


def test_build_dataset_scipy_fallback_writes_the_same_file(tmp_path, monkeypatch):
    grid = GridSpec(n_x=32, t_out=20.0)
    build_dataset(DIFFUSION_SORPTION, 6, 4, grid, seed=11, out_path=tmp_path / "default.bin")
    monkeypatch.setattr(pd, "_openblas", lambda: None)
    build_dataset(DIFFUSION_SORPTION, 6, 4, grid, seed=11, out_path=tmp_path / "fallback.bin")
    assert (tmp_path / "default.bin").read_bytes() == (tmp_path / "fallback.bin").read_bytes()


# -- Burgers stand-in ----------------------------------------------------------


def test_burgers_constant_fixed_point():
    grid = GridSpec(n_x=64, t_out=0.5)
    got = burgers_solve(np.full(64, 1.5), grid, nu=0.1)
    np.testing.assert_allclose(got, 1.5, atol=1e-12)


def test_burgers_mean_conserved_per_step():
    rng = np.random.default_rng(0)
    u = rng.normal(size=128)
    dx = 1.0 / 128
    for _ in range(50):
        u_next = burgers_step(u, dx, 1e-4, nu=0.1)
        assert abs(u_next.mean() - u.mean()) < 1e-6
        u = u_next


def test_burgers_step_refinement():
    grid = GridSpec(n_x=128, t_out=0.5)
    u0 = _one_instance(BURGERS_NS, grid, 2)[0].astype(np.float64)
    dt_max = pd.DIFFUSION_STABILITY_LIMIT * grid.dx**2 / 0.1
    coarse = burgers_solve(u0, GridSpec(n_x=128, t_out=0.5, dt_solver=0.5 * dt_max), 0.1)
    fine = burgers_solve(u0, GridSpec(n_x=128, t_out=0.5, dt_solver=0.25 * dt_max), 0.1)
    rel = np.linalg.norm(coarse - fine) / np.linalg.norm(fine)
    assert rel < 1e-3


def test_burgers_stability_guard():
    grid = GridSpec(n_x=128, t_out=0.5, dt_solver=1.0)
    with pytest.raises(ConfigError):
        _one_instance(BURGERS_NS, grid, 0)


# -- dataset files --------------------------------------------------------------


def test_dataset_deterministic_bytes(tmp_path):
    grid = GridSpec(n_x=32, t_out=0.5)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    build_dataset(ADVECTION, 5, 3, grid, seed=11, out_path=p1)
    build_dataset(ADVECTION, 5, 3, grid, seed=11, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_payload_size_arithmetic(tmp_path):
    grid = GridSpec(n_x=128, t_out=0.5)
    path = tmp_path / "adv.bin"
    build_dataset(ADVECTION, 200, 50, grid, seed=1, out_path=path)
    raw = path.read_bytes()
    header_len = raw.index(b"\n") + 1
    assert len(raw) - header_len == 250 * 2 * 128 * 4
    header = json.loads(raw[:header_len].decode("utf-8"))
    assert header["n_train"] == 200 and header["n_test"] == 50
    assert header["family"] == ADVECTION


def test_dataset_round_trip(tmp_path):
    grid = GridSpec(n_x=32, t_out=0.05)
    path = tmp_path / "dr.bin"
    ds = build_dataset(DIFFUSION_REACTION, 4, 2, grid, seed=3, out_path=path)
    back = load_dataset(path)
    assert back.family == ds.family
    assert len(back.train) == 4 and len(back.test) == 2
    for a, b in ((ds.train, back.train), (ds.test, back.test)):
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert a.seeds == b.seeds


def test_train_test_seed_streams_disjoint():
    grid = GridSpec(n_x=32, t_out=0.5)
    ds = build_dataset(ADVECTION, 6, 6, grid, seed=4)
    assert not set(ds.train.seeds) & set(ds.test.seeds)


def test_all_families_generate():
    for family in (ADVECTION, DIFFUSION_REACTION, DIFFUSION_SORPTION, BURGERS_NS):
        grid = pd.default_grid(family, n_x=32)
        u_in, u_out = _one_instance(family, grid, 0)
        assert u_in.shape == (32,) and u_in.dtype == np.float32
        assert u_out.shape == (32,) and u_out.dtype == np.float32


@pytest.mark.parametrize("family", [ADVECTION, DIFFUSION_REACTION, DIFFUSION_SORPTION, BURGERS_NS])
def test_dt_solver_must_be_finite_and_positive(family):
    grid = default_grid(family, n_x=32)
    for bad in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(ConfigError, match="dt_solver"):
            dataclasses.replace(grid, dt_solver=bad)
    assert dataclasses.replace(grid, dt_solver=1e-6).dt_solver == 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["t_in", "t_out"])
def test_grid_times_must_be_finite(name, bad):
    with pytest.raises(ConfigError, match="finite"):
        GridSpec(n_x=32, **{"t_out": 0.5, name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["t_in", "t_out"])
def test_non_finite_grid_time_in_file_is_data_file_error(tmp_path, name, bad):
    path = tmp_path / "adv.bin"
    build_dataset(ADVECTION, 3, 2, GridSpec(n_x=16, t_out=0.5), seed=1, out_path=path)
    _rewrite(path, lambda h, b: h["grid"].update({name: bad}))
    with pytest.raises(DataFileError, match=str(path)):
        load_dataset(path)


# -- frame splits ------------------------------------------------------------------


def test_frame_split_holds_contiguous_float32_rows():
    inputs = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    split = FrameSplit(inputs, inputs + 1.0, seeds=(7, 8, 9))
    assert len(split) == 3 and split.seeds == [7, 8, 9]
    for got, want in ((split.inputs, inputs), (split.targets, inputs + 1.0)):
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert np.array_equal(got, want)


def _with_value(shape, index, value):
    frames = np.zeros(shape)
    frames[index] = value
    return frames


@pytest.mark.parametrize("inputs, targets, seeds, match", [
    (np.zeros(4), np.zeros(4), [0], "shape"),
    (np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), [0], "shape"),
    (np.zeros((2, 4)), np.zeros((2, 6)), [0, 1], "shape"),
    (np.zeros((2, 4)), np.zeros((3, 4)), [0, 1], "shape"),
    (np.zeros((2, 4)), np.zeros((2, 4)), [0], "seeds"),
    (_with_value((2, 4), (1, 2), np.nan), np.zeros((2, 4)), [0, 1], "inputs hold 1 non-finite"),
    (np.zeros((2, 4)), _with_value((2, 4), (0, 0), -np.inf), [0, 1],
     "targets hold 1 non-finite"),
], ids=["1d", "3d", "widths_differ", "counts_differ", "seed_count", "nan_input", "inf_target"])
def test_frame_split_rejects(inputs, targets, seeds, match):
    with pytest.raises(ContractError, match=match):
        FrameSplit(inputs, targets, seeds)


def _rewrite(path, edit):
    """Rewrite a dataset container after ``edit(header, blocks)``."""
    header, blocks = read_container(path)
    edit(header, blocks)
    write_container(path, header, list(blocks.items()))


@pytest.mark.parametrize("edit", [
    lambda h, b: h.pop("grid"),
    lambda h, b: h.pop("instance_seeds"),
    lambda h, b: b.pop("frames"),
    lambda h, b: h["grid"].pop("n_x"),
    lambda h, b: h["grid"].update(dt_solver=0.0),
    lambda h, b: h["params"].update(family="heat"),
    lambda h, b: h["params"].pop("sorption"),
    lambda h, b: h.update(instance_seeds=h["instance_seeds"][:-1]),
    lambda h, b: h.update(n_test=h["n_test"] - 1),
    lambda h, b: h.update(n_train=h["n_train"] + 1),
    lambda h, b: b.update(frames=np.ascontiguousarray(b["frames"][:, 0])),
    lambda h, b: b.update(frames=np.ascontiguousarray(b["frames"][:, :, :-2])),
    lambda h, b: h.update(family="bogus"),
    lambda h, b: h.update(family="diffusion_reaction"),
    lambda h, b: h.update(n_train=str(h["n_train"])),
    lambda h, b: h.update(n_test=float(h["n_test"])),
    lambda h, b: h.update(n_train=True, n_test=h["n_train"] + h["n_test"] - 1),
    lambda h, b: h.update(n_train=-1, n_test=h["n_train"] + h["n_test"] + 1),
    lambda h, b: b["frames"].__setitem__((0, 1, 3), np.nan),
    lambda h, b: b["frames"].__setitem__((4, 0, 0), -np.inf),
    lambda h, b: h.update(n_train=h["n_train"] + h["n_test"], n_test=0),
    lambda h, b: h.update(seed="x"),
    lambda h, b: h.update(seed=1.5),
], ids=["no_grid", "no_instance_seeds", "no_frames_block", "grid_lacks_n_x",
        "grid_dt_solver_zero", "unknown_family", "params_lack_sorption",
        "seeds_shorter_than_frames", "n_test_too_small", "n_train_too_large",
        "frames_2d", "frames_narrower_than_grid", "header_family_unknown",
        "header_family_not_params_family", "n_train_string", "n_test_float",
        "n_train_bool", "n_train_negative", "nan_target", "inf_input", "n_test_zero",
        "seed_string", "seed_float"])
def test_malformed_dataset_is_data_file_error(tmp_path, edit):
    path = tmp_path / "adv.bin"
    build_dataset(ADVECTION, 3, 2, GridSpec(n_x=16, t_out=0.5), seed=1, out_path=path)
    _rewrite(path, edit)
    with pytest.raises(DataFileError, match=str(path)):
        load_dataset(path)


def _load_edited(tmp_path, edit):
    path = tmp_path / "adv.bin"
    build_dataset(ADVECTION, 3, 2, GridSpec(n_x=16, t_out=0.5), seed=1, out_path=path)
    _rewrite(path, lambda h, b: edit(h))
    load_dataset(path)


def test_dataset_header_holding_the_deleted_eta_and_zeta_loads(tmp_path):
    # files written before the two unused parameters were dropped still carry them
    path = tmp_path / "adv.bin"
    ds = build_dataset(ADVECTION, 3, 2, GridSpec(n_x=16, t_out=0.5), seed=1, out_path=path)
    assert sorted(read_container(path)[0]["params"]) == ["beta", "family", "nu", "rho",
                                                         "sorption"]
    _rewrite(path, lambda h, b: h["params"].update(eta=0.1, zeta=0.1))
    back = load_dataset(path)
    assert back.params == ds.params
    np.testing.assert_array_equal(back.train.inputs, ds.train.inputs)
    np.testing.assert_array_equal(back.test.targets, ds.test.targets)


def test_derived_seeds_are_pinned():
    # dataset instances (seed, split stream, index) and experiment pipelines
    # (seed, 7 or 11, role) draw their seeds here: another value would change
    # every dataset file and every run record
    assert [derive_seed(1, 0, 0), derive_seed(1, 1, 2), derive_seed(0, 7, 0),
            derive_seed(0, 11, 1)] == [1835504127, 3005640382, 1369798745, 1729027044]


# a float, null, string or bool where the dataset needs an int
@pytest.mark.parametrize("make, error, match", [
    (lambda tmp: GridSpec(n_x=16.0, t_out=0.5), ConfigError, "n_x must be a positive even int"),
    (lambda tmp: _load_edited(tmp, lambda h: h["grid"].update(n_x=16.0)),
     DataFileError, "adv.bin"),
    (lambda tmp: _load_edited(tmp, lambda h: h.update(
        instance_seeds=["a", None, 1.5, *h["instance_seeds"][3:]])), DataFileError, "adv.bin"),
    (lambda tmp: _load_edited(tmp, lambda h: h.update(
        instance_seeds=[True, *h["instance_seeds"][1:]])), DataFileError, "adv.bin"),
], ids=["grid_spec_n_x_float", "file_n_x_float", "file_seeds_str_null_float", "file_seed_bool"])
def test_dataset_integers_must_be_ints(tmp_path, make, error, match):
    with pytest.raises(error, match=match):
        make(tmp_path)


# -- batched solves against the one-instance code they replaced ------------------
#
# The solvers step all instances of a dataset as one [m, n_x] array. The
# functions below are the one-instance solvers and initial frames from before
# that change, kept as oracles: every row must match them bit for bit.


def _old_laplacian(u, dx):
    return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)


def _old_reaction_solve(u0, grid, nu, rho):
    dt, steps = pd._resolve_dt(grid, pd.DIFFUSION_STABILITY_LIMIT * grid.dx**2 / nu)
    u = u0.astype(np.float64).copy()
    for _ in range(steps):
        u = u + dt * (nu * _old_laplacian(u, grid.dx) + rho * u * (1.0 - u))
    return u


def _old_sorption_solve(u0, grid, sp):
    n_x = grid.n_x
    dx = 1.0 / (n_x - 1)
    dt = grid.dt_solver if grid.dt_solver is not None else (grid.t_out - grid.t_in) / 400.0
    steps = max(1, int(np.ceil((grid.t_out - grid.t_in) / dt)))
    dt = (grid.t_out - grid.t_in) / steps
    u = u0.astype(np.float64).copy()
    u[0], u[-1] = 1.0, 0.0
    for _ in range(steps):
        coef = dt * sp.diffusivity / (pd._retardation(u, sp.c, sp.n) * dx * dx)
        ab = np.zeros((3, n_x))
        ab[1, :] = 1.0 + 2.0 * coef
        ab[0, 1:] = -coef[:-1]
        ab[2, :-1] = -coef[1:]
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = ab[2, -2] = 0.0
        rhs = u.copy()
        rhs[0], rhs[-1] = 1.0, 0.0
        u = solve_banded((1, 1), ab, rhs)
    return u


def _old_burgers_step(u, dx, dt, nu):
    f = 0.5 * u * u
    u_r = np.roll(u, -1)
    a = np.maximum(np.abs(u), np.abs(u_r))
    flux = 0.5 * (f + np.roll(f, -1)) - 0.5 * a * (u_r - u)
    div = (flux - np.roll(flux, 1)) / dx
    return u + dt * (-div + nu * _old_laplacian(u, dx))


def _old_burgers_plan(u0, grid, nu):
    umax = max(1e-12, float(np.abs(u0).max()))
    return pd._resolve_dt(grid, min(pd.DIFFUSION_STABILITY_LIMIT * grid.dx**2 / nu,
                                    pd.DIFFUSION_STABILITY_LIMIT * grid.dx / umax))


def _old_burgers_solve(u0, grid, nu):
    dt, steps = _old_burgers_plan(u0, grid, nu)
    u = u0.astype(np.float64).copy()
    for _ in range(steps):
        u = _old_burgers_step(u, grid.dx, dt, nu)
    return u


def _old_instance_frames(family, grid, params, seed):
    rng = np.random.default_rng(seed)
    a, b = pd._fourier_coefficients(rng)
    if family == DIFFUSION_REACTION:
        u0 = np.clip(0.5 + 0.5 * pd._fourier_eval(a, b, periodic_x(grid.n_x)), 0.0, 1.0)
        return u0, _old_reaction_solve(u0, grid, params.nu, params.rho)
    if family == DIFFUSION_SORPTION:
        x = sorption_x(grid.n_x)
        u0 = np.clip((1.0 - x) + 0.4 * np.sin(np.pi * x) * pd._fourier_eval(a, b, x), 0.0, 1.0)
        u0[0], u0[-1] = 1.0, 0.0
        return u0, _old_sorption_solve(u0, grid, params.sorption)
    u0 = pd._fourier_eval(a, b, periodic_x(grid.n_x))
    return u0, _old_burgers_solve(u0, grid, params.nu)


@pytest.mark.parametrize("family, grid", [
    (DIFFUSION_REACTION, GridSpec(n_x=32, t_out=0.05)),
    (DIFFUSION_SORPTION, GridSpec(n_x=32, t_out=20.0)),
    (DIFFUSION_SORPTION, GridSpec(n_x=32, t_out=20.0, dt_solver=0.3)),
    (BURGERS_NS, GridSpec(n_x=32, t_out=0.2)),
], ids=["reaction", "sorption", "sorption_dt_solver", "burgers"])
def test_build_dataset_equals_one_instance_solves(family, grid):
    params = default_params(family)
    ds = build_dataset(family, 4, 3, grid, params=params, seed=9)
    for split in (ds.train, ds.test):
        for u_in, u_out, seed in zip(split.inputs, split.targets, split.seeds):
            u0, ut = _old_instance_frames(family, grid, params, seed)
            assert np.array_equal(u_in, u0.astype(np.float32))
            assert np.array_equal(u_out, ut.astype(np.float32))
            assert np.array_equal(generate_frames(family, grid, params, [seed])[1][0], u_out)


def test_sorption_steps_that_pivot_equal_row_solves():
    # without retardation at this step size coef > 1, so gtsv swaps each
    # boundary row with its neighbour and returns the pinned 1 off by ~1e-12;
    # every step must still solve against the exact boundary values
    sp = SorptionParams(c=0.0)
    grid = GridSpec(n_x=128, t_out=500.0)
    rows = np.random.default_rng(6).uniform(0.0, 1.0, size=(3, 128))
    got = diffusion_sorption_solve(rows, grid, sp)
    assert np.any(got[:, 0] != 1.0)  # the last solve pivoted
    want = np.stack([_old_sorption_solve(r, grid, sp) for r in rows])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("family, grid", [
    (DIFFUSION_REACTION, GridSpec(n_x=32, t_out=0.05)),
    (DIFFUSION_SORPTION, GridSpec(n_x=32, t_out=20.0, dt_solver=0.3)),
    (BURGERS_NS, GridSpec(n_x=32, t_out=0.2)),
], ids=["reaction", "sorption_dt_solver", "burgers"])
def test_batched_solver_float64_equals_row_solves(family, grid):
    params = default_params(family)
    rows = np.stack([_old_instance_frames(family, grid, params, s)[0] for s in range(5)])
    got = pd._solve(family, rows, grid, params)
    want = np.stack([_old_instance_frames(family, grid, params, s)[1] for s in range(5)])
    assert got.shape == rows.shape and np.array_equal(got, want)


def test_burgers_batch_with_two_step_plans():
    grid = GridSpec(n_x=32, t_out=0.05)
    u0 = pd._fourier_eval(*pd._fourier_coefficients(np.random.default_rng(4)), periodic_x(32))
    rows = np.stack([u0, 10.0 * u0])
    # the CFL bound bites on the scaled row only, so the rows need different steps
    assert np.abs(u0).max() < 0.1 / grid.dx < 10.0 * np.abs(u0).max()
    plans = [_old_burgers_plan(r, grid, 0.1) for r in rows]
    assert plans[0] != plans[1]
    got = burgers_solve(rows, grid, nu=0.1)
    for row, want in zip(got, (_old_burgers_solve(r, grid, 0.1) for r in rows)):
        assert np.array_equal(row, want)
