import numpy as np
import pytest

from crossmodal_pde import proxy_data
from crossmodal_pde.pde_data import FrameSplit, GridSpec, PdeDataset, build_dataset, default_params
from crossmodal_pde.transformer import DECODER_ONLY, ModelConfig, build_model


def make_model(arch=DECODER_ONLY, d_model=32, n_layers=2, max_positions=128, seed=3, **kw):
    return build_model(ModelConfig(arch=arch, d_model=d_model, n_heads=4, n_layers=n_layers,
                                   d_ff=2 * d_model, max_positions=max_positions,
                                   vocab_size=64, seed=seed, **kw))


def identity_dataset(n_train=12, n_test=4, n_x=32, seed=0):
    """Synthetic task where target equals input (smooth seeded frames)."""
    grid = GridSpec(n_x=n_x, t_out=0.5)
    params = default_params("advection", beta=0.0)
    rng = np.random.default_rng(seed)
    x = np.arange(n_x) / n_x

    def split(seeds):
        u = np.zeros((len(seeds), n_x))
        for row in u:
            for k in range(1, 4):
                row += rng.normal() / k * np.sin(2 * np.pi * k * x) + rng.normal() / k * np.cos(2 * np.pi * k * x)
        u32 = u.astype(np.float32)
        return FrameSplit(inputs=u32, targets=u32.copy(), seeds=seeds)

    train = split(range(n_train))  # drawn before the test split
    return PdeDataset(family="advection", params=params, grid=grid, seed=seed,
                      train=train, test=split(range(1000, 1000 + n_test)))


@pytest.fixture
def small_advection_dataset():
    return build_dataset("advection", 8, 4, GridSpec(n_x=32, t_out=0.5), seed=7)


@pytest.fixture
def proxy_forwards(monkeypatch):
    """Count build_proxy_set's forward passes, starting from an empty proxy slot."""
    calls = []
    forward = proxy_data.forward_hidden

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(proxy_data, "forward_hidden", counted)
    monkeypatch.setattr(proxy_data, "_last_proxy", {})
    return calls
