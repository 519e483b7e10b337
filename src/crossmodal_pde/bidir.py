"""Bidirectionality simulation for causal pipelines: Parallel Flipping runs
the pipeline on original and reversed sequences, one after the other, and
keeps each run's rich-context half; Sequence Doubling feeds each sequence
concatenated with itself and predicts from the second half of the last hidden
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .adaptation import (
    BIDIR_NONE,
    AdaptationConfig,
    AdaptationReport,
    Embedder,
    Pipeline,
    Predictor,
    predict_sequence,
    run_adaptation,
)
from .pde_data import PdeDataset, PdeInstance
from .proxy_data import ProxyEmbeddingSet
from .tensor import Tensor
from .transformer import LengthError, TransformerModel, forward_hidden


def flip(x: np.ndarray) -> np.ndarray:
    """Reverse along the position axis (involution)."""
    return np.ascontiguousarray(np.asarray(x)[::-1])


def combine_halves(p_forward: np.ndarray, p_reversed_domain: np.ndarray) -> np.ndarray:
    """Merge the two runs' predictions: first half from the reversed run
    (mapped back to original coordinates), second half from the forward run.

    The second half of the output is bitwise the forward prediction's.
    """
    p_forward = np.asarray(p_forward)
    p_reversed_domain = np.asarray(p_reversed_domain)
    L = p_forward.shape[0]
    if L % 2 != 0 or p_reversed_domain.shape[0] != L:
        raise LengthError("combine_halves needs matching even-length predictions")
    q = flip(p_reversed_domain)
    return np.concatenate([q[: L // 2], p_forward[L // 2:]], axis=0)


@dataclass
class FlipPair:
    """Two independently-parameterized pipelines: one trained on the original
    sequences, one on the reversed sequences."""

    forward_pipeline: Pipeline
    reversed_pipeline: Pipeline

    def predict(self, x: np.ndarray) -> np.ndarray:
        fwd = self.forward_pipeline
        rev = self.reversed_pipeline
        with T.no_grad():
            p_f = predict_sequence(fwd.model, fwd.embedder, fwd.predictor, x,
                                   bidir_method=BIDIR_NONE).data
            p_r = predict_sequence(rev.model, rev.embedder, rev.predictor, flip(x),
                                   bidir_method=BIDIR_NONE).data
        return combine_halves(p_f, p_r)


def flip_instance(inst: PdeInstance) -> PdeInstance:
    return PdeInstance(input=Tensor(flip(inst.input.data)),
                       target=Tensor(flip(inst.target.data)),
                       params=inst.params, grid=inst.grid, seed=inst.seed)


def flip_dataset(dataset: PdeDataset) -> PdeDataset:
    return PdeDataset(family=dataset.family, params=dataset.params, grid=dataset.grid,
                      seed=dataset.seed,
                      train=[flip_instance(i) for i in dataset.train],
                      test=[flip_instance(i) for i in dataset.test])


def parallel_flipping_train(forward_pipeline: Pipeline, reversed_pipeline: Pipeline,
                            dataset: PdeDataset, config: AdaptationConfig,
                            proxy: ProxyEmbeddingSet | None = None,
                            proxy_reversed: ProxyEmbeddingSet | None = None,
                            ) -> tuple[FlipPair, AdaptationReport, AdaptationReport]:
    """Run the full adaptation twice, one run after the other: on the original
    data, then on the flipped data (reversed pipeline).  The two runs share a
    config but no parameters.

    Each report's ``train.final_test_predictions`` holds its pipeline's test
    predictions (the reversed run's in flipped coordinates), so
    ``combine_halves`` of the pair equals ``FlipPair.predict`` on each test
    input.

    The proxy side is never flipped (language features carry no spatial
    orientation); ``proxy_reversed`` is the reversed pipeline's own model
    embedding of the corpus, which ORCA needs as well as ``proxy``.
    """
    sub = replace(config, bidir_method=BIDIR_NONE)
    sub_rev = replace(sub, seed=config.seed + 1)
    rep_f = run_adaptation(forward_pipeline, dataset, sub, proxy)
    rep_r = run_adaptation(reversed_pipeline, flip_dataset(dataset), sub_rev, proxy_reversed)
    return FlipPair(forward_pipeline, reversed_pipeline), rep_f, rep_r


def sequence_doubling_forward(model: TransformerModel, embedder: Embedder,
                              predictor: Predictor, x: np.ndarray,
                              restart_positions: bool = False) -> Tensor:
    """Concatenate the frame with itself, run the model on 2L tokens, and
    predict from the second half of the last hidden layer.

    Positions run 0..2L-1 by default; ``restart_positions`` replays 0..L-1
    for the second copy (ablation: the copies become indistinguishable).
    """
    frame = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float32)
    if frame.ndim == 1:
        frame = frame[:, None]
    L = frame.shape[0]
    if 2 * L > model.config.max_positions:
        raise LengthError(f"sequence doubling needs max_positions >= {2 * L}")
    doubled = np.concatenate([frame, frame], axis=0)
    positions = None
    if restart_positions:
        positions = np.concatenate([np.arange(L), np.arange(L)])
    hidden = forward_hidden(model, embedder(doubled), model.config.mask_policy,
                            positions=positions)
    return predictor(T.slice_rows(hidden, L, 2 * L))
