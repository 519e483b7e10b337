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
    as_batch,
    predict_sequence,
    run_adaptation,
)
from .pde_data import FrameSplit, PdeDataset
from .proxy_data import SyntheticCorpus
from .tensor import Tensor
from .transformer import LengthError, TransformerModel, forward_hidden


def flip(x: np.ndarray) -> np.ndarray:
    """Reverse along the last axis, which holds the positions (involution)."""
    return np.ascontiguousarray(np.asarray(x)[..., ::-1])


def combine_halves(p_forward: np.ndarray, p_reversed_domain: np.ndarray) -> np.ndarray:
    """Merge the two runs' predictions ([L] or [B, L]): first half of the
    positions from the reversed run (mapped back to original coordinates),
    second half from the forward run.

    The second half of the output is bitwise the forward prediction's.
    """
    L = p_forward.shape[-1]
    if L % 2 != 0 or p_reversed_domain.shape != p_forward.shape:
        raise LengthError("combine_halves needs matching even-length predictions")
    q = flip(p_reversed_domain)
    return np.concatenate([q[..., : L // 2], p_forward[..., L // 2:]], axis=-1)


@dataclass
class FlipPair:
    """Two independently-parameterized pipelines: one trained on the original
    sequences, one on the reversed sequences."""

    forward_pipeline: Pipeline
    reversed_pipeline: Pipeline

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Combined [B, L] prediction of a batch of frames [B, L]: each frame
        and its reversal are predicted by their own pipeline."""
        fwd, rev = self.forward_pipeline, self.reversed_pipeline
        with T.no_grad():
            p_f = predict_sequence(fwd.model, fwd.embedder, fwd.predictor, x,
                                   bidir_method=BIDIR_NONE).data
            p_r = predict_sequence(rev.model, rev.embedder, rev.predictor, flip(x),
                                   bidir_method=BIDIR_NONE).data
        return combine_halves(p_f, p_r)


def flip_dataset(dataset: PdeDataset) -> PdeDataset:
    """``dataset`` with every input and target frame reversed; seeds are kept."""
    def flipped(split: FrameSplit) -> FrameSplit:
        return FrameSplit(flip(split.inputs), flip(split.targets), split.seeds)

    return replace(dataset, train=flipped(dataset.train), test=flipped(dataset.test))


def parallel_flipping_train(pair: FlipPair, dataset: PdeDataset, config: AdaptationConfig,
                            corpus: SyntheticCorpus | None = None,
                            ) -> tuple[AdaptationReport, AdaptationReport]:
    """Run the full adaptation twice, one run after the other: the pair's
    forward pipeline on the original data, then its reversed pipeline on the
    flipped data.  The two runs share a config but no parameters; the reports
    come back in that order.  ``pair.predict`` then predicts with both.

    Under ORCA each run aligns to its own model's embedding of ``corpus``,
    which is never flipped (language features carry no spatial orientation).
    """
    sub = replace(config, bidir_method=BIDIR_NONE)
    sub_rev = replace(sub, seed=config.seed + 1)
    rep_f = run_adaptation(pair.forward_pipeline, dataset, sub, corpus)
    rep_r = run_adaptation(pair.reversed_pipeline, flip_dataset(dataset), sub_rev, corpus)
    return rep_f, rep_r


def sequence_doubling_forward(model: TransformerModel, embedder: Embedder,
                              predictor: Predictor, x: np.ndarray) -> Tensor:
    """Concatenate each frame with itself, run the model on 2L tokens, and
    predict from the second half of the last hidden layer.

    ``x`` is a batch of frames [B, L], predicted as [B, L]: it runs as one
    ``forward_hidden`` with ``lengths=[2L]*B`` and ``keep_from=L``, so the last
    layer computes only the second halves it predicts from (every row still
    serves as a key and value), bitwise the full forward's rows.  Positions
    run 0..2L-1, so 2L above ``max_positions`` raises ``LengthError`` there.
    """
    frames = as_batch(x)
    B, L = frames.shape
    doubled = np.concatenate([frames, frames], axis=1)
    hidden = forward_hidden(model, embedder(doubled), lengths=[2 * L] * B, keep_from=L)
    return predictor(hidden, B)
