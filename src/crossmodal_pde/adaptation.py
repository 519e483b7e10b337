"""FPT and ORCA cross-modal adaptation: task-specific embedder/predictor,
the model parameters each method trains, stage-1 OTDD alignment, and
supervised fine-tuning.

Stage 1 (ORCA) trains only the embedder, comparing its outputs directly to
the model's own embedding of the source corpus.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .otdd import (
    ClassMoments,
    LabeledPointCloud,
    SinkhornParams,
    compute_class_moments,
    otdd_distance,
)
from .pde_data import (
    ADVECTION,
    BURGERS_NS,
    DIFFUSION_REACTION,
    DIFFUSION_SORPTION,
    FrameSplit,
    PdeDataset,
)
from .proxy_data import SyntheticCorpus, build_proxy_set
from .tensor import ContractError, OptimizerState, Tensor
from .transformer import LengthError, TransformerModel, forward_hidden

FPT = "fpt"
ORCA = "orca"

BIDIR_NONE = "none"
PARALLEL_FLIPPING = "parallel_flipping"
SEQUENCE_DOUBLING = "sequence_doubling"
BIDIR_METHODS = (BIDIR_NONE, PARALLEL_FLIPPING, SEQUENCE_DOUBLING)

# dataset -> optimizer mapping from the benchmark configuration table
OPTIMIZER_BY_FAMILY = {
    ADVECTION: "adam",
    DIFFUSION_REACTION: "sgd",
    DIFFUSION_SORPTION: "adamw",
    BURGERS_NS: "adamw",
}

DEFAULT_LR = {"adam": 1e-3, "adamw": 1e-3, "sgd": 1e-2}
DEFAULT_WEIGHT_DECAY = 0.01


@dataclass
class _Affine:
    """A trainable ``x @ w + b`` map, ``w`` drawn from N(0, 0.02²), ``b`` zero."""

    w: Tensor  # [n_in, n_out]
    b: Tensor  # [n_out]

    @classmethod
    def _draw(cls, n_in: int, n_out: int, seed: int):
        w = np.random.default_rng(seed).normal(0.0, 0.02, size=(n_in, n_out))
        return cls(w=Tensor(w, requires_grad=True),
                   b=Tensor(np.zeros(n_out), requires_grad=True))

    def params(self) -> list[Tensor]:
        return [self.w, self.b]


class Embedder(_Affine):
    """Per-token linear map from a frame value into the model width."""

    @classmethod
    def create(cls, d_model: int, seed: int) -> "Embedder":
        return cls._draw(1, d_model, seed)

    def __call__(self, values: np.ndarray) -> Tensor:
        """One token per value, in row-major order: [values.size, d_model]."""
        tokens = np.asarray(values, dtype=np.float32).reshape(-1, 1)
        return T.add(T.matmul(Tensor(tokens), self.w), self.b)


class Predictor(_Affine):
    """Per-token linear map from hidden states to frame values."""

    @classmethod
    def create(cls, d_model: int, seed: int) -> "Predictor":
        return cls._draw(d_model, 1, seed)

    def __call__(self, hidden: Tensor, batch: int = 1) -> Tensor:
        """The ``batch`` equal-length sequences stacked in ``hidden`` as [batch, L]."""
        return T.reshape(T.add(T.matmul(hidden, self.w), self.b), (batch, -1))


@dataclass
class Pipeline:
    model: TransformerModel
    embedder: Embedder
    predictor: Predictor

    @classmethod
    def create(cls, model: TransformerModel, seed: int) -> "Pipeline":
        d = model.config.d_model
        return cls(model=model, embedder=Embedder.create(d, seed),
                   predictor=Predictor.create(d, seed + 1))


@dataclass
class AdaptationConfig:
    method: str = FPT
    bidir_method: str = BIDIR_NONE
    optimizer: str | None = None  # None: family mapping; override is recorded in reports
    learning_rate: float | None = None  # None: per-optimizer default
    weight_decay: float = DEFAULT_WEIGHT_DECAY
    epochs: int = 100
    batch_size: int = 16
    stage1_steps: int = 100
    stage1_lr: float = 1e-3
    stage1_batch_instances: int = 8
    otdd_batch: int = 128
    pseudo_label_bins: int = 10
    sinkhorn_max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.method not in (FPT, ORCA):
            raise ContractError(f"unknown adaptation method {self.method!r}")
        if self.bidir_method not in BIDIR_METHODS:
            raise ContractError(f"unknown bidir method {self.bidir_method!r}")
        if self.optimizer is not None and self.optimizer not in T.OPTIMIZER_KINDS:
            raise ContractError(f"optimizer must be one of {', '.join(T.OPTIMIZER_KINDS)}, "
                                f"got {self.optimizer!r}")
        floors = {"epochs": 0, "stage1_steps": 0, "batch_size": 1, "stage1_batch_instances": 1,
                  "otdd_batch": 1, "sinkhorn_max_iters": 1, "pseudo_label_bins": 2,
                  "weight_decay": 0}
        for name, floor in floors.items():
            value = getattr(self, name)
            if not value >= floor:  # also rejects a NaN
                raise ContractError(f"{name} must be >= {floor}, got {value!r}")
        for name in ("learning_rate", "stage1_lr"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ContractError(f"{name} must be > 0, got {value!r}")

    def resolve_optimizer(self, family: str) -> tuple[str, float, bool]:
        """Return (kind, learning rate, overridden?) per the family mapping."""
        if self.optimizer is not None:
            kind, overridden = self.optimizer, self.optimizer != OPTIMIZER_BY_FAMILY.get(family)
        else:
            kind, overridden = OPTIMIZER_BY_FAMILY[family], False
        lr = self.learning_rate if self.learning_rate is not None else DEFAULT_LR[kind]
        return kind, lr, overridden


def trained_parameters(model: TransformerModel, method: str) -> list[Tensor]:
    """The model parameters fine-tuning under ``method`` trains, in model order.

    FPT (Lu et al., AAAI 2022) trains the layer norms of a frozen body; ORCA
    (Shen et al., ICML 2023) trains the whole body.  Neither trains the token
    embedding or the lm head: the task embedder and predictor replace them,
    so they sit outside the task graph.
    """
    if method == FPT:
        return [p for n, p in model.params.items()
                if ".ln1." in n or ".ln2." in n or n.startswith("final_ln.")]
    if method == ORCA:
        return [p for n, p in model.params.items() if n not in ("tok_emb", "lm_head")]
    raise ContractError(f"unknown adaptation method {method!r}")


@contextlib.contextmanager
def frozen_except(model: TransformerModel, trained: list[Tensor]):
    """Take every model parameter outside ``trained`` off the tape for the block.

    Those parameters get ``requires_grad=False``, so ``backward`` forms no
    gradient for them and ops that read only them build no tape; a gradient
    left on them by an earlier phase is dropped.  Their flags are restored on
    exit, also when the block raises.
    """
    keep = {id(p) for p in trained}
    frozen = [p for p in model.params.values() if p.requires_grad and id(p) not in keep]
    for p in frozen:
        p.requires_grad = False
        p.grad = None
    try:
        yield
    finally:
        for p in frozen:
            p.requires_grad = True


# -- pseudo labels ----------------------------------------------------------


@dataclass
class PseudoLabels:
    labels: np.ndarray  # [n_instances, L] int64 bin per target token
    edges: np.ndarray  # [K-1] bin boundaries from the train split
    bins: int
    degenerate: bool


def pseudo_label_targets(targets: np.ndarray, bins: int = 10) -> PseudoLabels:
    """Quantize target values ([n, L] frames) into equal-mass bins fit on them.

    Rank-based, so labels are invariant under strictly monotone transforms of
    the targets.  Constant targets collapse to bin 0 with the degenerate flag.
    """
    if bins < 2:
        raise ContractError("need at least 2 bins")
    if np.ptp(targets) == 0.0:
        return PseudoLabels(labels=np.zeros(targets.shape, dtype=np.int64),
                            edges=np.zeros(bins - 1, dtype=np.float64),
                            bins=bins, degenerate=True)
    qs = np.arange(1, bins) / bins
    edges = np.quantile(targets.astype(np.float64), qs)
    labels = np.searchsorted(edges, targets.astype(np.float64), side="right")
    return PseudoLabels(labels=labels.astype(np.int64), edges=edges, bins=bins, degenerate=False)


# -- prediction --------------------------------------------------------------


def as_batch(x: np.ndarray) -> np.ndarray:
    """``x`` as a [B, L] float32 batch of frames; any other shape raises
    ``ShapeError``."""
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != 2:
        raise T.ShapeError(f"expected a batch of frames [B, L], got shape {arr.shape}")
    return arr


def predict_sequence(model: TransformerModel, embedder: Embedder, predictor: Predictor,
                     x: np.ndarray, bidir_method: str = BIDIR_NONE) -> Tensor:
    """Predict an output frame per input frame; bidir methods wrap the base path.

    ``x`` is a batch of equal-length frames [B, L], predicted as [B, L] by one
    ``forward_hidden`` over all B*L rows (``lengths=[L]*B``, no padding).
    Each batch row equals its frame's own forward (bitwise at head width 16).
    Parallel flipping combines two pipelines, so it is predicted by
    ``bidir.FlipPair``, not here.
    """
    from . import bidir

    frames = as_batch(x)
    B, L = frames.shape
    if L % 2 != 0:
        raise LengthError("sequence length must be even")
    if bidir_method == BIDIR_NONE:
        hidden = forward_hidden(model, embedder(frames), lengths=[L] * B)
        return predictor(hidden, B)
    if bidir_method == SEQUENCE_DOUBLING:
        return bidir.sequence_doubling_forward(model, embedder, predictor, frames)
    if bidir_method == PARALLEL_FLIPPING:
        raise ContractError("parallel flipping combines two pipelines; predict with bidir.FlipPair")
    raise ContractError(f"unknown bidir method {bidir_method!r}")


# -- ORCA stage 1 --------------------------------------------------------------


@dataclass
class Stage1Report:
    trace: list[float]
    steps: int
    converged_fraction: float
    degenerate_labels: bool


def orca_stage1(model: TransformerModel, embedder: Embedder, corpus: SyntheticCorpus,
                dataset: PdeDataset, config: AdaptationConfig) -> Stage1Report:
    """Train the embedder alone to minimize OTDD between its outputs on the
    train inputs and the model's embedding of ``corpus`` (``build_proxy_set``).

    Only the embedder's outputs and the corpus embedding, built off the tape,
    reach OTDD, so no model parameter enters the tape: the transformer body
    and predictor get no gradient and no update.
    """
    pseudo = pseudo_label_targets(dataset.train.targets, bins=config.pseudo_label_bins)
    inputs = dataset.train.inputs
    n, L = inputs.shape

    proxy = build_proxy_set(model, corpus)
    proxy_moments: ClassMoments = compute_class_moments(proxy)
    sk_params = SinkhornParams(epsilon=0.0, max_iters=config.sinkhorn_max_iters)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 101)))
    opt = OptimizerState(kind="adam", learning_rate=config.stage1_lr)
    emb_params = embedder.params()
    trace: list[float] = []
    converged = 0
    for _ in range(config.stage1_steps):
        inst_idx = rng.choice(n, size=min(config.stage1_batch_instances, n), replace=False)
        flat_idx = rng.choice(len(inst_idx) * L,
                              size=min(config.otdd_batch, len(inst_idx) * L), replace=False)
        tokens = inputs[inst_idx].reshape(-1)[flat_idx]
        labels = pseudo.labels[inst_idx].reshape(-1)[flat_idx]

        target_cloud = LabeledPointCloud(points=embedder(tokens), labels=labels,
                                         class_count=pseudo.bins)

        prox_idx = rng.choice(len(proxy), size=min(config.otdd_batch, len(proxy)),
                              replace=False)
        proxy_batch = LabeledPointCloud(points=Tensor(proxy.points.data[prox_idx]),
                                        labels=proxy.labels[prox_idx],
                                        class_count=proxy.class_count)

        T.zero_grads(emb_params)
        res = otdd_distance(target_cloud, proxy_batch, sk_params,
                            proxy_moments=proxy_moments)
        res.cost.backward()
        T.optimizer_step(opt, emb_params)
        trace.append(res.cost.item())
        converged += int(res.converged)
    frac = converged / config.stage1_steps if config.stage1_steps else 1.0
    return Stage1Report(trace=trace, steps=config.stage1_steps, converged_fraction=frac,
                        degenerate_labels=pseudo.degenerate)


# -- fine-tuning ----------------------------------------------------------------


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    initial_test_nrmse: float = float("nan")
    final_test_nrmse: float = float("nan")
    # [n_test, L] predictions scored by initial_test_nrmse and final_test_nrmse
    initial_test_predictions: np.ndarray | None = field(default=None, repr=False)
    final_test_predictions: np.ndarray | None = field(default=None, repr=False)
    optimizer: str = ""
    learning_rate: float = 0.0
    optimizer_overridden: bool = False
    epochs_run: int = 0
    aborted: bool = False
    abort_reason: str = ""


def instance_nrmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Scale-independent error for one instance: ||pred-truth|| / ||truth||,
    accumulated at 64-bit."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise ContractError(f"shape mismatch {pred.shape} vs {truth.shape}")
    num = np.linalg.norm((pred - truth).astype(np.float64))
    den = np.linalg.norm(truth.astype(np.float64))
    if den == 0.0:
        raise ContractError("nRMSE undefined for zero-norm truth")
    return float(num / den)


def mean_nrmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean over instances of ``instance_nrmse`` of each prediction row
    against its target row; row counts that differ raise ``ShapeError``."""
    if len(predictions) != len(targets):
        raise T.ShapeError(f"{len(predictions)} predictions for {len(targets)} targets")
    return float(np.mean([instance_nrmse(p, t) for p, t in zip(predictions, targets)]))


def evaluate_nrmse(model: TransformerModel, embedder: Embedder, predictor: Predictor,
                   split: FrameSplit, bidir_method: str = BIDIR_NONE,
                   batch_size: int = 16) -> tuple[float, np.ndarray]:
    """Mean nRMSE over the instances of ``split`` and the [n, L] predictions
    it scored.

    The inputs are predicted as no-grad batches of ``batch_size`` (a
    fine-tune step's size), not as one batch, so evaluation holds no more
    activations than a training step.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    with T.no_grad():
        preds = np.concatenate([
            predict_sequence(model, embedder, predictor, split.inputs[lo: lo + batch_size],
                             bidir_method=bidir_method).data
            for lo in range(0, len(split), batch_size)])
    return mean_nrmse(preds, split.targets), preds


def finetune(model: TransformerModel, embedder: Embedder, predictor: Predictor,
             dataset: PdeDataset, config: AdaptationConfig) -> TrainReport:
    """Minimize MSE on train frames; report test nRMSE.

    It trains the embedder, the predictor and the model parameters
    ``trained_parameters(model, config.method)`` names; every other model
    parameter stays off the tape (``frozen_except``).

    Each step is one tape: the batch's frames go through one batched
    ``predict_sequence``, one MSE over the stacked targets and one
    ``backward``.  Only ``none`` and ``sequence_doubling`` run here; parallel
    flipping trains two of these pipelines via the bidir module.
    """
    if config.bidir_method == PARALLEL_FLIPPING:
        raise ContractError("finetune trains a single pipeline; use parallel_flipping_train")
    if not dataset.train:
        raise ContractError("empty training set")
    kind, lr, overridden = config.resolve_optimizer(dataset.family)
    report = TrainReport(optimizer=kind, learning_rate=lr, optimizer_overridden=overridden)

    def evaluate() -> tuple[float, np.ndarray]:
        return evaluate_nrmse(model, embedder, predictor, dataset.test,
                              bidir_method=config.bidir_method, batch_size=config.batch_size)

    report.initial_test_nrmse, report.initial_test_predictions = evaluate()
    inputs, targets = dataset.train.inputs, dataset.train.targets
    params = trained_parameters(model, config.method) + embedder.params() + predictor.params()
    wd = config.weight_decay if kind == "adamw" else 0.0
    opt = OptimizerState(kind=kind, learning_rate=lr, weight_decay=wd)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 202)))
    n = len(dataset.train)
    with frozen_except(model, params):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for lo in range(0, n, config.batch_size):
                batch = order[lo: lo + config.batch_size]
                T.zero_grads(params)
                pred = predict_sequence(model, embedder, predictor, inputs[batch],
                                        bidir_method=config.bidir_method)
                loss = T.tmean(T.square(T.sub(pred, Tensor(targets[batch]))))
                if not np.isfinite(loss.data):
                    report.aborted = True
                    report.abort_reason = (f"non-finite loss at epoch {epoch} "
                                           f"(optimizer={kind}, lr={lr})")
                    break
                loss.backward()
                T.optimizer_step(opt, params)
                epoch_loss += loss.item()
                n_batches += 1
            if report.aborted:
                break
            report.epoch_losses.append(epoch_loss / max(1, n_batches))
            report.epochs_run = epoch + 1
    report.final_test_nrmse, report.final_test_predictions = evaluate()
    return report


@dataclass
class AdaptationReport:
    stage1: Stage1Report | None
    train: TrainReport


def run_adaptation(pipeline: Pipeline, dataset: PdeDataset, config: AdaptationConfig,
                   corpus: SyntheticCorpus | None = None) -> AdaptationReport:
    """Full FPT or ORCA adaptation of one pipeline on one dataset.  ORCA
    needs the source ``corpus``: stage 1 aligns the embedder to the
    pipeline's own model's embedding of it."""
    stage1 = None
    if config.method == ORCA:
        if corpus is None:
            raise ContractError("ORCA needs a source corpus")
        stage1 = orca_stage1(pipeline.model, pipeline.embedder, corpus, dataset, config)
    train = finetune(pipeline.model, pipeline.embedder, pipeline.predictor, dataset, config)
    return AdaptationReport(stage1=stage1, train=train)
