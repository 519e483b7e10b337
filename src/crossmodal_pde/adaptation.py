"""FPT and ORCA cross-modal adaptation: task-specific embedder/predictor,
freeze policies, stage-1 OTDD alignment, and supervised fine-tuning.

Stage 1 (ORCA) trains only the embedder, by default comparing its outputs
directly to the proxy features; ``stage1_through_body`` pushes embeddings
through the frozen transformer body first instead.
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
    PdeDataset,
    PdeInstance,
)
from .proxy_data import ProxyEmbeddingSet
from .tensor import ContractError, OptimizerState, Tensor
from .transformer import (
    ALL_TRAINABLE,
    FPT_FROZEN,
    LengthError,
    TransformerModel,
    _sum_tensors,
    forward_hidden,
    trainable_parameters,
)

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
class Embedder:
    """Per-token linear map from frame channels into the model width."""

    w: Tensor  # [c_in, d_model]
    b: Tensor  # [d_model]

    @classmethod
    def create(cls, c_in: int, d_model: int, seed: int) -> "Embedder":
        rng = np.random.default_rng(seed)
        return cls(w=Tensor(rng.normal(0.0, 0.02, size=(c_in, d_model)).astype(np.float32),
                            requires_grad=True),
                   b=Tensor(np.zeros(d_model, dtype=np.float32), requires_grad=True))

    def params(self) -> list[Tensor]:
        return [self.w, self.b]

    def __call__(self, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))
        return T.add(T.matmul(x, self.w), self.b)


@dataclass
class Predictor:
    """Per-token linear map from hidden states to output channels."""

    w: Tensor  # [d_model, c_out]
    b: Tensor  # [c_out]

    @classmethod
    def create(cls, d_model: int, c_out: int, seed: int) -> "Predictor":
        rng = np.random.default_rng(seed)
        return cls(w=Tensor(rng.normal(0.0, 0.02, size=(d_model, c_out)).astype(np.float32),
                            requires_grad=True),
                   b=Tensor(np.zeros(c_out, dtype=np.float32), requires_grad=True))

    def params(self) -> list[Tensor]:
        return [self.w, self.b]

    def __call__(self, hidden: Tensor) -> Tensor:
        return T.add(T.matmul(hidden, self.w), self.b)


@dataclass
class PooledPredictor:
    """Alternative output head: mean-pool the hidden states into one vector,
    then map it to the whole output frame (flag-selected variant)."""

    w: Tensor  # [d_model, out_length * c_out]
    b: Tensor
    out_length: int
    c_out: int

    @classmethod
    def create(cls, d_model: int, out_length: int, c_out: int, seed: int) -> "PooledPredictor":
        rng = np.random.default_rng(seed)
        return cls(w=Tensor(rng.normal(0.0, 0.02, size=(d_model, out_length * c_out)).astype(np.float32),
                            requires_grad=True),
                   b=Tensor(np.zeros(out_length * c_out, dtype=np.float32), requires_grad=True),
                   out_length=out_length, c_out=c_out)

    def params(self) -> list[Tensor]:
        return [self.w, self.b]

    def __call__(self, hidden: Tensor) -> Tensor:
        pooled = T.tmean(hidden, axis=0, keepdims=True)  # [1, d_model]
        flat = T.add(T.matmul(pooled, self.w), self.b)
        return T.reshape(flat, (self.out_length, self.c_out))


@dataclass
class Pipeline:
    model: TransformerModel
    embedder: Embedder
    predictor: Predictor | PooledPredictor

    @classmethod
    def create(cls, model: TransformerModel, seed: int, c_in: int = 1, c_out: int = 1,
               pooled_out_length: int | None = None) -> "Pipeline":
        d = model.config.d_model
        if pooled_out_length is not None:
            predictor = PooledPredictor.create(d, pooled_out_length, c_out, seed + 1)
        else:
            predictor = Predictor.create(d, c_out, seed + 1)
        return cls(model=model, embedder=Embedder.create(c_in, d, seed), predictor=predictor)


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
    stage1_through_body: bool = False
    restart_positions: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.method not in (FPT, ORCA):
            raise ContractError(f"unknown adaptation method {self.method!r}")
        if self.bidir_method not in BIDIR_METHODS:
            raise ContractError(f"unknown bidir method {self.bidir_method!r}")

    def resolve_optimizer(self, family: str) -> tuple[str, float, bool]:
        """Return (kind, learning rate, overridden?) per the family mapping."""
        if self.optimizer is not None:
            kind, overridden = self.optimizer, self.optimizer != OPTIMIZER_BY_FAMILY.get(family)
        else:
            kind, overridden = OPTIMIZER_BY_FAMILY[family], False
        lr = self.learning_rate if self.learning_rate is not None else DEFAULT_LR[kind]
        return kind, lr, overridden


def freeze_policy_for(method: str) -> str:
    return FPT_FROZEN if method == FPT else ALL_TRAINABLE


def adaptation_trainable_params(model: TransformerModel, policy: str) -> list[Tensor]:
    """Model parameters trained during cross-modal fine-tuning.

    The token embedding and lm head are the language-side input/output layers;
    the task embedder/predictor replace them, so they sit outside the task
    graph and receive no gradient.
    """
    trainable_ids = {id(p) for p in trainable_parameters(model, policy)}
    return [p for n, p in model.params.items()
            if id(p) in trainable_ids and n not in ("tok_emb", "lm_head")]


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


def pseudo_label_targets(instances: list[PdeInstance], bins: int = 10) -> PseudoLabels:
    """Quantize target values into equal-mass bins fit on these instances.

    Rank-based, so labels are invariant under strictly monotone transforms of
    the targets.  Constant targets collapse to bin 0 with the degenerate flag.
    """
    if bins < 2:
        raise ContractError("need at least 2 bins")
    values = np.stack([inst.target.data for inst in instances])
    if np.ptp(values) == 0.0:
        return PseudoLabels(labels=np.zeros(values.shape, dtype=np.int64),
                            edges=np.zeros(bins - 1, dtype=np.float64),
                            bins=bins, degenerate=True)
    qs = np.arange(1, bins) / bins
    edges = np.quantile(values.astype(np.float64), qs)
    labels = np.searchsorted(edges, values.astype(np.float64), side="right")
    return PseudoLabels(labels=labels.astype(np.int64), edges=edges, bins=bins, degenerate=False)


# -- prediction --------------------------------------------------------------


def _frame_matrix(x) -> np.ndarray:
    arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float32)
    return arr[:, None] if arr.ndim == 1 else arr


def predict_sequence(model: TransformerModel, embedder: Embedder, predictor: Predictor,
                     x, bidir_method: str = BIDIR_NONE,
                     restart_positions: bool = False) -> Tensor:
    """Predict an output frame per position; bidir methods wrap the base path.

    Parallel flipping combines two pipelines, so it is predicted by
    ``bidir.FlipPair``, not here.
    """
    from . import bidir

    frame = _frame_matrix(x)
    L = frame.shape[0]
    if L % 2 != 0:
        raise LengthError("sequence length must be even")
    if bidir_method == BIDIR_NONE:
        hidden = forward_hidden(model, embedder(frame), model.config.mask_policy)
        return predictor(hidden)
    if bidir_method == SEQUENCE_DOUBLING:
        return bidir.sequence_doubling_forward(model, embedder, predictor, frame,
                                               restart_positions=restart_positions)
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


def _proxy_cloud(proxy: ProxyEmbeddingSet) -> LabeledPointCloud:
    return LabeledPointCloud(points=Tensor(proxy.features),
                             labels=proxy.labels.astype(np.int64),
                             class_count=proxy.tag_count)


def orca_stage1(model: TransformerModel, embedder: Embedder, proxy: ProxyEmbeddingSet,
                dataset: PdeDataset, config: AdaptationConfig) -> Stage1Report:
    """Train the embedder alone to minimize OTDD against the proxy features.

    The transformer body and predictor are untouched; with
    ``stage1_through_body`` the frozen body shapes the compared features but
    still receives no updates.
    """
    if proxy.features.shape[1] != model.config.d_model:
        raise T.ShapeError("proxy feature width != model d_model")
    pseudo = pseudo_label_targets(dataset.train, bins=config.pseudo_label_bins)
    inputs = np.stack([inst.input.data for inst in dataset.train])  # [n, L]
    n, L = inputs.shape

    proxy_cloud_full = _proxy_cloud(proxy)
    proxy_moments: ClassMoments = compute_class_moments(proxy_cloud_full)
    sk_params = SinkhornParams(epsilon=0.0, max_iters=config.sinkhorn_max_iters)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 101)))
    opt = OptimizerState(kind="adam", learning_rate=config.stage1_lr)
    emb_params = embedder.params()
    trace: list[float] = []
    converged = 0
    with frozen_except(model, []):
        for _ in range(config.stage1_steps):
            inst_idx = rng.choice(n, size=min(config.stage1_batch_instances, n), replace=False)
            flat_idx = rng.choice(len(inst_idx) * L,
                                  size=min(config.otdd_batch, len(inst_idx) * L), replace=False)
            tokens = inputs[inst_idx].reshape(-1, 1)[flat_idx]
            labels = pseudo.labels[inst_idx].reshape(-1)[flat_idx]

            embedded = embedder(tokens)
            if config.stage1_through_body:
                embedded = forward_hidden(model, embedded, model.config.mask_policy)
            target_cloud = LabeledPointCloud(points=embedded, labels=labels,
                                             class_count=pseudo.bins)

            prox_idx = rng.choice(len(proxy_cloud_full), size=min(config.otdd_batch,
                                                                  len(proxy_cloud_full)),
                                  replace=False)
            proxy_batch = LabeledPointCloud(points=Tensor(proxy.features[prox_idx]),
                                            labels=proxy.labels[prox_idx].astype(np.int64),
                                            class_count=proxy.tag_count)

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
    # per test instance, channel 0 of the prediction scored by final_test_nrmse
    final_test_predictions: list[np.ndarray] = field(default_factory=list, repr=False)
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


def evaluate_nrmse(model: TransformerModel, embedder: Embedder, predictor: Predictor,
                   instances: list[PdeInstance], bidir_method: str = BIDIR_NONE,
                   restart_positions: bool = False) -> tuple[float, list[np.ndarray]]:
    """Mean nRMSE over ``instances`` and, per instance, channel 0 of the
    prediction it scored."""
    with T.no_grad():
        preds = [predict_sequence(model, embedder, predictor, inst.input,
                                  bidir_method=bidir_method,
                                  restart_positions=restart_positions).data[:, 0]
                 for inst in instances]
    scores = [instance_nrmse(p, inst.target.data) for p, inst in zip(preds, instances)]
    return float(np.mean(scores)), preds


def finetune(model: TransformerModel, embedder: Embedder, predictor: Predictor,
             dataset: PdeDataset, policy: str, config: AdaptationConfig) -> TrainReport:
    """Minimize MSE on train frames under the freeze policy; report test nRMSE.

    Only ``none`` and ``sequence_doubling`` run here; parallel flipping trains
    two of these pipelines via the bidir module.
    """
    if config.bidir_method == PARALLEL_FLIPPING:
        raise ContractError("finetune trains a single pipeline; use parallel_flipping_train")
    if not dataset.train:
        raise ContractError("empty training set")
    kind, lr, overridden = config.resolve_optimizer(dataset.family)
    report = TrainReport(optimizer=kind, learning_rate=lr, optimizer_overridden=overridden)
    report.initial_test_nrmse, _ = evaluate_nrmse(model, embedder, predictor, dataset.test,
                                                  bidir_method=config.bidir_method,
                                                  restart_positions=config.restart_positions)
    params = adaptation_trainable_params(model, policy) + embedder.params() + predictor.params()
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
                batch = [dataset.train[i] for i in order[lo: lo + config.batch_size]]
                T.zero_grads(params)
                losses = []
                for inst in batch:
                    pred = predict_sequence(model, embedder, predictor, inst.input,
                                            bidir_method=config.bidir_method,
                                            restart_positions=config.restart_positions)
                    diff = T.sub(pred, Tensor(_frame_matrix(inst.target)))
                    losses.append(T.tmean(T.square(diff)))
                loss = (losses[0] if len(losses) == 1
                        else T.mul(_sum_tensors(losses), 1.0 / len(losses)))
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
    report.final_test_nrmse, report.final_test_predictions = evaluate_nrmse(
        model, embedder, predictor, dataset.test, bidir_method=config.bidir_method,
        restart_positions=config.restart_positions)
    return report


@dataclass
class AdaptationReport:
    stage1: Stage1Report | None
    train: TrainReport


def run_adaptation(pipeline: Pipeline, dataset: PdeDataset, config: AdaptationConfig,
                   proxy: ProxyEmbeddingSet | None = None) -> AdaptationReport:
    """Full FPT or ORCA adaptation of one pipeline on one dataset."""
    stage1 = None
    if config.method == ORCA:
        if proxy is None:
            raise ContractError("ORCA needs a proxy embedding set")
        stage1 = orca_stage1(pipeline.model, pipeline.embedder, proxy, dataset, config)
    policy = freeze_policy_for(config.method)
    train = finetune(pipeline.model, pipeline.embedder, pipeline.predictor,
                     dataset, policy, config)
    return AdaptationReport(stage1=stage1, train=train)
