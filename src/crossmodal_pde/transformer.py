"""Toy pre-norm transformer with encoder-only (bidirectional) and decoder-only
(causal) attention policies, plus the matching pretraining objectives.

Models process one sequence at a time: forward on a length-L input yields the
last hidden layer as an [L, d_model] tensor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .container import read_container, write_container
from .tensor import ContractError, Tensor

ENCODER_ONLY = "encoder_only"
DECODER_ONLY = "decoder_only"
BIDIRECTIONAL = "bidirectional"
CAUSAL = "causal"

ALL_TRAINABLE = "all_trainable"
FPT_FROZEN = "fpt_frozen"

INIT_STD = 0.02


class ConfigError(ValueError):
    """A model configuration violates its invariants."""


class LengthError(ValueError):
    """A sequence is longer than the model's position table allows."""


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_positions: int = 256
    vocab_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.arch not in (ENCODER_ONLY, DECODER_ONLY):
            raise ConfigError(f"unknown arch {self.arch!r}")
        for name in ("d_model", "n_heads", "n_layers", "d_ff", "max_positions", "vocab_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"n_heads={self.n_heads} must divide d_model={self.d_model}")

    @property
    def mask_policy(self) -> str:
        return CAUSAL if self.arch == DECODER_ONLY else BIDIRECTIONAL

    def to_dict(self) -> dict:
        return {
            "arch": self.arch,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "n_layers": self.n_layers,
            "d_ff": self.d_ff,
            "max_positions": self.max_positions,
            "vocab_size": self.vocab_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: d[k] for k in (
            "arch", "d_model", "n_heads", "n_layers", "d_ff",
            "max_positions", "vocab_size", "seed")})


@dataclass
class TransformerModel:
    config: ModelConfig
    params: dict[str, Tensor] = field(default_factory=dict)
    pretrained: bool = False

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def clone(self) -> "TransformerModel":
        m = TransformerModel(config=self.config, pretrained=self.pretrained)
        m.params = {k: v.copy() for k, v in self.params.items()}
        return m


def _param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, f = cfg.d_model, cfg.d_ff
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (cfg.vocab_size, d)),
        ("pos_emb", (cfg.max_positions, d)),
    ]
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        shapes += [
            (p + "ln1.g", (d,)), (p + "ln1.b", (d,)),
            (p + "attn.wq", (d, d)), (p + "attn.bq", (d,)),
            (p + "attn.wk", (d, d)), (p + "attn.bk", (d,)),
            (p + "attn.wv", (d, d)), (p + "attn.bv", (d,)),
            (p + "attn.wo", (d, d)), (p + "attn.bo", (d,)),
            (p + "ln2.g", (d,)), (p + "ln2.b", (d,)),
            (p + "mlp.w1", (d, f)), (p + "mlp.b1", (f,)),
            (p + "mlp.w2", (f, d)), (p + "mlp.b2", (d,)),
        ]
    shapes += [("final_ln.g", (d,)), ("final_ln.b", (d,)), ("lm_head", (d, cfg.vocab_size))]
    return shapes


def _is_layer_norm_param(name: str) -> bool:
    return ".ln1." in name or ".ln2." in name or name.startswith("final_ln.")


def build_model(config: ModelConfig) -> TransformerModel:
    """Deterministically initialize a model from its config seed.

    Matrices and embeddings draw from N(0, 0.02^2); biases start at zero and
    layer-norm gains at one.
    """
    rng = np.random.default_rng(config.seed)
    model = TransformerModel(config=config)
    for name, shape in _param_shapes(config):
        if name.endswith((".b", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")):
            data = np.zeros(shape, dtype=np.float32)
        elif name.endswith(".g"):
            data = np.ones(shape, dtype=np.float32)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
        model.params[name] = Tensor(data, requires_grad=True)
    return model


def parameter_census(model: TransformerModel) -> int:
    return sum(p.data.size for p in model.params.values())


def trainable_parameter_census(model: TransformerModel, policy: str,
                               extra_params: list[Tensor] | None = None) -> int:
    """Count trainable parameters under a freeze policy.

    ``extra_params`` carries the task-specific embedder/predictor tensors,
    which are trainable under every policy.
    """
    if policy == ALL_TRAINABLE:
        count = parameter_census(model)
    elif policy == FPT_FROZEN:
        count = sum(p.data.size for n, p in model.params.items() if _is_layer_norm_param(n))
    else:
        raise ContractError(f"unknown freeze policy {policy!r}")
    if extra_params:
        count += sum(p.data.size for p in extra_params)
    return count


def trainable_parameters(model: TransformerModel, policy: str) -> list[Tensor]:
    if policy == ALL_TRAINABLE:
        return model.parameters()
    if policy == FPT_FROZEN:
        return [p for n, p in model.params.items() if _is_layer_norm_param(n)]
    raise ContractError(f"unknown freeze policy {policy!r}")


@functools.lru_cache(maxsize=64)
def causal_bias(L: int) -> np.ndarray:
    """Read-only [L, L] float32 additive attention bias: 0 on and below the
    diagonal, -inf above it.  Built once per length and shared by every call."""
    bias = np.where(np.tri(L, dtype=bool), np.float32(0.0), np.float32(-np.inf))
    bias.flags.writeable = False
    return bias


def forward_hidden(model: TransformerModel, embedded_input: Tensor, mask: str,
                   positions: np.ndarray | None = None) -> Tensor:
    """Run the block stack on pre-embedded input; returns the last hidden layer.

    ``positions`` overrides the default 0..L-1 position indices (used by the
    doubled-sequence ablation).
    """
    cfg = model.config
    if mask not in (BIDIRECTIONAL, CAUSAL):
        raise ContractError(f"unknown mask policy {mask!r}")
    L = embedded_input.data.shape[0]
    if embedded_input.data.ndim != 2 or embedded_input.data.shape[1] != cfg.d_model:
        raise T.ShapeError(f"embedded input must be [L, {cfg.d_model}]")
    if positions is None:
        positions = np.arange(L)
    positions = np.asarray(positions, dtype=np.int64)
    if positions.max(initial=0) >= cfg.max_positions or L > cfg.max_positions:
        raise LengthError(f"sequence length {L} exceeds max_positions={cfg.max_positions}")

    p = model.params
    H, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    attn_bias = causal_bias(L) if mask == CAUSAL else None

    h = T.add(embedded_input, T.take_rows(p["pos_emb"], positions))
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        a = T.layer_norm(h, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q = T.add(T.matmul(a, p[pre + "attn.wq"]), p[pre + "attn.bq"])
        k = T.add(T.matmul(a, p[pre + "attn.wk"]), p[pre + "attn.bk"])
        v = T.add(T.matmul(a, p[pre + "attn.wv"]), p[pre + "attn.bv"])
        q = T.transpose(T.reshape(q, (L, H, dh)), (1, 0, 2))
        k = T.transpose(T.reshape(k, (L, H, dh)), (1, 0, 2))
        v = T.transpose(T.reshape(v, (L, H, dh)), (1, 0, 2))
        scores = T.matmul(q, T.transpose_last2(k))
        probs = T.softmax_lastdim(scores, bias=attn_bias, scale=1.0 / np.sqrt(dh))
        ctx = T.reshape(T.transpose(T.matmul(probs, v), (1, 0, 2)), (L, cfg.d_model))
        o = T.add(T.matmul(ctx, p[pre + "attn.wo"]), p[pre + "attn.bo"])
        h = T.add(h, o)
        m = T.layer_norm(h, p[pre + "ln2.g"], p[pre + "ln2.b"])
        f = T.add(T.matmul(T.gelu(T.add(T.matmul(m, p[pre + "mlp.w1"]), p[pre + "mlp.b1"])),
                           p[pre + "mlp.w2"]), p[pre + "mlp.b2"])
        h = T.add(h, f)
    return T.layer_norm(h, p["final_ln.g"], p["final_ln.b"])


def embed_tokens(model: TransformerModel, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= model.config.vocab_size:
        raise ContractError("token id out of vocabulary range")
    return T.take_rows(model.params["tok_emb"], ids)


def lm_logits(model: TransformerModel, hidden: Tensor) -> Tensor:
    return T.matmul(hidden, model.params["lm_head"])


MLM = "mlm"
NEXT_TOKEN = "next_token"
MLM_MASK_RATE = 0.15


def _token_cross_entropy(model: TransformerModel, mask_policy: str,
                         predict_pos: np.ndarray, target_ids: np.ndarray,
                         input_ids: np.ndarray) -> Tensor:
    hidden = forward_hidden(model, embed_tokens(model, input_ids), mask_policy)
    logits = lm_logits(model, T.take_rows(hidden, predict_pos))
    logp = T.sub(logits, T.logsumexp_lastdim(logits, keepdims=True))
    picked = T.gather_lastdim(logp, target_ids)
    return T.neg(T.tsum(picked))


def pretrain_step(model: TransformerModel, batch: list[np.ndarray], objective: str,
                  rng: np.random.Generator | None = None,
                  mask_rate: float = MLM_MASK_RATE, mask_token: int = 1) -> float:
    """Forward+backward one batch of token sequences; returns the mean loss in nats.

    Gradients accumulate into the model parameters; the caller zeroes and
    steps.  MLM requires an encoder-only model, next-token a decoder-only one.
    """
    cfg = model.config
    if objective == MLM and cfg.arch != ENCODER_ONLY:
        raise ContractError("MLM objective requires an encoder-only model")
    if objective == NEXT_TOKEN and cfg.arch != DECODER_ONLY:
        raise ContractError("next-token objective requires a decoder-only model")
    if objective not in (MLM, NEXT_TOKEN):
        raise ContractError(f"unknown objective {objective!r}")
    if rng is None:
        rng = np.random.default_rng(0)

    losses: list[Tensor] = []
    n_targets = 0
    for ids in batch:
        ids = np.asarray(ids, dtype=np.int64)
        if objective == NEXT_TOKEN:
            if len(ids) < 2:
                continue
            pos = np.arange(len(ids) - 1)
            losses.append(_token_cross_entropy(model, CAUSAL, pos, ids[1:], ids))
            n_targets += len(ids) - 1
        else:
            n_mask = int(round(mask_rate * len(ids)))
            if n_mask == 0:
                continue
            pos = rng.choice(len(ids), size=n_mask, replace=False)
            pos.sort()
            corrupted = ids.copy()
            corrupted[pos] = mask_token
            losses.append(_token_cross_entropy(model, BIDIRECTIONAL, pos, ids[pos], corrupted))
            n_targets += n_mask
    if n_targets == 0:
        return 0.0  # loss over an empty target set
    total = losses[0] if len(losses) == 1 else _sum_tensors(losses)
    mean_loss = T.div(total, float(n_targets))
    mean_loss.backward()
    return mean_loss.item()


def _sum_tensors(ts: list[Tensor]) -> Tensor:
    acc = ts[0]
    for t in ts[1:]:
        acc = T.add(acc, t)
    return acc


def pretrain(model: TransformerModel, sequences: list[np.ndarray], steps: int,
             learning_rate: float = 1e-3, batch_size: int = 8, seed: int = 0,
             mask_token: int = 1) -> list[float]:
    """Train the pretraining objective for the model's architecture; returns the
    loss trace.  It trains on one OpenBLAS thread, as a job does
    (``experiments.run_one``)."""
    objective = NEXT_TOKEN if model.config.arch == DECODER_ONLY else MLM
    rng = np.random.default_rng(seed)
    opt = T.OptimizerState(kind="adam", learning_rate=learning_rate)
    params = model.parameters()
    trace = []
    with T.blas_threads(1):
        for _ in range(steps):
            idx = rng.choice(len(sequences), size=min(batch_size, len(sequences)),
                             replace=False)
            T.zero_grads(params)
            loss = pretrain_step(model, [sequences[i] for i in idx], objective, rng=rng,
                                 mask_token=mask_token)
            for p in params:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
            T.optimizer_step(opt, params)
            trace.append(loss)
    model.pretrained = True
    return trace


# -- checkpoint container ------------------------------------------------


def save_checkpoint(model: TransformerModel, path) -> None:
    header = {
        "kind": "model_checkpoint",
        "config": model.config.to_dict(),
        "pretrained": model.pretrained,
    }
    blocks = [(name, p.data) for name, p in model.params.items()]
    write_container(path, header, blocks)


def load_checkpoint(path) -> TransformerModel:
    header, blocks = read_container(path)
    if header.get("kind") != "model_checkpoint":
        raise ContractError(f"{path} is not a model checkpoint")
    cfg = ModelConfig.from_dict(header["config"])
    model = build_model(cfg)
    for name in model.params:
        if name not in blocks:
            raise ContractError(f"checkpoint missing parameter {name!r}")
        if blocks[name].shape != model.params[name].data.shape:
            raise ContractError(f"checkpoint shape mismatch for {name!r}")
        model.params[name].data = blocks[name].astype(np.float32)
    model.pretrained = bool(header.get("pretrained", False))
    return model
