"""Toy pre-norm transformer, encoder-only (bidirectional attention, MLM
pretraining) or decoder-only (causal attention, next-token pretraining): the
config's arch decides both.

Forward on a length-L input yields the last hidden layer as an [L, d_model]
tensor; a batch of B sequences runs as one [B*Lmax, d_model] forward.
Pretraining and the ORCA proxy build pad each batch to its longest sequence
(``pad_batch``), and both batch sequences of like length, so that little is
padding: pretraining draws each batch from one ``length_buckets`` bucket, and
the proxy build runs the corpus in length order.  Fine-tuning and evaluation
batch equal-length frames, which need no padding.  Each layer puts two nodes
on the tape, one per pre-norm residual branch: ``tensor.attention_branch``, h
+ attention(LN(h)), and ``tensor.mlp_branch``, h + MLP(LN(h)); a final layer
norm follows the stack.  Decoder attention runs in causal row blocks, and a forward may trim
its last layer to the rows the caller reads (``forward_hidden(keep_from=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .container import DataFileError, file_errors, read_container, typed_block, write_container
from .tensor import ContractError, Tensor

ENCODER_ONLY = "encoder_only"
DECODER_ONLY = "decoder_only"

INIT_STD = 0.02


class ConfigError(ValueError):
    """A model configuration violates its invariants."""


class LengthError(ValueError):
    """A sequence is longer than the model's position table allows."""


class NonFiniteLossError(ValueError):
    """Pretraining reached a loss that is NaN or infinite."""


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 4
    d_ff: int = 256
    max_positions: int = 256
    vocab_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.arch not in (ENCODER_ONLY, DECODER_ONLY):
            raise ConfigError(f"unknown arch {self.arch!r}")
        # type() is int: a bool is an int, and a header's 16.0 compares equal to 16
        for name in ("d_model", "n_heads", "n_layers", "d_ff", "max_positions", "vocab_size"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"n_heads={self.n_heads} must divide d_model={self.d_model}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config of ``d``'s entries for every field; a missing one raises
        ``KeyError``, an extra one is ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class TransformerModel:
    config: ModelConfig
    params: dict[str, Tensor] = field(default_factory=dict)
    pretrained: bool = False

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


# the read-only [L, L] float32 causal bias of decoder attention, built once per
# length: 0 on and below the diagonal, -inf above it
causal_bias = T._causal_bias

# each layer's parameters in the order of attention_branch's and mlp_branch's arguments
_ATTN_PARAMS = ("ln1.g", "ln1.b", "attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv",
                "attn.bv", "attn.wo", "attn.bo")
_MLP_PARAMS = ("ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


def forward_hidden(model: TransformerModel, embedded_input: Tensor, lengths: np.ndarray,
                   keep_from: int = 0) -> Tensor:
    """Run the block stack on pre-embedded input; returns the last hidden layer.

    Each pre-norm layer is two tape nodes, ``T.attention_branch`` (h +
    attention(LN(h))) and ``T.mlp_branch`` (h + MLP(LN(h))), and a final
    layer norm follows the stack.  Attention is causal when the model is
    decoder-only (``causal=True``: row blocks that skip the keys a query
    cannot see) and bidirectional when it is encoder-only.  The input is a
    padded batch of B = len(lengths) sequences of Lmax = rows / B rows each,
    stacked to [B*Lmax, d_model], where sequence b's rows from lengths[b] on
    are padding (one sequence of L rows is ``lengths=[L]``, and a batch
    without padding gets no key bias at all).  Padded keys get a -inf
    attention bias and so weight exactly 0.0: a real row does not depend on
    what the (finite) padding holds, and it equals the row its sequence's own
    forward gives up to the order in which BLAS sums the zero terms padding
    adds to ``probs @ v`` (bitwise with OpenBLAS's Haswell sgemm at head
    width 16, the default model's; not at head width 8).  Each sequence's
    rows take positions 0..Lmax-1.

    ``keep_from=n`` returns only rows n..Lmax-1 of each sequence, [B*(Lmax-n),
    d_model].  The last layer then forms attention queries, the residual, its
    second layer norm, the MLP and the final layer norm for those rows alone
    (keys and values still come from every row); backward's weight gradients
    and MLP products sum the dropped rows as zeros.  Output and gradients are
    bitwise those of the full forward and a ``take_rows`` of the kept rows.

    Each node keeps for backward only what its backward reads (see
    ``T.attention_branch`` and ``T.mlp_branch``): no layer-norm, attention
    or MLP output outlives its node unless a weight that reads it trains, and
    the MLP keeps the GELU slope, not its pre-activation and cdf.  One FPT
    step of the benchmark's model (4 layers, 4 frames of 128 points) peaks
    at 11.9 MiB of traced allocations for either arch, against 15.8
    (encoder) and 15.5 MiB (decoder) with six nodes per layer.
    """
    cfg = model.config
    if embedded_input.data.ndim != 2 or embedded_input.data.shape[1] != cfg.d_model:
        raise T.ShapeError(f"embedded input must be [L, {cfg.d_model}]")
    rows = embedded_input.data.shape[0]
    lengths = np.asarray(lengths, dtype=np.int64)
    B = len(lengths)
    if B == 0 or rows % B or lengths.min() < 1 or lengths.max() > rows // B:
        raise T.ShapeError(f"lengths {lengths.tolist()} do not pad to {rows} rows")
    L = rows // B
    if L > cfg.max_positions:
        raise LengthError(f"sequence length {L} exceeds max_positions={cfg.max_positions}")
    if not 0 <= keep_from < L:
        raise T.ShapeError(f"keep_from={keep_from} is outside sequences of length {L}")

    p = model.params
    # decoder padding follows the real rows, so the causal mask hides it from them too
    causal = cfg.arch == DECODER_ONLY
    key_bias = None
    if not causal and lengths.min() < L:
        key_bias = np.where(np.arange(L) < lengths[:, None], np.float32(0.0),
                            np.float32(-np.inf))[:, None, None, :]

    h = T.add(embedded_input, T.take_rows(p["pos_emb"], np.tile(np.arange(L), B)))
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        qf = keep_from if i == cfg.n_layers - 1 else 0
        h = T.attention_branch(h, *(p[pre + n] for n in _ATTN_PARAMS), batch=B,
                               heads=cfg.n_heads, bias=key_bias, causal=causal, queries_from=qf)
        h = T.mlp_branch(h, *(p[pre + n] for n in _MLP_PARAMS), dropped_rows=(B, qf))
    return T.layer_norm(h, p["final_ln.g"], p["final_ln.b"])


def pad_batch(sequences: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack token sequences into [B, Lmax] int64 ids, each row zero past its
    sequence's length, with Lmax the longest length; returns ``(ids,
    lengths)``, the padding ``forward_hidden(..., lengths=...)`` takes."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    ids = np.zeros((len(sequences), int(lengths.max(initial=0))), dtype=np.int64)
    for row, s in zip(ids, sequences):
        row[: len(s)] = s
    return ids, lengths


def embed_tokens(model: TransformerModel, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= model.config.vocab_size:
        raise ContractError("token id out of vocabulary range")
    return T.take_rows(model.params["tok_emb"], ids)


def lm_logits(model: TransformerModel, hidden: Tensor) -> Tensor:
    return T.matmul(hidden, model.params["lm_head"])


MLM_MASK_RATE = 0.15
MASK_TOKEN = 1  # the id MLM puts in place of the tokens it hides


def pretrain_step(model: TransformerModel, batch: list[np.ndarray],
                  rng: np.random.Generator) -> float:
    """Forward+backward one batch of token sequences; returns the mean loss in nats.

    The objective is the arch's: next-token prediction for a decoder-only
    model, MLM (round(``MLM_MASK_RATE`` * length) of each sequence's tokens
    replaced by ``MASK_TOKEN``) for an encoder-only one.  A sequence without
    targets (one token for a decoder, none masked for an encoder) is
    skipped.  The batch runs as one tape: the sequences that have targets
    are padded to the longest of them and go through one ``forward_hidden``.
    MLM draws each sequence's masked positions from ``rng`` in batch order.
    Gradients accumulate into the model parameters; the caller zeroes and
    steps.
    """
    next_token = model.config.arch == DECODER_ONLY

    inputs, predict_pos, target_ids = [], [], []
    for ids in batch:
        ids = np.asarray(ids, dtype=np.int64)
        if next_token:
            if len(ids) < 2:
                continue
            inputs.append(ids)
            predict_pos.append(np.arange(len(ids) - 1))
            target_ids.append(ids[1:])
        else:
            n_mask = int(round(MLM_MASK_RATE * len(ids)))
            if n_mask == 0:
                continue
            pos = rng.choice(len(ids), size=n_mask, replace=False)
            pos.sort()
            corrupted = ids.copy()
            corrupted[pos] = MASK_TOKEN
            inputs.append(corrupted)
            predict_pos.append(pos)
            target_ids.append(ids[pos])
    if not inputs:
        return 0.0  # loss over an empty target set
    padded, lengths = pad_batch(inputs)  # the pad id does not reach a real row
    L = padded.shape[1]
    hidden = forward_hidden(model, embed_tokens(model, padded.ravel()), lengths=lengths)
    rows = np.concatenate([b * L + pos for b, pos in enumerate(predict_pos)])
    targets = np.concatenate(target_ids)
    logits = lm_logits(model, T.take_rows(hidden, rows))
    logp = T.sub(logits, T.logsumexp_lastdim(logits))
    mean_loss = T.div(T.neg(T.tsum(T.gather_lastdim(logp, targets))), float(len(targets)))
    mean_loss.backward()
    return mean_loss.item()


def length_buckets(lengths, batch_size: int) -> list[np.ndarray]:
    """The corpus indices of each pretraining bucket, in corpus order.

    The distinct lengths, sorted, are cut into consecutive runs that each
    hold at least ``batch_size`` sequences; a shorter tail joins the run
    before it, and a corpus of fewer than ``batch_size`` sequences is one
    bucket (an empty one, none)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    values, counts = np.unique(lengths, return_counts=True)
    if len(values) == 0:
        return []
    ends, held = [], 0  # one past each run's last index into values
    for i, count in enumerate(counts):
        held += count
        if held >= batch_size:
            ends.append(i + 1)
            held = 0
    if held or not ends:
        ends[-1:] = [len(values)]  # the short tail joins the run before it
    starts = [0] + ends[:-1]
    return [np.flatnonzero((lengths >= values[s]) & (lengths <= values[e - 1]))
            for s, e in zip(starts, ends)]


def pretrain(model: TransformerModel, sequences: list[np.ndarray], steps: int,
             learning_rate: float = 1e-3, batch_size: int = 8, seed: int = 0) -> list[float]:
    """Train the pretraining objective for the model's architecture; returns the
    loss trace.  It trains on one OpenBLAS thread, as a job does
    (``experiments.run_one``).  The model is marked pretrained once at least
    one step has run; a step needs at least one sequence.  A NaN or infinite
    loss raises ``NonFiniteLossError`` before its step updates the weights.

    Each step's batch comes from one ``length_buckets`` bucket, so it pads
    little.  The step draws the bucket with probability proportional to its
    size (one integer from ``seed``'s stream; none when there is one bucket),
    then ``batch_size`` of its sequences without replacement.  Each of the N
    sequences so enters a step with probability ``batch_size / N``, as in a
    draw from the whole corpus, which is what a one-bucket corpus gets."""
    if batch_size < 1 or steps < 0:
        raise ContractError(f"pretrain needs batch_size >= 1 and steps >= 0, "
                            f"got batch_size={batch_size}, steps={steps}")
    if steps and len(sequences) == 0:
        raise ContractError(f"pretrain needs at least one sequence for its {steps} steps")
    rng = np.random.default_rng(seed)
    buckets = length_buckets([len(s) for s in sequences], batch_size)
    bucket_ends = np.cumsum([len(b) for b in buckets])
    opt = T.OptimizerState(kind="adam", learning_rate=learning_rate)
    params = list(model.params.values())
    trace = []
    with T.blas_threads(1):
        for step in range(1, steps + 1):
            bucket = buckets[0]
            if len(buckets) > 1:
                bucket = buckets[np.searchsorted(bucket_ends, rng.integers(len(sequences)),
                                                 side="right")]
            idx = bucket[rng.choice(len(bucket), size=min(batch_size, len(bucket)),
                                    replace=False)]
            T.zero_grads(params)
            loss = pretrain_step(model, [sequences[i] for i in idx], rng=rng)
            if not np.isfinite(loss):
                raise NonFiniteLossError(f"pretraining loss is {loss} at step {step} of {steps}")
            for p in params:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
            T.optimizer_step(opt, params)
            trace.append(loss)
    if steps:  # zero steps leave the weights, and so the flag, as they were
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
    """The model a ``save_checkpoint`` file holds; a wrong kind, a missing
    header key or parameter block, a ``pretrained`` that is not a bool, a
    config ``ModelConfig`` rejects and a block of the wrong shape raise
    ``DataFileError`` naming the file."""
    header, blocks = read_container(path)
    if header.get("kind") != "model_checkpoint":
        raise DataFileError(f"{path} is not a model checkpoint")
    with file_errors(path, "model checkpoint"):
        if not isinstance(header["pretrained"], bool):  # bool("false") is True
            raise TypeError(f"pretrained is {header['pretrained']!r}, not a bool")
        model = TransformerModel(config=ModelConfig.from_dict(header["config"]),
                                 pretrained=header["pretrained"])
        for name, shape in _param_shapes(model.config):
            block = typed_block(path, blocks, name, np.float32)
            if block.shape != shape:
                raise DataFileError(f"model checkpoint {path} holds {name!r} of shape "
                                    f"{list(block.shape)}, not {list(shape)}")
            model.params[name] = Tensor(block, requires_grad=True)
    return model
