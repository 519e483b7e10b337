"""Synthetic tagged corpus and the proxy embedding set used by ORCA stage 1.

Sequences come from a seeded 3-state Markov grammar: each hidden state prefers
a disjoint block of tags, and each tag owns a token sub-range, so class-
conditional token (and embedding) distributions are distinct.  Sequences are
shorter than 32 tokens, padded to 32 for embedding with the pad keys masked,
and pad positions are excluded from the feature set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .container import DataFileError, file_errors, read_container, write_container
from .transformer import TransformerModel, embed_tokens, forward_hidden

PAD_TOKEN = 0
RESERVED_TOKENS = 2  # PAD_TOKEN and transformer.MASK_TOKEN; no grammar tag emits them

PROXY_LENGTH = 32
MIN_SEQ_LEN, MAX_SEQ_LEN = 8, 31
N_STATES = 3


@dataclass
class SyntheticCorpus:
    """A sample of (token, tag) sequences plus the grammar that produced them."""

    vocab_size: int
    tag_count: int
    seed: int
    sequences: list[tuple[np.ndarray, np.ndarray]]  # (tokens, tags), equal length < 32
    transition: np.ndarray = field(repr=False, default=None)  # [S, S]
    state_tag_emission: np.ndarray = field(repr=False, default=None)  # [S, tag_count]

    def stationary_tag_distribution(self) -> np.ndarray:
        """Tag marginals implied by the chain's stationary state distribution."""
        vals, vecs = np.linalg.eig(self.transition.T)
        i = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.real(vecs[:, i])
        pi = pi / pi.sum()
        return pi @ self.state_tag_emission


def _grammar_tables(rng: np.random.Generator, vocab_size: int, tag_count: int):
    """Seeded grammar parameters: ergodic state chain, block tag emissions,
    tag-specific token distributions over disjoint vocabulary slices."""
    transition = rng.uniform(0.2, 1.0, size=(N_STATES, N_STATES))
    transition /= transition.sum(axis=1, keepdims=True)

    emission = np.zeros((N_STATES, tag_count))
    per_state = tag_count // N_STATES
    for s in range(N_STATES):
        lo = s * per_state
        hi = tag_count if s == N_STATES - 1 else lo + per_state
        emission[s, lo:hi] = rng.uniform(0.5, 1.0, size=hi - lo)
    emission /= emission.sum(axis=1, keepdims=True)

    usable = vocab_size - RESERVED_TOKENS
    slice_width = usable // tag_count
    if slice_width < 1:
        raise ValueError("vocab too small for the requested tag count")
    token_dist = np.zeros((tag_count, vocab_size))
    for t in range(tag_count):
        lo = RESERVED_TOKENS + t * slice_width
        token_dist[t, lo: lo + slice_width] = rng.uniform(0.5, 1.0, size=slice_width)
    token_dist /= token_dist.sum(axis=1, keepdims=True)
    return transition, emission, token_dist


def _row_cdfs(table: np.ndarray) -> np.ndarray:
    """Each row's CDF as ``Generator.choice(n, p=row)`` builds it (cumsum, then
    divide by the last entry). ``cdf[row].searchsorted(rng.random(), "right")``
    then draws what that ``choice`` call draws, from the same rng stream."""
    cdf = np.cumsum(table, axis=1)
    return cdf / cdf[:, -1:]


def gen_corpus(seed: int, n_sequences: int, vocab_size: int = 64, tag_count: int = 9) -> SyntheticCorpus:
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    if tag_count < N_STATES:  # each grammar state emits its own block of tags
        raise ValueError(f"tag_count must be >= {N_STATES}, got {tag_count}")
    rng = np.random.default_rng(seed)
    transition, emission, token_dist = _grammar_tables(rng, vocab_size, tag_count)
    cdf_state, cdf_tag, cdf_token = (_row_cdfs(t) for t in (transition, emission, token_dist))
    sequences = []
    for _ in range(n_sequences):
        length = int(rng.integers(MIN_SEQ_LEN, MAX_SEQ_LEN + 1))
        state = int(rng.integers(N_STATES))
        tokens = np.empty(length, dtype=np.int64)
        tags = np.empty(length, dtype=np.int64)
        for i in range(length):
            state = int(cdf_state[state].searchsorted(rng.random(), side="right"))
            tag = int(cdf_tag[state].searchsorted(rng.random(), side="right"))
            tags[i] = tag
            tokens[i] = int(cdf_token[tag].searchsorted(rng.random(), side="right"))
        sequences.append((tokens, tags))
    return SyntheticCorpus(vocab_size=vocab_size, tag_count=tag_count, seed=seed,
                           sequences=sequences, transition=transition,
                           state_tag_emission=emission)


@dataclass
class ProxyEmbeddingSet:
    features: np.ndarray  # [N, d_model] float32, one row per non-pad token
    labels: np.ndarray  # [N] int32 tags
    tag_count: int
    source_model_id: str
    source_pretrained: bool
    provenance: dict = field(default_factory=dict)


def model_id(model: TransformerModel) -> str:
    cfg = model.config
    return f"{cfg.arch}-d{cfg.d_model}h{cfg.n_heads}l{cfg.n_layers}-seed{cfg.seed}"


def _proxy_key(model: TransformerModel, corpus: SyntheticCorpus) -> bytes:
    """Digest of everything a proxy set depends on: the model's config, flag
    and weights, and the corpus's tag count, seed and sequences."""
    h = hashlib.blake2b(digest_size=32)
    h.update(repr((model.config, model.pretrained, corpus.tag_count, corpus.seed)).encode())
    arrays = [(name, p.data) for name, p in model.params.items()]
    arrays += [("seq", a) for pair in corpus.sequences for a in pair]
    for name, a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((name, a.shape, a.dtype.str)).encode())
        h.update(a.data)
    return h.digest()


# "last" -> (key, features, labels) of the last set built; the dict is updated
# in place, so the module's attributes keep their identity
_last_proxy: dict[str, tuple[bytes, np.ndarray, np.ndarray]] = {}

# sequences per no-grad forward (1024 rows): one call per chunk instead of
# per sequence, while the chunk's activations stay below a job's peak memory
PROXY_CHUNK = 32


def build_proxy_set(model: TransformerModel, corpus: SyntheticCorpus) -> ProxyEmbeddingSet:
    """Embed every sequence with the model's native mask and collect
    last-hidden vectors at non-pad positions, paired with tags.

    The corpus runs as padded batches of ``PROXY_CHUNK`` sequences, each
    padded to 32 with its pad keys masked (``forward_hidden(...,
    lengths=...)``), so a row is its sequence's own unpadded forward (bitwise
    at head width 16) under either mask.  The last set built is kept, keyed by
    the content of the model and the corpus, so identical clones of one model
    share one read-only set."""
    if model.config.max_positions < PROXY_LENGTH:
        raise ValueError(f"model max_positions must be >= {PROXY_LENGTH}")
    key = _proxy_key(model, corpus)
    last = _last_proxy.get("last")
    if last is None or last[0] != key:
        feats = []
        with T.no_grad():
            for lo in range(0, len(corpus.sequences), PROXY_CHUNK):
                chunk = [tokens for tokens, _ in corpus.sequences[lo: lo + PROXY_CHUNK]]
                lengths = np.array([len(tokens) for tokens in chunk])
                padded = np.full((len(chunk), PROXY_LENGTH), PAD_TOKEN, dtype=np.int64)
                for row, tokens in zip(padded, chunk):
                    row[: len(tokens)] = tokens
                hidden = forward_hidden(model, embed_tokens(model, padded.ravel()),
                                        lengths=lengths)
                feats.append(hidden.data[(np.arange(PROXY_LENGTH) < lengths[:, None]).ravel()])
        features = np.concatenate(feats).astype(np.float32)
        labels = np.concatenate([tags for _, tags in corpus.sequences]).astype(np.int32)
        features.flags.writeable = labels.flags.writeable = False
        last = _last_proxy["last"] = (key, features, labels)
    _, features, labels = last
    return ProxyEmbeddingSet(
        features=features,
        labels=labels,
        tag_count=corpus.tag_count,
        source_model_id=model_id(model),
        source_pretrained=model.pretrained,
        provenance={"layer": "last_hidden", "pads_excluded": True,
                    "padded_length": PROXY_LENGTH, "corpus_seed": corpus.seed,
                    "unpretrained_source": not model.pretrained},
    )


# -- container I/O ---------------------------------------------------------


def save_corpus(corpus: SyntheticCorpus, path) -> None:
    n = len(corpus.sequences)
    lengths = np.array([len(t) for t, _ in corpus.sequences], dtype=np.int32)
    tokens = np.full((n, PROXY_LENGTH), PAD_TOKEN, dtype=np.int32)
    tags = np.full((n, PROXY_LENGTH), -1, dtype=np.int32)
    for i, (tok, tag) in enumerate(corpus.sequences):
        tokens[i, : len(tok)] = tok
        tags[i, : len(tag)] = tag
    header = {"kind": "tagged_corpus", "vocab_size": corpus.vocab_size,
              "tag_count": corpus.tag_count, "seed": corpus.seed}
    write_container(path, header, [
        ("lengths", lengths),
        ("tokens", tokens),
        ("tags", tags),
        ("transition", corpus.transition.astype(np.float32)),
        ("state_tag_emission", corpus.state_tag_emission.astype(np.float32)),
    ])


def load_corpus(path) -> SyntheticCorpus:
    header, blocks = read_container(path)
    if header.get("kind") != "tagged_corpus":
        raise DataFileError(f"{path} is not a tagged corpus container")
    with file_errors(path, "tagged corpus"):
        tokens, tags, lengths = blocks["tokens"], blocks["tags"], blocks["lengths"]
        if not (tokens.ndim == 2 and tags.shape == tokens.shape
                and lengths.shape == tokens.shape[:1]
                and np.all((lengths >= 1) & (lengths <= tokens.shape[1]))):
            raise DataFileError(f"tagged corpus {path} holds tokens {list(tokens.shape)}, tags "
                                f"{list(tags.shape)} and lengths {lengths.tolist()} that "
                                f"do not match")
        sequences = [(tokens[i, : n].astype(np.int64), tags[i, : n].astype(np.int64))
                     for i, n in enumerate(lengths)]
        return SyntheticCorpus(vocab_size=header["vocab_size"], tag_count=header["tag_count"],
                               seed=header["seed"], sequences=sequences,
                               transition=blocks["transition"].astype(np.float64),
                               state_tag_emission=blocks["state_tag_emission"].astype(np.float64))


def save_proxy_set(proxy: ProxyEmbeddingSet, path) -> None:
    header = {"kind": "proxy_embedding_set", "tag_count": proxy.tag_count,
              "source_model_id": proxy.source_model_id,
              "source_pretrained": proxy.source_pretrained,
              "provenance": proxy.provenance}
    write_container(path, header, [("features", proxy.features),
                                   ("labels", proxy.labels)])


def load_proxy_set(path) -> ProxyEmbeddingSet:
    header, blocks = read_container(path)
    if header.get("kind") != "proxy_embedding_set":
        raise DataFileError(f"{path} is not a proxy embedding container")
    with file_errors(path, "proxy embedding set"):
        return ProxyEmbeddingSet(features=blocks["features"], labels=blocks["labels"],
                                 tag_count=header["tag_count"],
                                 source_model_id=header["source_model_id"],
                                 source_pretrained=header["source_pretrained"],
                                 provenance=header.get("provenance", {}))
