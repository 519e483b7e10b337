"""Synthetic tagged corpus, and the model's embedding of it that ORCA stage 1
aligns the task embedder to.

Sequences come from a seeded 3-state Markov grammar: each hidden state prefers
a disjoint block of tags, and each tag owns a token sub-range, so class-
conditional token (and embedding) distributions are distinct.  For
embedding, the sequences run in length order, each batch padded to its
longest with the pad keys masked, and pad positions are excluded from the
embedding's point cloud, which holds the sequences in corpus order
(``build_proxy_set``).  Only the corpus is saved to a file, as wide as its
longest sequence; the cloud is built from the model in the job that uses it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .container import DataFileError, file_errors, read_container, typed_block, write_container
from .otdd import LabeledPointCloud
from .transformer import ModelConfig, TransformerModel, embed_tokens, forward_hidden, pad_batch

PAD_TOKEN = 0  # the id transformer.pad_batch pads with
RESERVED_TOKENS = 2  # PAD_TOKEN and transformer.MASK_TOKEN; no grammar tag emits them

MIN_SEQ_LEN, MAX_SEQ_LEN = 8, 31
N_STATES = 3
TAG_COUNT = 9  # the grammar's tags, the classes of ORCA's proxy cloud


@dataclass
class SyntheticCorpus:
    """A sample of (token, tag) sequences and the seed of the grammar that drew them."""

    vocab_size: int
    tag_count: int
    seed: int
    sequences: list[tuple[np.ndarray, np.ndarray]]  # (tokens, tags) of equal length


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


def gen_corpus(seed: int, n_sequences: int, vocab_size: int = ModelConfig.vocab_size,
               tag_count: int = TAG_COUNT) -> SyntheticCorpus:
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
                           sequences=sequences)


def _proxy_key(model: TransformerModel, corpus: SyntheticCorpus) -> bytes:
    """Digest of everything a proxy cloud depends on: the model's config, flag
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


# "last" -> (key, cloud) of the last cloud built; the dict is updated in
# place, so the module's attributes keep their identity
_last_proxy: dict[str, tuple[bytes, LabeledPointCloud]] = {}

# sequences per no-grad forward (1024 rows): one call per chunk instead of
# per sequence, while the chunk's activations stay below a job's peak memory
PROXY_CHUNK = 32


def build_proxy_set(model: TransformerModel, corpus: SyntheticCorpus) -> LabeledPointCloud:
    """The model's own embedding of the corpus: every sequence embedded with
    the model's native mask, its last-hidden vectors at non-pad positions as
    points [N, d_model] (float32) and their tags as labels.

    The corpus runs, sorted by length (a stable sort), as padded batches of
    ``PROXY_CHUNK`` sequences, each padded to its longest sequence with its
    pad keys masked (``forward_hidden(..., lengths=...)``); each sequence's
    rows go back to its place in corpus order.  A row is its sequence's own
    unpadded forward (bitwise at head width 16) under either mask, so the
    sort changes no bit of the cloud and only cuts the padding, and a
    sequence longer than ``max_positions`` raises ``LengthError`` there.  The
    last cloud built is kept, keyed by the content of the model and the
    corpus, so identical clones of one model share one cloud; its points and
    labels are read-only."""
    key = _proxy_key(model, corpus)
    last = _last_proxy.get("last")
    if last is None or last[0] != key:
        lengths = np.array([len(t) for t, _ in corpus.sequences])
        starts = np.cumsum(lengths) - lengths  # each sequence's first row in the cloud
        order = np.argsort(lengths, kind="stable")
        points = np.empty((lengths.sum(), model.config.d_model), np.float32)
        with T.no_grad():
            for lo in range(0, len(order), PROXY_CHUNK):
                chunk = order[lo: lo + PROXY_CHUNK]
                ids, n = pad_batch([corpus.sequences[i][0] for i in chunk])
                hidden = forward_hidden(model, embed_tokens(model, ids.ravel()), lengths=n)
                rows = np.concatenate([np.arange(s, s + k) for s, k in zip(starts[chunk], n)])
                points[rows] = hidden.data[(np.arange(ids.shape[1]) < n[:, None]).ravel()]
        cloud = LabeledPointCloud(points=T.Tensor(points),
                                  labels=np.concatenate([tags for _, tags in corpus.sequences]),
                                  class_count=corpus.tag_count)
        cloud.points.data.flags.writeable = cloud.labels.flags.writeable = False
        last = _last_proxy["last"] = (key, cloud)
    return last[1]


# -- container I/O ---------------------------------------------------------


def save_corpus(corpus: SyntheticCorpus, path) -> None:
    """Write the corpus as its ``lengths`` and its ``tokens`` and ``tags``
    padded to its longest sequence."""
    tokens, lengths = pad_batch([t for t, _ in corpus.sequences])
    tags, _ = pad_batch([g for _, g in corpus.sequences])
    header = {"kind": "tagged_corpus", "vocab_size": corpus.vocab_size,
              "tag_count": corpus.tag_count, "seed": corpus.seed}
    write_container(path, header, [
        ("lengths", lengths.astype(np.int32)),
        ("tokens", tokens.astype(np.int32)),
        ("tags", tags.astype(np.int32)),
    ])


def load_corpus(path) -> SyntheticCorpus:
    """Read a corpus ``save_corpus`` wrote; a header value that is not an
    integer, a token or tag outside ``[0, vocab_size)`` or ``[0,
    tag_count)``, or no sequence at all raises ``DataFileError`` naming the
    file."""
    header, blocks = read_container(path)
    if header.get("kind") != "tagged_corpus":
        raise DataFileError(f"{path} is not a tagged corpus container")
    with file_errors(path, "tagged corpus"):
        ints = {k: header[k] for k in ("vocab_size", "tag_count", "seed")}
        tokens, tags, lengths = (typed_block(path, blocks, k, np.int32)
                                 for k in ("tokens", "tags", "lengths"))
        if not (tokens.ndim == 2 and tags.shape == tokens.shape
                and lengths.shape == tokens.shape[:1]
                and np.all((lengths >= 1) & (lengths <= tokens.shape[1]))):
            raise DataFileError(f"tagged corpus {path} holds tokens {list(tokens.shape)}, tags "
                                f"{list(tags.shape)} and lengths {lengths.tolist()} that "
                                f"do not match")
        if len(lengths) == 0:
            raise DataFileError(f"tagged corpus {path} holds no sequences")
        for k, v in ints.items():
            if type(v) is not int:  # bool is an int subclass; reject it too
                raise DataFileError(f"tagged corpus {path} has {k} = {v!r}, not an integer")
        held = np.arange(tokens.shape[1]) < lengths[:, None]  # pad positions aside
        for what, ids, count in (("token", tokens, "vocab_size"), ("tag", tags, "tag_count")):
            if not np.all((ids[held] >= 0) & (ids[held] < ints[count])):
                raise DataFileError(f"tagged corpus {path} holds a {what} outside "
                                    f"[0, {count}={ints[count]})")
        sequences = [(tokens[i, : n].astype(np.int64), tags[i, : n].astype(np.int64))
                     for i, n in enumerate(lengths)]
        return SyntheticCorpus(**ints, sequences=sequences)
