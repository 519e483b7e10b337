"""Experiment runner and reporting: seeded (config, seed) jobs, immutable JSON
run records, their grouped mean/min/max test nRMSE as a CSV table, and the
spikiness diagnostic.

Every run is reproducible from the config snapshot embedded in its record;
records are written atomically and aggregated with 64-bit accumulation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields

import numpy as np

from .adaptation import (
    ORCA,
    PARALLEL_FLIPPING,
    SEQUENCE_DOUBLING,
    AdaptationConfig,
    Pipeline,
    evaluate_nrmse,
    predict_sequence,
    run_adaptation,
)
from .bidir import FlipPair, parallel_flipping_train
from .container import DataFileError, write_atomic
from .pde_data import derive_seed, load_dataset
from .proxy_data import SyntheticCorpus, load_corpus
from .tensor import ContractError, blas_threads
from .transformer import (
    DECODER_ONLY,
    LengthError,
    ModelConfig,
    TransformerModel,
    build_model,
    load_checkpoint,
)

SCHEMA_VERSION = 1


def spikiness_diagnostic(pred: np.ndarray) -> tuple[float, float]:
    """Total variation of each half of a prediction (exclusive halves).

    Quantifies the first-half/second-half irregularity asymmetry of causal
    pipelines; the step across the midpoint belongs to neither half.
    """
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    L = len(pred)
    if L % 2 != 0:
        raise ContractError("spikiness needs an even-length prediction")
    h = L // 2
    first = float(np.abs(np.diff(pred[:h])).sum())
    second = float(np.abs(np.diff(pred[h:])).sum())
    return first, second


@dataclass
class ExperimentConfig:
    name: str
    dataset_file: str
    out_dir: str
    arch: str = DECODER_ONLY  # the other defaults are ModelConfig's and AdaptationConfig's
    d_model: int = ModelConfig.d_model
    n_heads: int = ModelConfig.n_heads
    n_layers: int = ModelConfig.n_layers
    d_ff: int = ModelConfig.d_ff
    max_positions: int = ModelConfig.max_positions
    vocab_size: int = ModelConfig.vocab_size
    checkpoint_file: str | None = None
    corpus_file: str | None = None
    method: str = AdaptationConfig.method
    bidir_method: str = AdaptationConfig.bidir_method
    learning_rate: float | None = AdaptationConfig.learning_rate
    epochs: int = AdaptationConfig.epochs
    batch_size: int = AdaptationConfig.batch_size
    stage1_steps: int = AdaptationConfig.stage1_steps
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])

    def __post_init__(self):
        if not self.name or any(sep and sep in self.name for sep in (os.sep, os.altsep)):
            # records go to out_dir/<name>_seed<seed>.json; load_records reads out_dir alone
            raise ContractError(f"name {self.name!r} must be a non-empty file name "
                                f"with no path separator")
        # build both once so that a bad model or adaptation value fails here
        self.model_config(0)
        self.adaptation_config(0)
        if not self.seeds or len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            # each seed's job writes the record file named after that seed, and
            # derives its model and pipeline seeds from it
            raise ContractError(f"seeds must be a non-empty list of distinct non-negative "
                                f"seeds, got {self.seeds!r}")
        if self.corpus_file is not None and self.method != ORCA:
            raise ContractError(f"corpus_file {self.corpus_file!r} is ORCA's proxy corpus, "
                                f"which a {self.method!r} run never reads")
        if self.corpus_file is None and self.method == ORCA:
            raise ContractError("an ORCA run needs corpus_file, the corpus its stage 1 "
                                "embeds as the proxy dataset")

    def _shared(self, cls, seed: int):
        """A ``cls`` config from this config's fields of the same names."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls) if f.name != "seed"},
                   seed=seed)

    def model_config(self, seed: int) -> ModelConfig:
        return self._shared(ModelConfig, seed)

    def adaptation_config(self, seed: int) -> AdaptationConfig:
        return self._shared(AdaptationConfig, seed)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build from a JSON object; an unknown or missing key, or a value that
        does not match its field's type, raises ``ContractError`` naming the key."""
        if not isinstance(d, dict):
            raise ContractError(f"an experiment config is a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ContractError(f"unknown experiment config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ContractError(f"missing experiment config keys: {', '.join(missing)}")
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if f.name in d and not _matches(d[f.name], hints[f.name]):
                raise ContractError(f"experiment config key {f.name!r} must be {f.type}, "
                                    f"got {d[f.name]!r}")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        if not os.path.exists(path):
            raise DataFileError(f"experiment config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _matches(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: an int fits a float
    field, and a bool only a bool field."""
    if isinstance(hint, types.UnionType):
        return any(_matches(value, a) for a in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_matches(v, typing.get_args(hint)[0])
                                               for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class RunRecord:
    schema_version: int
    config: dict
    seed: int
    family: str
    test_nrmse: float
    initial_test_nrmse: float | None  # null: kept until the benchmark rewrite (ROADMAP 6)
    epoch_losses: dict
    stage1_trace: dict
    optimizer: str
    learning_rate: float
    stage1_converged_fraction: float | None
    aborted: bool
    spikiness: dict
    wallclock_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(**d)


def record_path(config: ExperimentConfig, seed: int) -> str:
    return os.path.join(config.out_dir, f"{config.name}_seed{seed}.json")


def _check_lengths(config: ExperimentConfig, n_x: int,
                   corpus: SyntheticCorpus | None) -> None:
    """Raise ``LengthError`` naming ``max_positions`` where a sequence the run
    gives the model is longer than its position table: a frame of ``n_x``
    points, doubled under Sequence Doubling, and the longest sequence of
    ORCA's proxy ``corpus``."""
    needs = [(f"a frame of {n_x} points", n_x)]
    if config.bidir_method == SEQUENCE_DOUBLING:
        needs = [(f"sequence doubling of a frame of {n_x} points", 2 * n_x)]
    if corpus is not None:
        needs.append(("ORCA's proxy corpus", max(len(t) for t, _ in corpus.sequences)))
    for what, length in needs:
        if length > config.max_positions:
            raise LengthError(f"{what} needs max_positions >= {length}, "
                              f"got max_positions={config.max_positions}")


def _base_model(config: ExperimentConfig,
                model: TransformerModel | None) -> TransformerModel | None:
    """The model a run starts from: ``model``, else its checkpoint's, or None
    for a random-init run, which takes no ``model``.  A model the record would
    misdescribe (given to a random-init run, of 0 pretraining steps, or unlike
    ``config`` in a ``ModelConfig`` field but the seed) raises ``ContractError``."""
    if config.checkpoint_file is None:
        if model is not None:
            raise ContractError(f"experiment {config.name!r} names no checkpoint_file, so it "
                                f"builds its models from the seed and takes no base_model")
        return None
    model = model or load_checkpoint(config.checkpoint_file)
    if not model.pretrained:
        raise ContractError(f"checkpoint {config.checkpoint_file} holds a model of 0 "
                            f"pretraining steps (pretrained: false); a random-init run "
                            f"names no checkpoint_file")
    want = asdict(config.model_config(model.config.seed))
    got = asdict(model.config)
    diff = ", ".join(f"{k} {got[k]!r} (config: {want[k]!r})" for k in want if got[k] != want[k])
    if diff:
        raise ContractError(f"base model does not match experiment {config.name!r}: {diff}")
    return model


def _make_pipeline(config: ExperimentConfig, base: TransformerModel | None,
                   seed: int, role: int) -> Pipeline:
    if base is not None:
        model = base.clone()
    else:
        model = build_model(config.model_config(derive_seed(seed, 7, role)))
    return Pipeline.create(model, seed=derive_seed(seed, 11, role))


def run_one(config: ExperimentConfig, seed: int,
            base_model: TransformerModel | None = None) -> RunRecord:
    """Execute one (config, seed) job end to end and persist its record.

    The job runs on one OpenBLAS thread (``tensor.blas_threads``), so its
    record does not depend on numpy's pool size or on ``run_experiment``'s
    ``workers``: on more threads ORCA's ``np.linalg.solve`` and its class means
    over the proxy cloud sum in another order.  At the default width the pool
    only spins beside small products; README.md gives the measured wall times
    per job at one and two threads.
    """
    with blas_threads(1):
        return _run_one(config, seed, base_model)


def _run_one(config: ExperimentConfig, seed: int,
             base_model: TransformerModel | None) -> RunRecord:
    t0 = time.time()
    dataset = load_dataset(config.dataset_file)
    corpus = load_corpus(config.corpus_file) if config.corpus_file else None
    _check_lengths(config, dataset.grid.n_x, corpus)
    base_model = _base_model(config, base_model)
    # an out_dir that cannot hold the record fails before training, not after it
    os.makedirs(config.out_dir, exist_ok=True)

    adapt = config.adaptation_config(seed)
    pipeline = _make_pipeline(config, base_model, seed, role=0)
    if config.bidir_method == PARALLEL_FLIPPING:
        pair = FlipPair(pipeline, _make_pipeline(config, base_model, seed, role=1))
        predict = pair.predict
    else:
        def predict(x: np.ndarray) -> np.ndarray:
            return predict_sequence(pipeline.model, pipeline.embedder, pipeline.predictor, x,
                                    bidir_method=config.bidir_method).data

    if config.bidir_method == PARALLEL_FLIPPING:
        rep_f, rep_r = parallel_flipping_train(pair, dataset, adapt, corpus=corpus)
        reports = {"forward": rep_f, "reversed": rep_r}
    else:
        rep_f = run_adaptation(pipeline, dataset, adapt, corpus=corpus)
        reports = {"forward": rep_f}
    final, predictions = evaluate_nrmse(predict, dataset.test, config.batch_size)
    epoch_losses = {name: rep.train.epoch_losses for name, rep in reports.items()}
    stage1 = {name: rep.stage1 for name, rep in reports.items() if rep.stage1 is not None}
    # both pipelines take config.stage1_steps, so the mean is the share over all their steps
    converged = [s.converged_fraction for s in stage1.values()
                 if s.converged_fraction is not None]

    tv_pairs = [spikiness_diagnostic(p) for p in predictions]
    spikiness = {"first_half_tv": float(np.mean([a for a, _ in tv_pairs])),
                 "second_half_tv": float(np.mean([b for _, b in tv_pairs]))}

    record = RunRecord(
        schema_version=SCHEMA_VERSION,
        config=config.to_dict(),
        seed=seed,
        family=dataset.family,
        test_nrmse=final,
        initial_test_nrmse=None,
        epoch_losses=epoch_losses,
        stage1_trace={name: s.trace for name, s in stage1.items()},
        optimizer=rep_f.train.optimizer,
        learning_rate=rep_f.train.learning_rate,
        stage1_converged_fraction=sum(converged) / len(converged) if converged else None,
        aborted=any(rep.train.aborted for rep in reports.values()),
        spikiness=spikiness,
        wallclock_s=round(time.time() - t0, 3),
    )
    write_atomic(record_path(config, seed), [record.to_json().encode("utf-8")],
                 prefix=".tmp-record-")
    return record


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[RunRecord]:
    """Run every seed of the experiment as its own ``run_one(config, seed)``
    job, in this process or, with ``workers`` above 1, in a pool of that many
    processes.  Each job loads the config's checkpoint itself; the pool writes
    nothing beside the records.  ``workers`` below 1 raises ``ContractError``.
    """
    if workers < 1:
        raise ContractError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        return [run_one(config, seed) for seed in config.seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, [config] * len(config.seeds), config.seeds))


# -- aggregation ---------------------------------------------------------------


@dataclass
class TableRow:
    """One group of records; its fields are the table's CSV columns in order."""
    dataset: str
    arch: str
    d_model: int
    n_layers: int
    pretrained: bool
    method: str
    bidir_method: str
    seed_count: int
    nrmse_mean: float
    nrmse_min: float
    nrmse_max: float
    wallclock_s: float


_COLUMNS = tuple(f.name for f in fields(TableRow))
# the columns ``aggregate`` computes over a group; it groups by the others
_STAT_COLUMNS = ("seed_count", "nrmse_mean", "nrmse_min", "nrmse_max", "wallclock_s")
_GROUP_COLUMNS = tuple(c for c in _COLUMNS if c not in _STAT_COLUMNS)


def _group(rec: dict) -> tuple:
    """A record's group values: ``dataset`` is its family, and ``pretrained`` an
    older record's flag, or else whether its config names a ``checkpoint_file``."""
    cfg = rec["config"]
    pretrained = cfg.get("pretrained", cfg.get("checkpoint_file") is not None)
    values = {**cfg, "dataset": rec["family"], "pretrained": bool(pretrained)}
    return tuple(values[c] for c in _GROUP_COLUMNS)


def unscored(record: dict) -> bool:
    """Whether a run record stays out of every mean: its fine-tune hit a
    non-finite loss (``aborted``; a record without the field did not), or its
    ``test_nrmse`` is not finite."""
    return bool(record.get("aborted", False)) or not math.isfinite(record["test_nrmse"])


def load_records(records_dir) -> list[dict]:
    """Every ``*.json`` run record in the directory; a file that is not a
    record of this schema (not JSON, lacking a field ``aggregate`` reads, a
    non-numeric ``test_nrmse`` or ``wallclock_s``, a non-boolean ``aborted``,
    or a list or object where ``aggregate`` groups by a scalar) raises
    ``DataFileError`` naming it.
    Records that are ``unscored`` raise ``ContractError`` naming each file."""
    if not os.path.isdir(records_dir):
        raise DataFileError(f"records directory not found: {records_dir}")
    records = []
    unscored_paths = []
    for name in sorted(os.listdir(records_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(records_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                rec = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFileError(f"{path} is not a JSON run record: {exc}") from exc
        if not isinstance(rec, dict) or rec.get("schema_version") != SCHEMA_VERSION:
            raise DataFileError(f"{path} is not a run record of schema_version "
                                f"{SCHEMA_VERSION}")
        missing = [k for k in ("config", "family", "test_nrmse", "wallclock_s") if k not in rec]
        if missing:
            raise DataFileError(f"{path} is not a run record: missing {', '.join(missing)}")
        cfg = rec["config"]
        if not isinstance(cfg, dict):
            raise DataFileError(f"{path} is not a run record: config is not an object")
        missing = [c for c in _GROUP_COLUMNS if c not in {*cfg, "dataset", "pretrained"}]
        if missing:
            raise DataFileError(f"{path} is not a run record: config lacks {', '.join(missing)}")
        for k in ("test_nrmse", "wallclock_s"):
            if isinstance(rec[k], bool) or not isinstance(rec[k], (int, float)):
                raise DataFileError(f"{path} is not a run record: {k} is {rec[k]!r}, "
                                    f"not a number")
        if not isinstance(rec.get("aborted", False), bool):
            raise DataFileError(f"{path} is not a run record: aborted is "
                                f"{rec['aborted']!r}, not a boolean")
        scalars = [("family", rec["family"]), *((k, cfg[k]) for k in _GROUP_COLUMNS if k in cfg)]
        for k, v in scalars:
            if isinstance(v, (list, dict)):
                raise DataFileError(f"{path} is not a run record: {k} is {v!r}, not a scalar")
        if unscored(rec):
            unscored_paths.append(path)
        records.append(rec)
    if unscored_paths:
        raise ContractError(f"no mean takes a run record that aborted or holds a non-finite "
                            f"test_nrmse: {', '.join(unscored_paths)}")
    return records


def aggregate(records: list[dict]) -> list[TableRow]:
    """Group records and compute mean/min/max test nRMSE (64-bit sums)."""
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        groups.setdefault(_group(rec), []).append(rec)
    rows = []
    for key in sorted(groups, key=str):
        members = groups[key]
        scores = np.array([m["test_nrmse"] for m in members], dtype=np.float64)
        walls = np.array([m["wallclock_s"] for m in members], dtype=np.float64)
        rows.append(TableRow(**dict(zip(_GROUP_COLUMNS, key)), seed_count=len(members),
                             nrmse_mean=float(scores.sum() / len(scores)),
                             nrmse_min=float(scores.min()),
                             nrmse_max=float(scores.max()),
                             wallclock_s=float(walls.sum() / len(walls))))
    return rows


def table_to_csv(rows: list[TableRow], path) -> None:
    """Write the table atomically: a failed write leaves the old file."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(_COLUMNS)
    for r in rows:  # a float's cell is its repr
        writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in astuple(r)])
    write_atomic(path, [text.getvalue().encode("utf-8")], prefix=".tmp-table-")

