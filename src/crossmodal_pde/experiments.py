"""Experiment runner and reporting: seeded (config, seed) jobs, immutable JSON
run records, grouped mean/min/max tables, and the spikiness diagnostic.

Every run is reproducible from the config snapshot embedded in its record;
records are written atomically and aggregated with 64-bit accumulation.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .adaptation import (
    BIDIR_NONE,
    ORCA,
    PARALLEL_FLIPPING,
    AdaptationConfig,
    Pipeline,
    mean_nrmse,
    run_adaptation,
)
from .bidir import combine_halves, parallel_flipping_train
from .container import DataFileError
from .pde_data import load_dataset
from .proxy_data import load_corpus
from .tensor import ContractError, blas_threads
from .transformer import (
    DECODER_ONLY,
    ENCODER_ONLY,
    ModelConfig,
    TransformerModel,
    build_model,
    load_checkpoint,
    pretrain,
    save_checkpoint,
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
    arch: str = DECODER_ONLY
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 4
    d_ff: int = 256
    max_positions: int = 256
    vocab_size: int = 64
    pretrained: bool = True
    checkpoint_file: str | None = None
    corpus_file: str | None = None
    pretrain_steps: int = 1500
    pretrain_lr: float = 1e-3
    pretrain_batch: int = 8
    pretrain_seed: int = 1234
    method: str = ORCA
    bidir_method: str = BIDIR_NONE
    optimizer: str | None = None
    learning_rate: float | None = None
    weight_decay: float = 0.01
    epochs: int = 100
    batch_size: int = 16
    stage1_steps: int = 100
    stage1_lr: float = 3e-3
    stage1_batch_instances: int = 8
    otdd_batch: int = 128
    pseudo_label_bins: int = 10
    sinkhorn_max_iters: int = 300
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])

    def __post_init__(self):
        # build both once so that a bad model or adaptation value fails here
        self.model_config(0)
        self.adaptation_config(0)
        # pretraining's own values, checked before any corpus is read
        for name, floor in (("pretrain_steps", 0), ("pretrain_batch", 1)):
            value = getattr(self, name)
            if not value >= floor:
                raise ContractError(f"{name} must be >= {floor}, got {value!r}")
        if not self.pretrain_lr > 0:  # also rejects a NaN
            raise ContractError(f"pretrain_lr must be > 0, got {self.pretrain_lr!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            # each seed's job writes the record file named after that seed
            raise ContractError(f"seeds must be a non-empty list of distinct seeds, "
                                f"got {self.seeds!r}")

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


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(entropy=tuple(parts)).generate_state(1)[0])


@dataclass
class RunRecord:
    schema_version: int
    config: dict
    seed: int
    family: str
    test_nrmse: float
    initial_test_nrmse: float
    epoch_losses: dict
    stage1_trace: dict
    optimizer: str
    learning_rate: float
    optimizer_overridden: bool
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


def _write_atomic(path: str, text: str) -> None:
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp-record-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _prepare_base_model(config: ExperimentConfig) -> TransformerModel | None:
    """Resolve the shared pretrained model (checkpoint or in-process pretraining).

    The random-init ablation (pretrained=False) returns None and never touches
    a checkpoint file; models are then built per seed.
    """
    if not config.pretrained:
        return None
    if config.checkpoint_file:
        return load_checkpoint(config.checkpoint_file)
    if not config.corpus_file:
        raise DataFileError("pretrained=true needs checkpoint_file or corpus_file "
                            "(in-process pretraining uses the corpus)")
    corpus = load_corpus(config.corpus_file)
    model = build_model(config.model_config(config.pretrain_seed))
    pretrain(model, [t for t, _ in corpus.sequences], steps=config.pretrain_steps,
             learning_rate=config.pretrain_lr, batch_size=config.pretrain_batch,
             seed=config.pretrain_seed)
    return model


def _check_base_model(config: ExperimentConfig, model: TransformerModel) -> None:
    """Raise ``ContractError`` naming every ``ModelConfig`` field (the seed
    aside) and the ``pretrained`` flag where ``model`` differs from ``config``:
    the record would otherwise describe another model than the one that ran."""
    want = {**asdict(config.model_config(model.config.seed)), "pretrained": config.pretrained}
    got = {**asdict(model.config), "pretrained": model.pretrained}
    diff = ", ".join(f"{k} {got[k]!r} (config: {want[k]!r})" for k in want if got[k] != want[k])
    if diff:
        raise ContractError(f"base model does not match experiment {config.name!r}: {diff}")


def _make_pipeline(config: ExperimentConfig, base: TransformerModel | None,
                   seed: int, role: int) -> Pipeline:
    if base is not None:
        model = base.clone()
    else:
        model = build_model(config.model_config(_derive_seed(seed, 7, role)))
    return Pipeline.create(model, seed=_derive_seed(seed, 11, role))


def run_one(config: ExperimentConfig, seed: int,
            base_model: TransformerModel | None = None) -> RunRecord:
    """Execute one (config, seed) job end to end and persist its record.

    The job runs on one OpenBLAS thread (``tensor.blas_threads``), so its
    record does not depend on numpy's pool size or on ``run_experiment``'s
    ``workers``: on more threads ORCA's ``np.linalg.solve`` and its class means
    over the proxy cloud sum in another order.  At the default width the pool
    only spins beside small products.  Median wall time per job of the
    benchmark's ``finetune`` jobs (d_ff = 4 d_model, 4 heads, 4 layers, L=128;
    2-core x86-64 VM, OpenBLAS 0.3.31), alternating rounds at one and two
    threads:

    ====================  =========  ==========  =========================
    d_model / d_ff        1 thread   2 threads   2 threads' wall saving
    ====================  =========  ==========  =========================
    64 / 256              0.55 s     0.56 s      -3% (CPU 0.54 -> 1.09 s)
    128 / 512             0.97 s     0.99 s      -2% and +1% (two sweeps)
    192 / 768             1.61 s     1.78 s      -10%
    256 / 1024            2.23 s     1.83 s      +18%
    ====================  =========  ==========  =========================

    A serial job at d_model 256 gives up that 18%; no benchmark workload is
    that wide, and the cross-over moves with the core count.
    """
    with blas_threads(1):
        return _run_one(config, seed, base_model)


def _run_one(config: ExperimentConfig, seed: int,
             base_model: TransformerModel | None) -> RunRecord:
    t0 = time.time()
    dataset = load_dataset(config.dataset_file)
    if base_model is None and config.pretrained:
        base_model = _prepare_base_model(config)
    if base_model is not None:
        _check_base_model(config, base_model)

    corpus = None
    if config.method == ORCA:
        if not config.corpus_file:
            raise DataFileError("ORCA runs need corpus_file for the proxy dataset")
        corpus = load_corpus(config.corpus_file)

    adapt = config.adaptation_config(seed)
    pipeline = _make_pipeline(config, base_model, seed, role=0)

    if config.bidir_method == PARALLEL_FLIPPING:
        partner = _make_pipeline(config, base_model, seed, role=1)
        _, rep_f, rep_r = parallel_flipping_train(pipeline, partner, dataset, adapt,
                                                  corpus=corpus)
        reports = {"forward": rep_f, "reversed": rep_r}
        f, r = rep_f.train, rep_r.train
        initial = combine_halves(f.initial_test_predictions, r.initial_test_predictions)
        predictions = combine_halves(f.final_test_predictions, r.final_test_predictions)
    else:
        rep_f = run_adaptation(pipeline, dataset, adapt, corpus=corpus)
        reports = {"forward": rep_f}
        initial = rep_f.train.initial_test_predictions
        predictions = rep_f.train.final_test_predictions
    epoch_losses = {name: rep.train.epoch_losses for name, rep in reports.items()}
    stage1_trace = {name: rep.stage1.trace for name, rep in reports.items()
                    if rep.stage1 is not None}

    final = mean_nrmse(predictions, dataset.test.targets)
    tv_pairs = [spikiness_diagnostic(p) for p in predictions]
    spikiness = {"first_half_tv": float(np.mean([a for a, _ in tv_pairs])),
                 "second_half_tv": float(np.mean([b for _, b in tv_pairs]))}

    record = RunRecord(
        schema_version=SCHEMA_VERSION,
        config=config.to_dict(),
        seed=seed,
        family=dataset.family,
        test_nrmse=final,
        initial_test_nrmse=mean_nrmse(initial, dataset.test.targets),
        epoch_losses=epoch_losses,
        stage1_trace=stage1_trace,
        optimizer=rep_f.train.optimizer,
        learning_rate=rep_f.train.learning_rate,
        optimizer_overridden=rep_f.train.optimizer_overridden,
        stage1_converged_fraction=rep_f.stage1.converged_fraction if rep_f.stage1 else None,
        aborted=any(rep.train.aborted for rep in reports.values()),
        spikiness=spikiness,
        wallclock_s=round(time.time() - t0, 3),
    )
    _write_atomic(record_path(config, seed), record.to_json())
    return record


def _run_job(args: tuple) -> dict:
    config_dict, seed, checkpoint = args
    base = load_checkpoint(checkpoint) if checkpoint else None
    record = run_one(ExperimentConfig.from_dict(config_dict), seed, base_model=base)
    return asdict(record)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[RunRecord]:
    """Run every seed of the experiment; seeds are independent jobs.

    With multiple workers the shared pretrained model is materialized once as
    a checkpoint, passed to the worker processes beside the config (which
    stays as the user wrote it), so they load instead of re-pretraining.
    ``workers`` below 1 raises ``ContractError``.
    """
    if workers < 1:
        raise ContractError(f"workers must be at least 1, got {workers}")
    if workers > 1:
        ckpt = None
        if config.pretrained and not config.checkpoint_file:
            ckpt = os.path.join(config.out_dir, f"{config.name}_pretrained.ckpt")
            save_checkpoint(_prepare_base_model(config), ckpt)
        jobs = [(config.to_dict(), seed, ckpt) for seed in config.seeds]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            dicts = list(pool.map(_run_job, jobs))
        return [RunRecord.from_dict(d) for d in dicts]
    base = _prepare_base_model(config) if config.pretrained else None
    return [run_one(config, seed, base_model=base) for seed in config.seeds]


# -- aggregation ---------------------------------------------------------------

CSV_COLUMNS = ("dataset", "arch", "d_model", "n_layers", "pretrained", "method",
               "bidir_method", "seed_count", "nrmse_mean", "nrmse_min", "nrmse_max",
               "wallclock_s")


@dataclass
class TableRow:
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


@dataclass
class ResultsTable:
    rows: list[TableRow]


# the config keys ``aggregate`` groups by
_GROUP_KEYS = ("arch", "d_model", "n_layers", "pretrained", "method", "bidir_method")


def load_records(records_dir) -> list[dict]:
    """Every ``*.json`` run record in the directory; a file that is not a
    record of this schema (not JSON, lacking a field ``aggregate`` reads, a
    non-numeric ``test_nrmse`` or ``wallclock_s``, or a list or object where
    ``aggregate`` groups by a scalar) raises ``DataFileError`` naming it."""
    if not os.path.isdir(records_dir):
        raise DataFileError(f"records directory not found: {records_dir}")
    records = []
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
        missing = [k for k in _GROUP_KEYS if k not in cfg]
        if missing:
            raise DataFileError(f"{path} is not a run record: config lacks {', '.join(missing)}")
        for k in ("test_nrmse", "wallclock_s"):
            if isinstance(rec[k], bool) or not isinstance(rec[k], (int, float)):
                raise DataFileError(f"{path} is not a run record: {k} is {rec[k]!r}, "
                                    f"not a number")
        for k, v in [("family", rec["family"]), *((k, cfg[k]) for k in _GROUP_KEYS)]:
            if isinstance(v, (list, dict)):
                raise DataFileError(f"{path} is not a run record: {k} is {v!r}, not a scalar")
        records.append(rec)
    return records


def aggregate(records: list[dict]) -> ResultsTable:
    """Group records and compute mean/min/max test nRMSE (64-bit sums)."""
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        cfg = rec["config"]
        key = (rec["family"], *(cfg[k] for k in _GROUP_KEYS))
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups, key=str):
        members = groups[key]
        scores = np.array([m["test_nrmse"] for m in members], dtype=np.float64)
        walls = np.array([m["wallclock_s"] for m in members], dtype=np.float64)
        rows.append(TableRow(dataset=key[0], arch=key[1], d_model=key[2], n_layers=key[3],
                             pretrained=bool(key[4]), method=key[5], bidir_method=key[6],
                             seed_count=len(members),
                             nrmse_mean=float(scores.sum() / len(scores)),
                             nrmse_min=float(scores.min()),
                             nrmse_max=float(scores.max()),
                             wallclock_s=float(walls.sum() / len(walls))))
    return ResultsTable(rows=rows)


def table_to_csv(table: ResultsTable, path) -> None:
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in table.rows:
            writer.writerow([r.dataset, r.arch, r.d_model, r.n_layers,
                             str(r.pretrained).lower(), r.method, r.bidir_method,
                             r.seed_count, repr(r.nrmse_mean), repr(r.nrmse_min),
                             repr(r.nrmse_max), repr(r.wallclock_s)])


def table_from_csv(path) -> ResultsTable:
    """Read a table ``table_to_csv`` wrote; a file lacking one of its columns,
    or holding a value that does not parse, raises ``DataFileError`` naming it."""
    if not os.path.exists(path):
        raise DataFileError(f"table file not found: {path}")
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise DataFileError(f"{path} is not a results table: missing columns "
                                f"{', '.join(missing)}")
        for rec in reader:
            try:
                if rec["pretrained"] not in ("true", "false"):
                    raise ValueError(f"pretrained is {rec['pretrained']!r}, not true or false")
                rows.append(TableRow(dataset=rec["dataset"], arch=rec["arch"],
                                     d_model=int(rec["d_model"]),
                                     n_layers=int(rec["n_layers"]),
                                     pretrained=rec["pretrained"] == "true",
                                     method=rec["method"], bidir_method=rec["bidir_method"],
                                     seed_count=int(rec["seed_count"]),
                                     nrmse_mean=float(rec["nrmse_mean"]),
                                     nrmse_min=float(rec["nrmse_min"]),
                                     nrmse_max=float(rec["nrmse_max"]),
                                     wallclock_s=float(rec["wallclock_s"])))
            except (TypeError, ValueError) as exc:  # a short row reads None
                raise DataFileError(f"{path} line {reader.line_num} is not a table row: "
                                    f"{exc}") from exc
    return ResultsTable(rows=rows)
