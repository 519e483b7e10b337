"""Command-line interface: dataset and corpus generation, pretraining,
experiment runs, aggregation, and the doctor self-check suite.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .container import DataFileError
from .pde_data import FAMILIES, build_dataset, default_grid
from .proxy_data import gen_corpus, load_corpus, save_corpus
from .tensor import ContractError
from .transformer import LengthError, build_model, pretrain, save_checkpoint


def _at_least(minimum: int):
    """argparse type: an int no smaller than ``minimum``."""
    def parse(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crossmodal-pde",
                                     description="Cross-modal PDE adaptation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a PDE dataset file")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n-train", type=int, required=True)
    p_gen.add_argument("--n-test", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=_at_least(0), default=0)
    p_gen.add_argument("--n-x", type=int, default=128)

    p_corpus = sub.add_parser("corpus", help="generate the synthetic tagged corpus")
    p_corpus.add_argument("--out", required=True)
    p_corpus.add_argument("--seed", type=_at_least(0), default=0)
    p_corpus.add_argument("--n-sequences", type=int, default=2000)
    p_corpus.add_argument("--vocab-size", type=int, default=64)
    p_corpus.add_argument("--tag-count", type=int, default=9)

    p_pre = sub.add_parser("pretrain", help="pretrain the checkpoint an experiment config names")
    p_pre.add_argument("--config", required=True)
    p_pre.add_argument("--corpus", required=True)
    p_pre.add_argument("--steps", type=_at_least(0), default=1500)
    p_pre.add_argument("--seed", type=_at_least(0), default=0)
    p_pre.add_argument("--learning-rate", type=float, default=1e-3)
    p_pre.add_argument("--batch-size", type=_at_least(1), default=8)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=_at_least(1), default=1)

    p_table = sub.add_parser("table", help="aggregate run records into a CSV table")
    p_table.add_argument("--records", required=True)
    p_table.add_argument("--out", required=True)

    sub.add_parser("doctor", help="run the fast invariant self-checks")
    return parser


def _cmd_gen(args) -> int:
    grid = default_grid(args.family, n_x=args.n_x)
    build_dataset(args.family, args.n_train, args.n_test, grid, seed=args.seed,
                  out_path=args.out)
    print(f"wrote {args.family} dataset ({args.n_train} train / {args.n_test} test) "
          f"to {args.out}")
    return 0


def _cmd_corpus(args) -> int:
    corpus = gen_corpus(seed=args.seed, n_sequences=args.n_sequences,
                        vocab_size=args.vocab_size, tag_count=args.tag_count)
    save_corpus(corpus, args.out)
    lengths = [len(t) for t, _ in corpus.sequences]
    print(f"wrote corpus ({len(lengths)} sequences, {min(lengths)}-{max(lengths)} tokens) "
          f"to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    from .experiments import ExperimentConfig

    config = ExperimentConfig.from_json_file(args.config)
    out = config.checkpoint_file
    if out is None:
        raise ContractError(f"{args.config} names no checkpoint_file, so it is a random-init "
                            f"experiment and has no model to pretrain")
    corpus = load_corpus(args.corpus)
    if corpus.vocab_size != config.vocab_size:
        raise ContractError(f"corpus {args.corpus} has vocab_size {corpus.vocab_size}, but "
                            f"{args.config} has vocab_size {config.vocab_size}")
    longest = max(len(t) for t, _ in corpus.sequences)
    if longest > config.max_positions:
        raise LengthError(f"corpus {args.corpus} holds a sequence of {longest} tokens, more "
                          f"than max_positions {config.max_positions} in {args.config}")
    # a checkpoint_file that cannot be written fails before the first step, not after the last
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    model = build_model(config.model_config(args.seed))
    trace = pretrain(model, [t for t, _ in corpus.sequences], steps=args.steps,
                     learning_rate=args.learning_rate, batch_size=args.batch_size,
                     seed=args.seed)
    save_checkpoint(model, out)
    loss = (f" (loss {np.mean(trace[:20]):.3f} -> {np.mean(trace[-20:]):.3f})"
            if trace else "")
    print(f"pretrained {config.arch} for {args.steps} steps{loss}; checkpoint at {out}")
    return 0


def _cmd_run(args) -> int:
    from .experiments import ExperimentConfig, run_experiment, unscored

    config = ExperimentConfig.from_json_file(args.config)
    records = run_experiment(config, workers=args.workers)
    bad = [r.seed for r in records if unscored(vars(r))]
    if bad:
        raise ContractError(f"{config.name}: the runs of seeds {bad} aborted or scored a "
                            f"non-finite test nRMSE, so no mean is printed; records in "
                            f"{config.out_dir}")
    scores = [r.test_nrmse for r in records]
    print(f"{config.name}: {len(records)} runs, test nRMSE "
          f"mean {np.mean(scores):.4f} min {np.min(scores):.4f} max {np.max(scores):.4f}; "
          f"records in {config.out_dir}")
    return 0


def _cmd_table(args) -> int:
    from .experiments import aggregate, load_records, table_to_csv

    records = load_records(args.records)
    if not records:
        raise DataFileError(f"no run records found in {args.records}")
    rows = aggregate(records)
    table_to_csv(rows, args.out)
    print(f"wrote {len(rows)} table rows to {args.out}")
    return 0


def _cmd_doctor(_args) -> int:
    from . import invariants

    failed = 0
    for name, check in invariants.CHECKS:
        try:
            check()
            print(f"[ok] {name}")
        except Exception as exc:  # noqa: BLE001 - doctor reports everything
            print(f"[FAIL] {name} ({type(exc).__name__}: {exc})")
            failed += 1
    return 1 if failed else 0


_COMMANDS = {
    "gen": _cmd_gen,
    "corpus": _cmd_corpus,
    "pretrain": _cmd_pretrain,
    "run": _cmd_run,
    "table": _cmd_table,
    "doctor": _cmd_doctor,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:  # a file that is missing, malformed or cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
