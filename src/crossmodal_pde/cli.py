"""Command-line interface: dataset and corpus generation, pretraining,
experiment runs, aggregation, plotting, and the doctor self-check suite.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .container import DataFileError
from .pde_data import FAMILIES, GridSpec, build_dataset, default_grid
from .proxy_data import gen_corpus, load_corpus, save_corpus
from .transformer import (
    DECODER_ONLY,
    ENCODER_ONLY,
    ModelConfig,
    build_model,
    pretrain,
    save_checkpoint,
)


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

    p_pre = sub.add_parser("pretrain", help="pretrain a toy model on a corpus")
    p_pre.add_argument("--arch", required=True, choices=[ENCODER_ONLY, DECODER_ONLY])
    p_pre.add_argument("--corpus", required=True)
    p_pre.add_argument("--out", required=True)
    p_pre.add_argument("--steps", type=_at_least(0), default=1500)
    p_pre.add_argument("--seed", type=_at_least(0), default=0)
    p_pre.add_argument("--d-model", type=int, default=64)
    p_pre.add_argument("--n-heads", type=int, default=4)
    p_pre.add_argument("--n-layers", type=int, default=4)
    p_pre.add_argument("--d-ff", type=int, default=256)
    p_pre.add_argument("--max-positions", type=int, default=256)
    p_pre.add_argument("--learning-rate", type=float, default=1e-3)
    p_pre.add_argument("--batch-size", type=_at_least(1), default=8)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=_at_least(1), default=1)

    p_table = sub.add_parser("table", help="aggregate run records into a CSV table")
    p_table.add_argument("--records", required=True)
    p_table.add_argument("--out", required=True)

    p_plot = sub.add_parser("plot", help="render a CSV table as an SVG bar chart")
    p_plot.add_argument("--table", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--title", default="test nRMSE")

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
    corpus = load_corpus(args.corpus)
    config = ModelConfig(arch=args.arch, d_model=args.d_model, n_heads=args.n_heads,
                         n_layers=args.n_layers, d_ff=args.d_ff,
                         max_positions=args.max_positions,
                         vocab_size=corpus.vocab_size, seed=args.seed)
    model = build_model(config)
    trace = pretrain(model, [t for t, _ in corpus.sequences], steps=args.steps,
                     learning_rate=args.learning_rate, batch_size=args.batch_size,
                     seed=args.seed)
    save_checkpoint(model, args.out)
    loss = (f" (loss {np.mean(trace[:20]):.3f} -> {np.mean(trace[-20:]):.3f})"
            if trace else "")
    print(f"pretrained {args.arch} for {args.steps} steps{loss}; checkpoint at {args.out}")
    return 0


def _cmd_run(args) -> int:
    from .experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_json_file(args.config)
    records = run_experiment(config, workers=args.workers)
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
    table = aggregate(records)
    table_to_csv(table, args.out)
    print(f"wrote {len(table.rows)} table rows to {args.out}")
    return 0


def _cmd_plot(args) -> int:
    from .experiments import table_from_csv
    from .figures import emit_figure

    table = table_from_csv(args.table)
    svg = emit_figure(table, title=args.title)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote figure with {len(table.rows)} bars to {args.out}")
    return 0


def _cmd_doctor(_args) -> int:
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - doctor reports everything
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    check("autodiff gradient check", _doctor_gradients)
    check("causal mask bit-exactness", _doctor_causality)
    check("advection analytic target", _doctor_advection)
    check("sinkhorn vs permutation oracle", _doctor_sinkhorn)
    check("flip involution and half combine", _doctor_bidir)
    check("softmax row sums", _doctor_softmax)
    check("masked softmax exact zeros", _doctor_masked_softmax)
    check("GELU vs float64 erf", _doctor_gelu)
    failed = 0
    for name, ok, msg in checks:
        print(f"[{'ok' if ok else 'FAIL'}] {name}" + (f" ({msg})" if msg else ""))
        failed += 0 if ok else 1
    return 1 if failed else 0


def _doctor_gradients():
    from . import tensor as T
    from .tensor import Tensor

    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(scale=0.5, size=(6, 4)).astype(np.float32), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 6)).astype(np.float32))
    loss = T.tmean(T.square(T.gelu(T.matmul(x, w))))
    loss.backward()
    flat = w.data.reshape(-1)
    gflat = w.grad.reshape(-1)
    h = 1e-3
    for i in range(0, flat.size, 5):
        orig = flat[i]
        flat[i] = np.float32(float(orig) + h)
        with T.no_grad():
            hi = T.tmean(T.square(T.gelu(T.matmul(x, w)))).item()
        hi_x = float(flat[i])
        flat[i] = np.float32(float(orig) - h)
        with T.no_grad():
            lo = T.tmean(T.square(T.gelu(T.matmul(x, w)))).item()
        lo_x = float(flat[i])
        flat[i] = orig
        fd = (hi - lo) / (hi_x - lo_x)
        if abs(fd - gflat[i]) > 1e-4 * max(1.0, abs(fd), abs(gflat[i])):
            raise AssertionError(f"grad mismatch at {i}: {gflat[i]} vs {fd}")


def _doctor_causality():
    from . import tensor as T
    from .tensor import Tensor
    from .transformer import forward_hidden

    # three row blocks of causal attention, the last one of 10 rows
    L = 2 * T._CAUSAL_BLOCK + 10
    model = build_model(ModelConfig(arch=DECODER_ONLY, d_model=32, n_heads=4, n_layers=2,
                                    d_ff=64, max_positions=L, vocab_size=16, seed=1))
    for p in model.params.values():  # weights at 10x their init scale: a leak shows
        if p.data.ndim == 2:
            p.data *= 10.0
    rng = np.random.default_rng(1)
    x = rng.normal(size=(L, 32)).astype(np.float32)
    with T.no_grad():
        base = forward_hidden(model, Tensor(x)).data
        # the last row, then the first row of the last block
        for row in (L - 1, 2 * T._CAUSAL_BLOCK):
            x2 = x.copy()
            x2[row] += 1.0
            pert = forward_hidden(model, Tensor(x2)).data
            if not np.array_equal(base[:row], pert[:row]):
                raise AssertionError(f"position {row} leaked into earlier outputs")


def _doctor_advection():
    from .pde_data import advection_frames_f64

    grid = GridSpec(n_x=64, t_out=2.5)
    u0, ut = advection_frames_f64(grid, beta=0.4, seed=3)
    if np.abs(u0 - ut).max() >= 1e-12:
        raise AssertionError("full-wrap advection should reproduce the input")


def _doctor_sinkhorn():
    from .otdd import SinkhornParams, exact_transport_cost, sinkhorn
    from .tensor import Tensor

    rng = np.random.default_rng(2)
    cost = ((rng.normal(size=(5, 1, 2)) - rng.normal(size=(1, 5, 2))) ** 2).sum(-1)
    res = sinkhorn(Tensor(cost.astype(np.float32)),
                   SinkhornParams(epsilon=0.01 * float(np.median(cost)), max_iters=5000))
    opt = exact_transport_cost(cost)
    if not (0.98 * opt - 1e-9 <= res.cost.item() <= 1.02 * opt + 1e-9):
        raise AssertionError(f"sinkhorn {res.cost.item()} vs oracle {opt}")


def _doctor_bidir():
    from .bidir import combine_halves, flip

    x = np.arange(8, dtype=np.float32)
    if not np.array_equal(flip(flip(x)), x):
        raise AssertionError("flip is not an involution")
    out = combine_halves(np.array([1.0, 2.0, 3.0, 4.0]), np.array([9.0, 8.0, 7.0, 6.0]))
    if not np.array_equal(out, np.array([6.0, 7.0, 3.0, 4.0])):
        raise AssertionError("combine_halves definition drifted")


def _doctor_softmax():
    from . import tensor as T
    from .tensor import Tensor

    rng = np.random.default_rng(3)
    x = rng.uniform(-1e4, 1e4, size=(8, 16)).astype(np.float32)
    s = T.softmax_lastdim(Tensor(x)).data.sum(axis=-1, dtype=np.float64)
    if np.abs(s - 1.0).max() >= 1e-6:
        raise AssertionError("softmax rows do not sum to 1")


def _doctor_masked_softmax():
    from . import tensor as T
    from .tensor import Tensor
    from .transformer import causal_bias

    L = 16
    bias = causal_bias(L)
    if causal_bias(L) is not bias or bias.flags.writeable:
        raise AssertionError("causal bias is not a cached read-only array")
    x = np.random.default_rng(4).uniform(-50, 50, size=(2, L, L)).astype(np.float32)
    probs = T.softmax_lastdim(Tensor(x), bias=bias).data
    if not np.all(probs[:, ~np.tri(L, dtype=bool)] == 0.0):
        raise AssertionError("masked attention weights are not exactly 0.0")
    if np.abs(probs.sum(axis=-1, dtype=np.float64) - 1.0).max() >= 1e-6:
        raise AssertionError("masked softmax rows do not sum to 1")


def _doctor_gelu():
    from . import tensor as T

    err = T._gelu_cdf_max_error()
    if not err <= 3e-7:
        raise AssertionError(f"GELU cdf is {err:.3g} from the float64 erf (bound 3e-7)")


_COMMANDS = {
    "gen": _cmd_gen,
    "corpus": _cmd_corpus,
    "pretrain": _cmd_pretrain,
    "run": _cmd_run,
    "table": _cmd_table,
    "plot": _cmd_plot,
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
    except (DataFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
