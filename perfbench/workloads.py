"""Workload definitions: seeded inputs (dataset, corpus, checkpoints) and the
(config, seed) jobs each workload runs through ``experiments.run_one``.

Every input is derived from the workload seed, so one seed always gives the
same files byte for byte; the program only ever sees the generated files.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from crossmodal_pde import experiments, pde_data, proxy_data, transformer


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n_x: int
    n_train: int
    n_test: int
    corpus_sequences: int
    # one job kind per entry: (arch, method, bidir_method); each runs every job seed
    kinds: tuple[tuple[str, str, str], ...]
    seeds_per_kind: int
    epochs: int
    batch_size: int
    stage1_steps: int = 0
    t_out: float | None = None  # None: the family's default horizon
    learning_rate: float | None = None  # None: the optimizer's default
    pretrain_steps: int = 20
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 4
    d_ff: int = 256


WORKLOADS = {
    # Tape forward+backward through the blocks is nearly the whole job; the
    # two archs split masked from unmasked attention.
    "finetune": Workload(
        name="finetune", family=pde_data.ADVECTION, n_x=128, n_train=16, n_test=8,
        corpus_sequences=250, kinds=((transformer.ENCODER_ONLY, "fpt", "none"),
                                     (transformer.DECODER_ONLY, "fpt", "none")),
        seeds_per_kind=3, epochs=2, batch_size=4),
    # Proxy-set build (no-grad forward at L=32) plus the Sinkhorn solve,
    # refinement and backward of a long stage 1; the fine-tune is short.  With
    # only 2 optimizer steps the nRMSE of one job hung on its seed (0.55 vs
    # 0.8); 16 steps at a lower rate make the seed mean steady.
    "orca_align": Workload(
        name="orca_align", family=pde_data.DIFFUSION_SORPTION, n_x=128, n_train=8,
        n_test=16, corpus_sequences=250, kinds=((transformer.DECODER_ONLY, "orca", "none"),),
        seeds_per_kind=3, epochs=2, batch_size=1, stage1_steps=30, learning_rate=3e-4),
    # The only threaded workload (Parallel Flipping) and the longest tapes
    # (Sequence Doubling at 2L=256); setup runs the explicit Burgers solver.
    # At the default horizon (t=0.5) viscosity leaves some test frames with a
    # small norm, and their nRMSE swung the seed mean by 30%; t=0.2 keeps the
    # frames' structure (and still makes the solver the largest set-up cost).
    "bidir": Workload(
        name="bidir", family=pde_data.BURGERS_NS, n_x=128, n_train=6, n_test=12,
        corpus_sequences=250,
        kinds=((transformer.DECODER_ONLY, "fpt", "parallel_flipping"),
               (transformer.DECODER_ONLY, "fpt", "sequence_doubling")),
        seeds_per_kind=3, epochs=3, batch_size=1, t_out=0.2, learning_rate=3e-4),
}


@dataclass
class Inputs:
    dataset_file: str
    corpus_file: str
    checkpoint_files: dict[str, str]  # arch -> path

    def files(self) -> list[str]:
        return [self.dataset_file, self.corpus_file, *self.checkpoint_files.values()]


def setup(w: Workload, seed: int, out_dir: str) -> Inputs:
    """Generate and persist the workload's inputs: PDE dataset, corpus, and one
    pretrained checkpoint per arch.  Module attributes are looked up at call
    time so a traced run sees its wrappers."""
    os.makedirs(out_dir, exist_ok=True)
    inputs = Inputs(dataset_file=os.path.join(out_dir, "dataset.bin"),
                    corpus_file=os.path.join(out_dir, "corpus.bin"), checkpoint_files={})
    grid = pde_data.default_grid(w.family, w.n_x)
    if w.t_out is not None:
        grid = dataclasses.replace(grid, t_out=w.t_out)
    pde_data.build_dataset(w.family, w.n_train, w.n_test, grid, seed=seed,
                           out_path=inputs.dataset_file)
    corpus = proxy_data.gen_corpus(seed + 1, w.corpus_sequences)
    proxy_data.save_corpus(corpus, inputs.corpus_file)
    tokens = [t for t, _ in corpus.sequences]
    for arch in dict.fromkeys(arch for arch, _, _ in w.kinds):  # one checkpoint per arch
        cfg = transformer.ModelConfig(arch=arch, d_model=w.d_model, n_heads=w.n_heads,
                                      n_layers=w.n_layers, d_ff=w.d_ff, seed=seed + 2)
        model = transformer.build_model(cfg)
        transformer.pretrain(model, tokens, steps=w.pretrain_steps,
                             batch_size=8, seed=seed + 2)
        path = os.path.join(out_dir, f"{arch}.ckpt")
        transformer.save_checkpoint(model, path)
        inputs.checkpoint_files[arch] = path
    return inputs


@dataclass
class Job:
    config: experiments.ExperimentConfig
    seed: int
    base_model: transformer.TransformerModel

    @property
    def key(self) -> str:
        return f"{self.config.name}/seed{self.seed}"


def make_jobs(w: Workload, seed: int, inputs: Inputs, records_dir: str) -> list[Job]:
    """One config per job kind, its base model loaded once (as run_experiment
    does), and jobs interleaved across kinds so any prefix stays balanced."""
    per_kind = []
    for i, (arch, method, bidir_method) in enumerate(w.kinds):
        cfg = experiments.ExperimentConfig(
            name=f"{w.name}-{i}-{arch}-{method}-{bidir_method}",
            dataset_file=inputs.dataset_file, out_dir=records_dir, arch=arch,
            d_model=w.d_model, n_heads=w.n_heads, n_layers=w.n_layers, d_ff=w.d_ff,
            checkpoint_file=inputs.checkpoint_files[arch],
            corpus_file=inputs.corpus_file if method == "orca" else None,
            method=method, bidir_method=bidir_method, epochs=w.epochs,
            learning_rate=w.learning_rate, batch_size=w.batch_size,
            stage1_steps=w.stage1_steps,
            seeds=[seed * 100 + j for j in range(w.seeds_per_kind)])
        base = transformer.load_checkpoint(cfg.checkpoint_file)
        per_kind.append([Job(cfg, s, base) for s in cfg.seeds])
    return [job for group in zip(*per_kind) for job in group]
