"""One BLAS per process: importing the CLI, building a diffusion-sorption
dataset and running a job map numpy's OpenBLAS alone and never import
``scipy.linalg``.  The check runs in a fresh interpreter, since the test
oracles in this process import scipy.linalg themselves."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, os, sys
import crossmodal_pde.cli
from crossmodal_pde import tensor
from crossmodal_pde.experiments import ExperimentConfig, run_one
from crossmodal_pde.pde_data import GridSpec, build_dataset

out = sys.argv[1]
dataset_file = os.path.join(out, "sorption.bin")
build_dataset("diffusion_sorption", 4, 2, GridSpec(n_x=32, t_out=20.0), seed=5,
              out_path=dataset_file)
config = ExperimentConfig(name="one_blas", dataset_file=dataset_file,
                          out_dir=os.path.join(out, "records"), d_model=32, n_heads=4,
                          n_layers=2, d_ff=64, max_positions=64,
                          method="fpt", epochs=1, batch_size=2, seeds=[0])
record = run_one(config, 0)
with open("/proc/self/maps", encoding="utf-8") as fh:
    openblas = sorted({line.split()[-1] for line in fh
                       if "openblas" in os.path.basename(line.split()[-1]).lower()})
api = tensor._openblas_threads()
print(json.dumps({
    "scipy_linalg": "scipy.linalg" in sys.modules,
    "openblas": openblas,
    "threads": len(os.listdir("/proc/self/task")),
    "pool": api[0]() if api is not None else None,
    "nrmse": record.test_nrmse,
}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_a_sorption_job_loads_one_openblas_and_no_scipy_linalg(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["scipy_linalg"] is False
    assert len(seen["openblas"]) == 1, seen["openblas"]
    assert seen["nrmse"] > 0
    # the main thread plus numpy's OpenBLAS pool, which counts the main thread
    if seen["pool"] is not None:
        assert seen["threads"] == max(1, seen["pool"]), seen
