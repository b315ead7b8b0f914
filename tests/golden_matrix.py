"""The golden-output matrix: a fixed set of CLI runs and the sha256 of every file they write.

``tests/golden/manifest.json`` records the hashes, the runs that made
them and the Python, numpy, orjson and BLAS versions and the CPU model
they were made on;
``test_golden.py`` reruns the matrix and compares.  A change that is
meant to move emitted bytes regenerates the manifest with

    PYTHONPATH=src python tests/golden_matrix.py

and names the files that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson

from leapsim.cli import main as cli_main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
REGENERATE = "PYTHONPATH=src python tests/golden_matrix.py"

_SCENARIO = "{gen}/scenario.bin"
_PARTITION = "{coalition}/partition.json"
_TRAIN = ["--features", "4", "--tau-c", "2", "--tau-e", "2", "--tau-g", "3"]

# (run name, argv); "{name}" in an argument is the output directory of
# that earlier run, and each run writes into a directory of its own name
RUNS: tuple[tuple[str, list[str]], ...] = (
    ("gen", ["gen", "--seed", "17", "--clients", "12", "--edges", "3", "--data-size", "40"]),
    ("compare", ["compare", "--scenario", _SCENARIO, "--seed", "23", "--train", *_TRAIN]),
    # 12 * 2 * 30 * 3 = 2160 client steps, at least hfl.BATCH_MIN_STEPS: the
    # 12 equal-size clients train as one stacked chunk
    ("compare_batched",
     ["compare", "--scenario", _SCENARIO, "--seed", "29", "--train", "--features", "4",
      "--tau-c", "2", "--tau-e", "30", "--tau-g", "3"]),
    ("coalition", ["coalition", "--scenario", _SCENARIO, "--seed", "5"]),
    ("coalition_grouped",
     ["coalition", "--scenario", _SCENARIO, "--seed", "5", "--grouped-start"]),
    ("allocate", ["allocate", "--scenario", _SCENARIO, "--partition", _PARTITION]),
    ("allocate_gp_flags",
     ["allocate", "--scenario", _SCENARIO, "--partition", _PARTITION, "--step", "1e4",
      "--gp-tol", "1e-10", "--gp-max-iters", "40", "--floor", "1e3"]),
    ("simulate", ["simulate", "--scenario", _SCENARIO, "--partition", _PARTITION, *_TRAIN]),
    ("report",
     ["report", "--scenario", _SCENARIO, "--partition", _PARTITION,
      "--plan", "{allocate}/plan.json", "--format", "json,csv"]),
    ("gen_dirichlet",
     ["gen", "--seed", "4", "--clients", "16", "--edges", "4", "--classes", "6",
      "--dirichlet", "0.5", "--data-size", "30"]),
    ("compare_pairs",
     ["compare", "--scenario", "{gen_dirichlet}/scenario.bin", "--seed", "9",
      "--denominator", "pairs"]),
)


def run_matrix(root: Path) -> dict[str, str]:
    """Run every CLI command of RUNS under ``root``; the sha256 of each
    file written, keyed by its path relative to ``root``."""
    dirs = {name: str(root / name) for name, _ in RUNS}
    for name, argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([arg.format(**dirs) for arg in argv] + ["--out", dirs[name]])
        if code != 0:
            raise RuntimeError(f"golden run {name!r} exited with {code}")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def blas_env() -> dict[str, str]:
    """The name, version and ``openblas configuration`` string of the BLAS
    numpy was built against, as ``numpy.show_config`` reports them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_configuration": blas.get("openblas configuration", "unknown"),
    }


def cpu_model() -> str:
    """The ``model name`` line of /proc/cpuinfo, as perfbench's ``env``
    reads it, or ``platform.processor()`` where there is none."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment() -> dict[str, str]:
    """The versions the hashes depend on besides the code; the learner's
    bits also depend on the BLAS gemm kernel, which a DYNAMIC_ARCH
    OpenBLAS picks by CPU at run time, so the CPU model names the host."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orjson": orjson.__version__,
        **blas_env(),
        "cpu_model": cpu_model(),
    }


def build_manifest(root: Path) -> dict:
    return {
        "regenerate": REGENERATE,
        "env": environment(),
        "runs": {name: " ".join(argv) for name, argv in RUNS},
        "files": run_matrix(root),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = build_manifest(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['files'])} hashes to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
