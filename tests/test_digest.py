"""Seeded results do not depend on the hash seed or the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import anisoforge

DIGEST = Path(__file__).with_name("digest.py")


def test_digests_agree_across_hash_seeds_and_blas_threads():
    src = str(Path(anisoforge.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = [subprocess.run([sys.executable, str(DIGEST)], capture_output=True, text=True,
                           timeout=300, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed,
                                                 OPENBLAS_NUM_THREADS=threads))
            for seed, threads in (("1", "1"), ("2", "2"))]
    assert [run.returncode for run in runs] == [0, 0], "".join(run.stderr for run in runs)
    assert len(runs[0].stdout.splitlines()) == 9
    assert runs[0].stdout == runs[1].stdout
