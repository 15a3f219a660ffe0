"""How cfolab loads OpenBLAS, each case in a fresh child process.

Without a thread variable, `import cfolab` loads numpy with one OpenBLAS
thread and leaves the environment as it found it. A caller's count, or a
numpy loaded before cfolab, is left alone. And a pool that a caller asked
for stays idle through a campaign, because every product stays on the
calling thread: that is why loading one thread costs nothing.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from support import BLAS_THREAD_VARS, package_env


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without config dicts: the BLAS is unknown
        return ""


pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                       reason="counts threads in /proc/self/task (Linux)"),
    pytest.mark.skipif("openblas" not in _blas_name().lower(),
                       reason="the thread variables are OpenBLAS's"),
]

# OpenBLAS runs at most one thread per CPU it may use
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# prints the OS thread count and the environment before and after `import cfolab`
POLICY_CHILD = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
before = len(os.listdir("/proc/self/task")), dict(os.environ)
import cfolab
print(json.dumps([before, (len(os.listdir("/proc/self/task")), dict(os.environ))]))
"""

# prints the clock ticks that the threads other than the main one spend on a
# 40-trial paper-fig3 campaign and a 15-index paper-fig2 sweep, after an idle
IDLE_CHILD = """
import json, os, time
from dataclasses import replace
from cfolab import harness

def worker_ticks():
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])  # utime and stime
    return ticks

time.sleep(0.5)
before = worker_ticks()
harness.run_mse_vs_snr(replace(harness.preset_spec("paper-fig3"), trials=40))
harness.run_mse_vs_iota(replace(harness.preset_spec("paper-fig2"), trials=40), range(1, 16))
print(json.dumps([len(os.listdir("/proc/self/task")), worker_ticks() - before]))
"""


def _child(script: str, *argv: str, **blas_vars: str):
    run = subprocess.run([sys.executable, "-c", script, *argv], env=package_env(**blas_vars),
                         check=True, timeout=300, capture_output=True, text=True)
    return json.loads(run.stdout)


@pytest.mark.parametrize("blas_vars, threads", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, min(2, CPUS)),
    ({"OMP_NUM_THREADS": "2"}, min(2, CPUS)),
], ids=["unset", "openblas-2", "omp-2"])
def test_import_loads_blas_with_one_thread_unless_told(blas_vars, threads):
    (_, env_before), (count, env_after) = _child(POLICY_CHILD, "cfolab-first", **blas_vars)
    assert count == threads
    assert env_after == env_before
    assert {k: v for k, v in env_after.items() if k in BLAS_THREAD_VARS} == blas_vars


def test_import_after_numpy_changes_nothing():
    before, after = _child(POLICY_CHILD, "numpy-first")
    assert after == before


@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS keeps no worker pool on one CPU")
def test_idle_pool_stays_idle_through_a_campaign():
    # 0 ticks today; with the ML products sent to the pool it gained 2
    count, ticks = _child(IDLE_CHILD, OPENBLAS_NUM_THREADS="2")
    assert count == 2
    assert ticks <= 1
