"""The forked children (job pool workers and the batch producer), numpy's
OpenBLAS thread count and glibc's heap thresholds."""

import ctypes
import hashlib
import multiprocessing
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import auxnas
from auxnas import procs, train
from auxnas.model import ConfigError, TaskSpec
from auxnas.procs import job_pool, keep_freed_heap
from auxnas.train import AuxCfg, Strategy, run_strategy

from test_train import TASKS2, tiny_cfg

TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="needs two CPUs")


class AugmentFailed(Exception):
    pass


def spy_affinity(monkeypatch):
    """Record the masks this process sets on its threads."""
    set_masks = []
    real = os.sched_setaffinity

    def spy(pid, mask):
        set_masks.append(sorted(mask))
        real(pid, mask)
    monkeypatch.setattr(os, "sched_setaffinity", spy)
    return set_masks


@TWO_CPUS
class TestBatchProducer:
    @pytest.mark.parametrize("kind,variant,n_tasks", [("auxi_both", "ushape", 2),
                                                      ("joint", "context", 3)])
    def test_producer_and_inline_write_the_same_bytes(self, tiny_ds, tmp_path, monkeypatch,
                                                      kind, variant, n_tasks):
        tasks = (TASKS2 + [TaskSpec("normal")])[:n_tasks]

        def run(name):
            out = tmp_path / name
            run_strategy(Strategy(kind), tiny_ds, variant, tasks,
                         tiny_cfg(iters=6, eval_every=3), AuxCfg(), out_dir=str(out))
            return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("run.csv", "eval.csv", "model.ckpt")}

        cpus = sorted(os.sched_getaffinity(0))
        set_masks = spy_affinity(monkeypatch)
        produced = run("producer")
        # only the producer is pinned; the caller never sets a mask
        assert set_masks == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {cpus[0]})
        assert run("inline") == produced
        assert set_masks == []

    @pytest.mark.parametrize("case", ["normal", "diverged", "producer_raises"])
    def test_runs_leave_nothing_behind(self, tiny_ds, monkeypatch, case):
        # the autouse fixture fails the test if a child process is left
        before = os.sched_getaffinity(0)
        if case == "producer_raises":
            def failing_augment(*args, **kwargs):
                raise AugmentFailed(sorted(os.sched_getaffinity(0)))
            monkeypatch.setattr(train, "augment", failing_augment)
            with pytest.raises(AugmentFailed) as e:
                run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2, tiny_cfg(),
                             AuxCfg())
            # the producer ran on the last CPU alone
            assert e.value.args[0] == sorted(before)[-1:]
        else:
            lr0 = 1e30 if case == "diverged" else 0.01
            with np.errstate(all="ignore"):
                res = run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2,
                                   tiny_cfg(lr0=lr0), AuxCfg())
            assert res.diverged == (case == "diverged")
            assert (len(res.records) < 12) == res.diverged
        assert os.sched_getaffinity(0) == before

    @pytest.mark.skipif((procs.blas_threads() or 0) < 2, reason="needs a threaded OpenBLAS")
    def test_blas_threads_are_not_pinned_to_the_trainers_cpu(self, tiny_ds, monkeypatch):
        # a threaded GEMM in the training process while the pinned producer
        # runs must not leave an OpenBLAS thread behind on one CPU
        threads = procs.blas_threads()
        a = np.ones((256, 256), np.float32)
        step = train.sgd_step

        def matmul_then_step(*args, **kwargs):
            a @ a
            return step(*args, **kwargs)
        monkeypatch.setattr(train, "sgd_step", matmul_then_step)
        run_strategy(Strategy("joint"), tiny_ds, "baseline", TASKS2, tiny_cfg(), AuxCfg())
        masks = []
        for tid in os.listdir("/proc/self/task"):
            try:
                masks.append(os.sched_getaffinity(int(tid)))
            except ProcessLookupError:  # the thread ended
                pass
        assert [m for m in masks if len(m) == 1] == []
        assert procs.blas_threads() == threads


def finish_time(i, delay):
    time.sleep(delay)
    return i, os.getpid(), time.monotonic()


def raise_config_error():
    raise ConfigError(os.getpid())


class TestJobPool:
    @TWO_CPUS
    def test_results_come_back_in_job_order(self):
        with job_pool(finish_time, workers=2) as run:
            out = run([(0, 0.5), (1, 0.0), (2, 0.0)])
        assert [i for i, _, _ in out] == [0, 1, 2]
        assert os.getpid() not in {pid for _, pid, _ in out}
        assert out[0][2] > out[2][2]  # the first job finished last

    @TWO_CPUS
    def test_a_workers_exception_reaches_the_caller_with_its_type(self):
        with pytest.raises(ConfigError) as e:
            with job_pool(raise_config_error, workers=2) as run:
                run([(), ()])
        assert e.value.args[0] != os.getpid()

    @TWO_CPUS
    def test_jobs_fork_without_an_openblas_thread_setter(self, monkeypatch):
        monkeypatch.setattr(procs, "blas_threads", lambda n=None: None)
        with job_pool(finish_time, workers=2) as run:
            out = run([(0, 0.0), (1, 0.0)])
        assert os.getpid() not in {pid for _, pid, _ in out}

    def test_one_cpu_starts_no_child(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with job_pool(finish_time) as run:
            out = run([(0, 0.0), (1, 0.0)])
            assert multiprocessing.active_children() == []
        assert [(i, pid) for i, pid, _ in out] == [(0, os.getpid()), (1, os.getpid())]


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_freed_array_memory_is_reused():
    # an 8 MiB array freed and allocated again is served from the pages the
    # first one faulted in, not from a fresh mapping
    keep_freed_heap()
    n = 1 << 21
    np.ones(n, np.float32)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(n, np.float32)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < (n * 4 // 4096) // 10


def test_importing_the_program_loads_no_multiprocessing():
    # multiprocessing and concurrent.futures add to the peak RSS of a
    # process that only trains, so only the code that forks imports them
    src = os.path.dirname(os.path.dirname(auxnas.__file__))
    code = ("import sys, auxnas.cli, auxnas.train, auxnas.search, auxnas.procs; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                             filter(None, [src, os.environ.get("PYTHONPATH")]))))
    assert out.stdout.strip() == "[]"
