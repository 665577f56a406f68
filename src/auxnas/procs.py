"""Where the work runs: glibc's heap thresholds, numpy's OpenBLAS thread
count, and the forked children, which are the job pool's workers and a
training run's batch producer. ``multiprocessing`` and ``concurrent.futures``
are imported where a child is forked: they add about 2 MB to the peak RSS of
a process that only trains."""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import glob
import os
import signal

import numpy as np


def keep_freed_heap() -> None:
    """Let the next iteration reuse the memory this one frees.

    Backward frees the forward's arrays newest first, so the free space
    gathers at the top of glibc's heap. With glibc's default, adaptive
    thresholds, whether that top is trimmed (and faulted back in by the next
    forward) depends on the process's memory layout, down to the length of
    its paths. Fixed thresholds serve every array under 32 MiB from the
    heap and trim only a free top over 64 MiB. A no-op where the C library
    has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def blas_threads(n: int | None = None) -> int | None:
    """The thread count of numpy's bundled OpenBLAS, which is then set to
    ``n`` if given; None, and nothing set, without that OpenBLAS."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "*openblas*")):
        handle = ctypes.CDLL(lib)
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            count = get()
            if n is not None:
                handle.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
                handle.scipy_openblas_set_num_threads64_.restype = None
                handle.scipy_openblas_set_num_threads64_(n)
            return count
    return None


_job_fn = None  # set in each job_pool worker


def _start_child(job_fn=None, cpu: int | None = None) -> None:
    """Set up a forked ``multiprocessing`` child: Linux SIGKILLs it when its
    parent dies, it runs one OpenBLAS thread, pinned to ``cpu`` if given,
    and a job_pool worker keeps its ``job_fn``. A parent that died during
    the fork has already handed the child on, so the child then exits at
    once; without ``prctl`` only that check is made.
    """
    global _job_fn
    import multiprocessing

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != multiprocessing.parent_process().pid:
        os._exit(1)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    blas_threads(1)
    _job_fn = job_fn


def _run_job(job):
    return _job_fn(*job)


@contextlib.contextmanager
def job_pool(fn, workers: int | None = None):
    """Yield ``run(jobs)``, which returns ``[fn(*job) for job in jobs]``.

    The jobs run in one worker per CPU of the calling thread's mask, at most
    ``workers``, forked once on entry and set to one OpenBLAS thread each.
    Fork, not spawn: a worker inherits ``fn`` and what it refers to, such as
    a dataset, copy-on-write; only jobs and results are pickled. Results
    come back in job order, and the first failing job's exception is raised
    here with its type. No worker outlives the block, nor a killed caller.
    With one worker, the jobs run in order in the calling thread instead.
    """
    cpus = len(os.sched_getaffinity(0))
    workers = min(cpus, workers or cpus)
    if workers < 2:
        yield lambda jobs: [fn(*job) for job in jobs]
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_child, initargs=(fn,)) as pool:
        yield lambda jobs: list(pool.map(_run_job, jobs))


def _produce(writer, reader, batches, cpu: int) -> None:
    """Producer process: send each batch, or the exception that stopped them."""
    reader.close()
    _start_child(cpu=cpu)
    try:
        for batch in batches:
            writer.send(batch)
    except Exception as e:
        writer.send(e)


def _received(reader, n: int):
    for _ in range(n):
        msg = reader.recv()
        if isinstance(msg, Exception):
            raise msg
        yield msg


@contextlib.contextmanager
def batch_source(batches, n: int):
    """The ``n`` batches of ``batches``, built ahead in a forked producer
    process when a CPU is spare.

    With two or more CPUs in the calling thread's mask, and outside any
    ``multiprocessing`` child (a ``job_pool`` worker already fills a CPU),
    the producer owns the generator and its rngs, runs pinned to the mask's
    last CPU at one OpenBLAS thread and sends the batches through a one-way
    pipe. Unpinned, it was woken on the trainer's CPU. The calling process's
    masks and OpenBLAS thread count are left as they are. On exit the
    producer is stopped. Otherwise ``batches`` is iterated inline.
    """
    import multiprocessing

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2 or multiprocessing.parent_process() is not None:
        yield batches
        return
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    # room for a whole batch, so that the producer writes one ahead instead of
    # waiting on each 64 KiB read; 1 MiB is Linux's default limit
    with contextlib.suppress(OSError):
        fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
    producer = ctx.Process(target=_produce, args=(writer, reader, batches, cpus[-1]),
                           daemon=True)
    producer.start()
    writer.close()
    try:
        yield _received(reader, n)
    finally:
        producer.terminate()
        producer.join()
        reader.close()
