"""Independent tasks on forked worker processes, one per usable core.

``forked_map(fn, job, n_tasks)`` yields ``fn(job, i)`` for i = 0..n_tasks-1,
in index order.  With W workers, worker w runs tasks w, w + W, w + 2W, ...
and sends each result back over its own pipe; the calling thread receives
them in index order, so a worker has at most one result in flight and the
generator holds one result at a time.  The workers inherit ``job``
through the fork, so the job is never pickled; only results are.

Every exit of the generator kills and joins every worker: the last result,
an exception raised by ``fn`` in a worker (raised again in the caller), a
worker that dies (``ChildProcessError``), or the consumer closing it early.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Iterator


def _workers(n_tasks: int) -> int:
    """Processes to run the tasks on: one per usable core, at most one per task.

    Falls back to 1 (the calling process alone) where processes cannot be
    forked, or from a daemonic process, which may not start children.
    """
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(n_tasks, cores)


def forked_map(fn: Callable[[Any, int], Any], job: Any, n_tasks: int) -> Iterator[Any]:
    """Yield ``fn(job, i)`` for i = 0..n_tasks-1, in index order.

    With one worker the calling process runs every task and forks nothing.

    Raises:
        ChildProcessError: a worker died before sending a result.
        Any exception ``fn`` raises in a worker is raised again here.
    """
    n_workers = _workers(n_tasks)
    if n_workers == 1:
        for index in range(n_tasks):
            yield fn(job, index)
        return
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for first in range(n_workers):
            receiver, sender = ctx.Pipe(duplex=False)
            conns.append(receiver)
            proc = ctx.Process(target=_serve, daemon=True,
                               args=(fn, job, range(first, n_tasks, n_workers), sender))
            try:
                proc.start()
            finally:
                sender.close()  # the worker holds the only sending end
            procs.append(proc)
        for index in range(n_tasks):
            try:
                ok, value = conns[index % n_workers].recv()
            except EOFError:
                raise ChildProcessError("a worker process died before returning "
                                        f"task {index}") from None
            if not ok:
                raise value
            yield value
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _serve(fn: Callable[[Any, int], Any], job: Any, indices: range, conn) -> None:
    try:
        for index in indices:
            conn.send((True, fn(job, index)))
    except Exception as exc:
        conn.send((False, exc))
