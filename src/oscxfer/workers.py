"""Every forked child of a run: the table writer and the sweep's workers.

``simulate`` tables of more than one block, and an ``optimize`` profile of
more than one block of its backward sweep (``optimize.SWEEP_BLOCK``, 1024
cells), go to one forked writer child, :func:`_write_tables`, which formats
their rows while the run computes and writes each table in row order.
``optimize`` hands it the first blocks of maximizers as the sweep finishes
them, the last block first, and the child holds their rows until the rows
before them are written.  A ``sweep`` runs its points in forked workers
(:func:`_sweep_rows`).  The writer needs ``os.fork`` and a second CPU, and
otherwise the rows are written in process.  Each child talks to the parent
over the two pipes that :func:`_fork` makes, is forked and registered for
its reap with SIGINT and SIGTERM held back (:func:`_spawn`), and is reaped
by :func:`_reap`; one that ends without an answer is named by
:func:`_lost`.
"""

from __future__ import annotations

import contextlib
import io  # the writer child's held rows
import mmap  # the writer child's shared count
import os
import pickle  # numpy loads it: importing it here costs nothing
import signal
import struct  # numpy loads it: importing it here costs nothing
import sys
from functools import partial
from typing import Sequence

try:
    import fcntl  # grows the writer child's pipe
except ImportError:  # Windows, which has no os.fork either
    fcntl = None

import numpy as np

from . import artifacts
from .artifacts import ConfigError

_PIPE_SIZE = 1 << 20  # the writer child's pipe, where the host lets it grow
_BACKLOG = 8  # raw chunks the writer may hold: one 8192-step block's rows


def _pipe_capacity(fd: int) -> int:
    """Grow the pipe of ``fd`` to ``_PIPE_SIZE`` where the host lets it;
    returns the pipe's capacity in bytes."""
    try:
        return fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
    except OSError:  # over the host's limit: the pipe keeps its size
        return fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
    except AttributeError:  # no F_SETPIPE_SZ: Linux's default size
        return 1 << 16


def _child_formats(backlog: int, limit: int) -> bool:
    """Whether the writer child gets the next chunk raw, to format it: only
    while fewer than ``limit`` raw chunks wait for it (``backlog``)."""
    return backlog < limit


# a chunk's header: its table, first row, rows, columns (0 if formatted) and
# bytes
_CHUNK_HEAD = struct.Struct("<5Q")


def _write_tables(requests, files: list, done, n_rows: int, build) -> None:
    """Write the chunks that :func:`_table_writer` sends to the tables
    ``files``, each in row order, then flush them.  A raw chunk's columns
    are ``build(at, *payload)``, written through ``_write_rows`` and
    then counted in the shared ``done[0]``; a formatted chunk is written as
    it comes.  A chunk ahead of its table's next row is held, formatted,
    until the rows before it are written.  Returns once every table has
    ``n_rows`` rows, so the child exits while the parent finishes its run,
    or when the pipe ends."""
    rows = [0] * len(files)  # each table's next row
    held = {}  # (table, first row) -> (rows, bytes) of the chunks ahead
    while min(rows) < n_rows and len(
            head := requests.read(_CHUNK_HEAD.size)) == _CHUNK_HEAD.size:
        table, at, count, cols, size = _CHUNK_HEAD.unpack(head)
        if len(data := requests.read(size)) < size:
            break  # the parent stopped part way, as it failed
        ahead = at != rows[table]
        fh = io.BytesIO() if ahead else files[table]
        if cols:
            artifacts._write_rows(
                fh, build(at, *np.frombuffer(data).reshape(cols, -1)))
            done[0] += 1
        else:
            fh.write(data)
        if ahead:
            held[table, at] = count, fh.getvalue()
            continue
        rows[table] += count
        while (table, rows[table]) in held:
            count, data = held.pop((table, rows[table]))
            files[table].write(data)
            rows[table] += count
    for fh in files:
        fh.flush()


def _table_writer(stack: contextlib.ExitStack, name: str, out, tables: dict,
                  n_rows: int, fork: bool, first: bool, build) -> tuple:
    """``(write, forked)``: opens the tables ``tables`` (file name ->
    header line) in the directory ``out`` on ``stack`` and writes their
    headers; ``write(table, at, *payload)`` appends the rows ``build(at,
    *payload)`` from row ``at`` to the ``table``-th of them, as
    ``_write_rows`` does, and ``forked`` tells whether a child writes them.
    Each table is to have ``n_rows`` rows.

    Where ``fork`` holds, ``os.fork`` exists and the process may run on
    more than one CPU, one forked child (the ``name`` of its messages)
    formats most rows while this process computes.  The payload goes in
    chunks of ``_CSV_BLOCK`` rows, each behind a header (table, first
    row, rows, columns, bytes).  While fewer
    than ``_BACKLOG`` chunks (fewer if the pipe cannot hold them) wait for
    the child, a chunk goes as its payload's raw doubles, one column after
    another, and the child adds each one it has formatted to an 8-byte
    count in a page both processes share; otherwise this process builds
    and formats the chunk and sends its bytes, with 0 columns.  The child
    writes each table in row order, holding a chunk that comes ahead, so
    the split follows the speed of each side and the bytes stay the same.
    The pipe is grown to ``_PIPE_SIZE`` to hold the raw backlog and this
    process's chunks.  ``stack`` reaps the child and raises what stopped
    it: its own error, or a ``ConfigError`` naming the tables if it ended
    without an answer.  Where ``first``, the child's rows come before
    anything this process does, so its error also replaces one of this
    process; otherwise it is raised only when this process has none.
    Otherwise the rows are written here, as they come.
    """
    files = []
    for table, header in tables.items():
        files.append(stack.enter_context(open(out / table, "wb")))
        files[-1].write(header)
    if not (fork and hasattr(os, "fork") and _cpus() > 1):
        return (lambda table, at, *payload: artifacts._write_rows(
            files[table], build(at, *payload))), False
    for fh in files:  # else the headers are written again, by both processes
        fh.flush()
    # raw chunks the child has formatted, in a page shared across the fork
    done = stack.enter_context(memoryview(
        stack.enter_context(mmap.mmap(-1, 8))).cast("Q"))
    serve = partial(_write_tables, files=files, done=done, n_rows=n_rows,
                    build=build)

    def finish(child, exc_type, exc, tb) -> None:
        outcome, = _reap([child])
        if exc is None or first and isinstance(exc, Exception):
            if outcome is None:
                raise _lost(f"the {name}", "table", tables)
            if not outcome[0]:
                raise outcome[1]

    pipe = _spawn(lambda requests, answer: answer(_attempt(serve, requests)),
                  lambda child: stack.push(partial(finish, child)))[1]
    capacity = _pipe_capacity(pipe.fileno())
    sent = 0  # raw chunks sent

    def write(table: int, at: int, *payload) -> None:
        nonlocal sent
        block = artifacts._CSV_BLOCK
        limit = min(_BACKLOG, capacity // (_CHUNK_HEAD.size
                                           + 8 * len(payload) * block))
        for lo in range(0, len(payload[0]), block):
            chunk = [col[lo:lo + block] for col in payload]
            head = table, at + lo, len(chunk[0])
            if _child_formats(sent - done[0], limit):
                sent += 1
                head += len(chunk), 8 * len(chunk) * len(chunk[0])
            else:
                chunk = [artifacts._format_rows(
                    np.column_stack(build(at + lo, *chunk)))]
                head += 0, len(chunk[0])
            pipe.write(_CHUNK_HEAD.pack(*head))
            for data in chunk:
                pipe.write(data)
        pipe.flush()

    return write, True


def _attempt(fn, *args) -> tuple:
    """``(True, fn(*args))``, or ``(False, error)`` if it raised one."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _cpus() -> int:
    """The CPUs this process may run on; os.cpu_count() also counts those
    outside its affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(serve, close: Sequence[int] = ()) -> tuple:
    """Fork a child that runs ``serve(requests, answer)`` and exits.

    ``requests`` reads what the parent writes into the returned writer;
    ``answer(obj)`` sends an 8-byte length and the pickle of ``obj`` to the
    returned reader, where :func:`_answer` reads it.  The child first closes
    the descriptors ``close`` (the parent's ends of earlier children's
    pipes), so that a child's death ends its pipes.  Returns ``(pid,
    writer, reader)``; :func:`_reap` ends the child.
    """
    sys.stdout.flush()  # else a child's line-buffered stderr repeats them
    sys.stderr.flush()
    request_r, request_w = os.pipe()
    answer_r, answer_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # a child leaves only through os._exit
        try:
            # stops end it at once, whatever its parent holds back
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            for fd in (request_w, answer_r, *close):
                os.close(fd)
            answers = open(answer_w, "wb")

            def answer(obj) -> None:
                data = pickle.dumps(obj)
                answers.write(len(data).to_bytes(8, "little") + data)
                answers.flush()

            serve(open(request_r, "rb"), answer)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(request_r)
    os.close(answer_w)
    return pid, open(request_w, "wb"), open(answer_r, "rb")


def _spawn(serve, register, close: Sequence[int] = ()) -> tuple:
    """:func:`_fork` a child and hand it to ``register``, which arranges
    its reap; a stop waits for both, so a stopped run reaps the child
    too.  Returns the child."""
    with _stops_wait():
        child = _fork(serve, close)
        register(child)
    return child


def _answer(reader):
    """The next object a child answered, None if it ended without one."""
    size = int.from_bytes(head := reader.read(8), "little")
    if len(head) == 8 and len(data := reader.read(size)) == size:
        return pickle.loads(data)
    return None


def _reap(children: Sequence[tuple]) -> list:
    """End children of :func:`_fork`: close every one's requests, which it
    reads to their end, so that they exit together, then wait for each to
    exit.  Returns what each answered after its last request, None if
    nothing.  A stop waits for the end."""
    with _stops_wait():
        for _, writer, _ in children:
            # a lost child leaves bytes unread
            with contextlib.suppress(BrokenPipeError):
                writer.close()
        answers = []
        for pid, _, reader in children:
            try:
                answers.append(_answer(reader))
            finally:
                reader.close()
                os.waitpid(pid, 0)
        return answers


def _lost(who: str, what: str, names) -> ConfigError:
    """The error of a child that ended without an answer: ``who`` ended,
    and there is no ``what`` for each of ``names``."""
    return ConfigError(f"{who} ended without a result (killed by a signal "
                       f"or out of memory); no {what} for " + ", ".join(names))


def _sweep_rows(point, jobs: list, workers: int) -> list:
    """Each job's ``point(job)`` row, in job order, from ``workers`` forked
    children, or from this process without ``os.fork``.  A child answers
    each 8-byte point index on its pipe with :func:`_attempt`'s outcome,
    and gets the next index as soon as its answer is back.  No point
    starts after one fails or a child is lost; the earliest point without
    a row decides what is raised.  A job's first item names its point in
    the error of a lost point.  The children inherit the jobs across the
    fork, so only indices and rows cross the pipes.
    """
    import select

    def serve(indices, answer) -> None:
        while index := indices.read(8):
            answer(_attempt(point, jobs[int.from_bytes(index, "little")]))

    outcomes, todo = [None] * len(jobs), list(range(len(jobs)))[::-1]
    children = []  # (pid, writer, reader) of each worker
    try:
        for _ in range(workers if hasattr(os, "fork") else 0):
            _spawn(serve, children.append,
                   [pipe.fileno() for _, *pipes in children for pipe in pipes])
        by_fd = {child[2].fileno(): child for child in children}
        busy = {}  # answer pipe -> index
        poller = select.poll() if children else None  # Windows has neither
        idle = list(by_fd)
        while todo and idle or busy:
            while todo and idle:
                fd = idle.pop()
                busy[fd] = todo.pop()
                poller.register(fd, select.POLLIN)
                try:
                    by_fd[fd][1].write(busy[fd].to_bytes(8, "little"))
                    by_fd[fd][1].flush()
                except BrokenPipeError:  # the child is gone: its pipe ends
                    pass
            for fd, _ in poller.poll():
                poller.unregister(fd)
                index = busy.pop(fd)
                outcomes[index] = _answer(by_fd[fd][2])
                if outcomes[index] is None or not outcomes[index][0]:
                    todo.clear()
                idle.append(fd)
        while todo:  # no os.fork: this process runs the points
            index = todo.pop()
            outcomes[index] = _attempt(point, jobs[index])
            if not outcomes[index][0]:
                todo.clear()
    finally:
        _reap(children)
    for outcome in outcomes:
        if outcome is None:
            raise _lost("a sweep worker", "result", (
                job[0] for job, o in zip(jobs, outcomes) if o is None))
        if not outcome[0]:
            raise outcome[1]
    return [row for _, row in outcomes]


_STOPS = (signal.SIGINT, signal.SIGTERM)


@contextlib.contextmanager
def _handling(handler, signums: Sequence[int]):
    """``handler`` handles the signals ``signums`` in the block, and the
    previous handlers come back after.  Off the main thread, where no
    handler can be set, nothing changes."""
    try:
        previous = [signal.signal(signum, handler) for signum in signums]
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        for signum, old in zip(signums, previous):
            # None: a handler not set from Python, which cannot be set again
            signal.signal(signum, signal.SIG_DFL if old is None else old)


@contextlib.contextmanager
def _stops_wait():
    """SIGINT and SIGTERM wait for the end of the block, which is never cut
    short, and then raise ``KeyboardInterrupt(signum)`` for the first of
    them: around a fork and the reap it registers, and the commit step.
    The handlers are Python's, not a signal mask, which would not hold
    the signal back from the process's other threads (numpy's BLAS
    starts some)."""
    caught = []
    try:
        with _handling(lambda signum, frame: caught.append(signum), _STOPS):
            yield
    finally:
        if caught:
            raise KeyboardInterrupt(caught[0])
