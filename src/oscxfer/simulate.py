"""Fixed-step integrator for the cascade's coefficient equations.

The rotating-frame Heisenberg equations of the cascade reduce to real linear
ODEs for the transfer coefficients

    a11' = -(g1(t) + gl) a11
    a21' = -(g + gl) a21 + 2 sqrt(eta g g1(t)) a11
    a22' = -(g + gl) a22

with g the receiver coupling, g1(t) the sender's control profile, gl the
parasitic damping and eta the line transmission.  :func:`integrate_blocks`
reads eta and gl from the system parameters; lossless transfer is not a
separate path but the case eta = 1, gl = 0.
Noise kernels obey the same pair of equations column by column, each column
born on the diagonal with the white-noise source strength of its channel:

    k1(t, t)  = sqrt(2 g1(t))      line input into oscillator 1
    k2(t, t)  = -sqrt(2 g eta)     line input into oscillator 2
    kl1(t, t) = sqrt(2 gl)         oscillator-1 loss port
    kl2(t, t) = sqrt(2 gl)         oscillator-2 loss port
    kv2(t, t) = sqrt(2 g (1-eta))  beam-splitter port carrying discarded flux
    kl12(t, t) = 0                 oscillator-1 loss forwarded down the line

Because every equation is linear with scalar coefficients, one integrator
step is a lower-triangular 2x2 map (mxx, myx, myy); the map is built by
propagating basis vectors through the four stages of classical RK4, the
one step map.  The maps are built as arrays, one block of about 8k macro
steps at a time: the profile is evaluated at every stage time of the block
at once, and the stage formulas run elementwise in the order a single step
would use, so the arrays hold the bits of a step-by-step loop.  Then A11
and A22 are running products (``np.multiply.accumulate``, which
multiplies in step order), and A21, the first-order recurrence
A21 <- myx*A11 + myy*A21, is folded in step order by scalar Python code;
an associative scan would regroup the products and change the last bits.
Each consumer folds it its own way, by the same operations in the same
order, so all give the same bits:

- a plain run of :func:`integrate_blocks`, by a list comprehension, 1024
  steps at a time, whose floats ``struct.pack_into`` writes into the row
  at once (a quarter faster than storing each float as it comes);
- a run with kernel tracking, inside the moment loop, which visits every
  step with its myy anyway;
- :func:`transfer_amplitude`, a sweep point's a21(T), by a plain ``for``
  that stores nothing (and no A22 is taken); a block that ends non-finite
  is folded again by the first, to name its failing step;
- a stiff step, which folds its substeps' maps into its own by the same
  recurrence: its x is their running product, its b = myx*x one array
  multiply, and its y the sweep point's plain ``for``, one call per step.

Both functions take their maps and A11 from one block pipeline.  myy does
not depend on g1: it is RK4's decay map of the constant beta = g + gl,
one float for every step of width dt, so the fold multiplies by that
float between the stiff steps, which have their own.

The run streams: :func:`integrate_blocks` yields each block's nodes,
a11, a21 and a22 (and d1, d2 with tracking), and keeps of it only the
last node, which starts the next block.  Every per-block array is a view
of one workspace, allocated once per run and sized for the largest block:
the block's three map rows, then its stage times and stage values (one
(3, m) array each) and the scratch rows of the RK4 formulas, all written
by ufuncs with ``out=``.  Chunks of substeps reuse the stage and scratch
rows, never the map rows they fold into; their widths are rows.  Once a
block's maps exist its stage rows are dead, so the rows it yields are
written over them: the running products are taken there, and the fold
writes each A21 over its myx*A11.  A block that allocated its ~50
temporaries afresh let glibc trim the heap once they were freed, so the
next block faulted the same pages in again (about 1000 minor faults per
50k-step run); with the workspace the memory of a run is fixed before it
starts, whatever its length.  :func:`integrate_transfer` collects the
blocks into whole arrays, for callers that want the curve at once.

The receiver's rate is constant, so halving steps on it would only be a
larger grid done badly: a grid whose (g + gl) * dt exceeds RK4's real-axis
stability edge 2.785 (Hairer & Wanner, *Solving ODEs II*, IV.2) is refused
at step 0, before any work, with the smallest step count that resolves it.

Steps are halved adaptively whenever ``(g1 + gl) * h`` exceeds
:data:`~oscxfer.types.DAMPING_CAP_FACTOR`, which keeps the integrator
accurate through the near-singular tail of truncated optimal profiles.
The substeps of all of a block's stiff steps, whatever their halving
counts k, run as one sequence, widest steps first, evaluated 4096 at a
time; as every step's 2**k and the chunk are powers of two, a chunk holds
whole steps or a part of one.  Each step's substeps are folded, in substep
order, into its map, and its myy is the decay map of the width dt/2**k
multiplied in 2**k times, taken once per count.  A failure is reported at
the earliest failing step: a step that 26 halvings cannot make stable, or
the first non-finite coefficient.  A run whose stiff steps would need
more than 2**22 substeps in all is refused (``ValueError``) before their
substeps run; steps past 26 halvings, which fail anyway, are not counted.

A column born at t_j reaches t_i through the maps of steps j..i-1, and
every channel's column moves by the same maps, so the commutator sum rules

    d1(t) = 1 - [a11^2 + sum_j k1(t,t_j)^2 dt (+ loss channels)]
    d2(t) = 1 - [a21^2 + a22^2 + sum_j k2(t,t_j)^2 dt (+ loss channels)]

need only the columns' summed second moments (xx, xy, yy).  With kernel
tracking the integrator carries them through each block, step by step,
and keeps only the block's d1 and d2 rows, which hold the xx and yy sums
until the deficit formulas read them.  The k1 birth at t_j takes g1
from step j's start stage, the same time j*dt and the same cell.
Trapezoid weights (half on the first node and on the diagonal) keep the
bias at O(dt^2); no ratio of accumulated maps appears, so the sums stay
finite at any gamma*T.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from struct import pack_into

import numpy as np

from .types import (
    DAMPING_CAP_FACTOR,
    CouplingProfile,
    ProfileKind,
    SystemParams,
    TimeGrid,
    TransferState,
    profile_values,
)

__all__ = [
    "IntegratorConfig",
    "IntegrationError",
    "STABILITY_EDGE",
    "integrate_blocks",
    "integrate_transfer",
    "transfer_amplitude",
]

_MAX_HALVINGS = 26
# substeps a run's stiff steps may take in all, about 0.3 s of work on a
# 2-vCPU x86-64 VM; past it the run is refused before their substeps run
_MAX_SUBSTEPS = 2**22
_BLOCK = 8192  # macro steps evaluated as one array
_CHUNK = _BLOCK // 2  # substeps evaluated as one array
_FOLD = 1024  # steps folded into one list of floats, then packed at once
# workspace rows of a block of macro steps (three stage values and six
# scratch rows, after its three map rows) and of a chunk of substeps (three
# stage values, two map rows, six scratch rows and three rows of widths);
# the rows a block yields, five at most, and two scratch rows go over them
_STEP_ROWS = 9
_SUBSTEP_ROWS = 14


class IntegrationError(RuntimeError):
    """Numerical failure (NaN/overflow) during integration.

    Carries the macro step index at which the failure was detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (at step {step})")
        self.reason = message
        self.step = step

    def __reduce__(self):
        # the default rebuilds from ``args`` (the formatted text alone), which
        # does not match __init__; a forked sweep worker pickles this error
        # back to the parent over a pipe, so it has to unpickle intact
        return (type(self), (self.reason, self.step))


# largest (g + gl) * dt for which RK4's decay map y' = -(g + gl) y is stable
# on the real axis
STABILITY_EDGE = 2.785


@dataclass(frozen=True)
class IntegratorConfig:
    n_steps: int = 10_000
    kernel_tracking: bool = False  # commutator deficits d1 and d2

    def __post_init__(self) -> None:
        if self.n_steps < 10:
            raise ValueError("n_steps must be at least 10")


def _decay(beta: float, h: float) -> float:
    """RK4's map of y' = -beta y over one step ``h`` wide: the myy of every
    step that width, whatever g1 does."""
    ky1 = -beta
    ky2 = -beta * (1.0 + 0.5 * h * ky1)
    ky3 = -beta * (1.0 + 0.5 * h * ky2)
    ky4 = -beta * (1.0 + h * ky3)
    return 1.0 + h / 6.0 * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4)


def _rk4_maps(a0, am, a1, beta: float, root: float, gl: float, h,
              out, tmp) -> None:
    """RK4 steps of x' = -(g1+gl) x, y' = -beta y + root*sqrt(g1) x.

    ``a0``, ``am`` and ``a1`` hold g1 at each step's start, middle and end
    stage; ``h`` is ``(h, h/2, h/6)`` for step width h, three scalars or,
    for substeps, three rows.  Writes the maps' mxx and myx into the rows
    ``out``, with x_new = mxx*x and y_new = myx*x + myy*y; myy is
    :func:`_decay`, the same for every step of one width.  ``root`` carries
    the constant factor 2*sqrt(eta*g), so the cross term is
    root*sqrt(g1(t)).

    Every stage formula runs as one ufunc per operation, in the order a
    single step would use, so the rows hold a scalar step's bits.  The
    operations write into ``out`` and the six rows ``tmp``, which the
    caller takes from the run's workspace (neither may overlap the stage
    values), so a block of maps allocates nothing.  The stage sums
    accumulate in the output rows: mxx starts as k1 of the (x=1, y=0)
    basis vector, myx as its y slope s0.
    """
    h, hh, h6 = h
    nb = -beta
    sum_x, sum_y = out
    sm, nam, x, y, kx, ky = tmp
    np.sqrt(a0, out=sum_y)
    np.multiply(root, sum_y, out=sum_y)             # ky1 = s0
    np.sqrt(am, out=sm)
    np.multiply(root, sm, out=sm)
    # -(g1 + gl) as -gl - g1: the same but for the sign of a zero, which
    # 1.0 + h6*sum_x drops
    np.subtract(-gl, a0, out=sum_x)                 # kx1
    np.subtract(-gl, am, out=nam)
    np.multiply(hh, sum_x, out=x)
    np.add(1.0, x, out=x)                           # x2
    np.multiply(hh, sum_y, out=y)                   # y2
    for step in (hh, h):  # stages 2 and 3, each giving the next x and y
        np.multiply(nam, x, out=kx)
        np.multiply(nb, y, out=y)
        np.multiply(sm, x, out=ky)
        np.add(y, ky, out=ky)                       # ky = -beta*y + sm*x
        np.multiply(step, kx, out=x)
        np.add(1.0, x, out=x)                       # x3, x4
        np.multiply(step, ky, out=y)                # y3, y4
        np.multiply(2.0, kx, out=kx)
        np.add(sum_x, kx, out=sum_x)
        np.multiply(2.0, ky, out=ky)
        np.add(sum_y, ky, out=sum_y)
    np.subtract(-gl, a1, out=kx)
    np.multiply(kx, x, out=kx)                      # kx4
    np.multiply(nb, y, out=y)
    np.sqrt(a1, out=ky)
    np.multiply(root, ky, out=ky)
    np.multiply(ky, x, out=ky)
    np.add(y, ky, out=ky)                           # ky4
    np.add(sum_x, kx, out=sum_x)
    np.add(sum_y, ky, out=sum_y)
    np.multiply(h6, sum_x, out=sum_x)
    np.add(1.0, sum_x, out=sum_x)                   # mxx
    np.multiply(h6, sum_y, out=sum_y)               # myx


def _moment_sums(maps, bxx, bxy, byy: float, s: tuple[float, float, float],
                 rows):
    """Summed second moments (xx, xy, yy) of the kernel columns, from ``s``
    on: each step moves them by its map and adds its end node's births
    (``bxx`` and ``bxy`` per step, ``byy`` constant).  The same loop folds
    A21 <- myx*A11 + myy*A21, whose recurrence is independent of theirs.
    ``rows`` are a block's a21, d1 and d2 over its nodes, the first carried
    and a21 holding myx*A11 at the others; each step's A21 and xx and yy
    sums go to its end node.  Returns the last (xx, xy, yy)."""
    sxx, sxy, syy = s
    # memoryviews hand out and take one float at a time, with no list built
    fy, nx, ny, *views = map(memoryview, (*rows, *maps, bxx, bxy))
    y = fy[0]
    for j, a, b, c, pxx, pxy, bj in zip(range(1, len(fy)), *views, fy[1:]):
        y = bj + c * y
        sxx, sxy, syy = (a * a * sxx + pxx,
                         a * (b * sxx + c * sxy) + pxy,
                         b * b * sxx + 2.0 * b * c * sxy + c * c * syy + byy)
        fy[j], nx[j], ny[j] = y, sxx, syy
    return sxx, sxy, syy


def _halvings(rate: np.ndarray, dt: float) -> np.ndarray:
    """Per step, how often dt is halved so that ``rate * h <= cap``.

    A count above ``_MAX_HALVINGS`` marks a step too stiff to substep.
    """
    k = np.zeros(rate.shape, dtype=np.intp)
    todo = rate * dt > DAMPING_CAP_FACTOR
    while todo.any():
        k += todo
        todo &= ((rate * (dt / 2.0 ** k) > DAMPING_CAP_FACTOR)
                 & (k <= _MAX_HALVINGS))
    return k


def _chunks(k: list, chunk: int) -> Iterator[list]:
    """The substeps of steps halved ``k[0] >= k[1] >= ...`` times, in step
    order, cut into chunks of ``chunk``, a power of two.  Each step starts
    at a multiple of its own substep count, so a chunk holds whole steps or
    a part of one.  Yields each chunk's pieces ``(k, j, c, first, size)``:
    steps j..j+c-1, each halved k times, from their substep ``first`` on,
    ``size`` substeps in all."""
    pieces, room, j, first = [], chunk, 0, 0
    for kk, run in itertools.groupby(k):
        n, m = sum(1 for _ in run), 2**kk
        while n:
            c = min(n, max(room // m, 1))
            size = min(c * m, room)
            pieces.append((kk, j, c, first, size))
            first = (first + size) % m
            if not first:
                j, n = j + c, n - c
            room -= size
            if not room:
                yield pieces
                pieces, room = [], chunk
    if pieces:
        yield pieces


def _fold(y: float, b: np.ndarray, decay: float, stiff: list,
          own: list) -> None:
    """y <- b + myy*y over the steps of ``b``, in step order, each y
    written over its b; myy is ``decay`` but at the ``stiff`` steps, which
    have their ``own``."""
    fold = memoryview(b)
    at = 0
    for s, c in zip([*stiff, len(b)], [*own, None]):
        for lo in range(at, s, _FOLD):
            hi = min(lo + _FOLD, s)
            pack_into(f"{hi - lo}d", b, 8 * lo,
                      *[y := bj + decay * y for bj in fold[lo:hi]])
        if c is not None:
            y = fold[s] + c * y
            fold[s] = y
        at = s + 1


def _fold_last(y: float, b: np.ndarray, decay: float, stiff: list,
               own: list) -> float:
    """:func:`_fold`'s last y, by the same operations, storing none."""
    fold = memoryview(b)
    at = 0
    for s, c in zip(stiff, own):
        for bj in fold[at:s]:
            y = bj + decay * y
        y = fold[s] + c * y
        at = s + 1
    for bj in fold[at:]:
        y = bj + decay * y
    return y


def _check(lo: int, nodes: np.ndarray, spare: np.ndarray, cut: bool) -> None:
    """Raises the failure of the block from macro step ``lo``, if any: its
    first node past the carried one whose a11 or a21 is not finite, else
    the step too stiff to substep that ``cut`` the block short.  a22 needs
    no test: its factors are RK4 decay maps, in (0, 1]."""
    a11, a21 = nodes[:2, 1:]
    ok, col = (r.view(bool)[:a11.size] for r in spare)
    np.isfinite(a11, out=ok)
    np.isfinite(a21, out=col)
    np.logical_and(ok, col, out=ok)
    if not ok.all():
        raise IntegrationError("non-finite transfer coefficient",
                               lo + int(np.argmin(ok)))
    if cut:
        raise IntegrationError("profile too stiff to substep", lo + a11.size)


def _map_blocks(c: CouplingProfile, p: SystemParams, cfg: IntegratorConfig,
                rows: int, rates: np.ndarray | None = None):
    """The block pipeline of :func:`integrate_blocks` and
    :func:`transfer_amplitude`.  Checks the run, then returns its dt, the
    myy of its steps that are not stiff, and an iterator over its blocks.

    Each block is ``(lo, nodes, maps, stiff, spare, cut)``.  ``maps`` holds
    the (mxx, myx, myy) rows of the block's steps from macro step ``lo``,
    ``stiff`` the indices of those that were substepped, and ``cut``
    whether the block stops short, before a step too stiff to substep.
    ``nodes`` is ``rows`` rows over the block's nodes, the first carried
    from the block before: row 0 holds A11, the running product of mxx,
    and row 1 holds myx*A11 past the first node, the b of the A21 fold.
    ``spare`` is two scratch rows of the block's width.  With ``rates``, a
    row of min(n, 8192) floats, each block first writes into it g1 at its
    nodes past the first.  Every array is a view of the run's workspace,
    valid until the next block is asked for.
    """
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    if c.kind is ProfileKind.OPTIMAL_CLOSED_FORM and c.truncation is None:
        raise ValueError(
            "the closed-form optimal profile must be truncated before "
            "integration (it diverges at t = T)"
        )
    n = cfg.n_steps
    dt = grid.dt
    g, gl, eta = p.gamma, p.gamma_loss, p.eta
    beta = g + gl
    root = 2.0 * math.sqrt(eta * g)
    if beta * dt > STABILITY_EDGE:
        need = beta * grid.t_end / STABILITY_EDGE
        if math.isfinite(need):
            n_min = math.ceil(need)
            # dt = T / n_min can round up past the edge
            n_min += beta * (grid.t_end / n_min) > STABILITY_EDGE
            if n_min > 2**53:  # its last digits are float noise
                scale = 10 ** (len(str(n_min)) - 4)  # round up to 4 digits
                n_min = f"{-(-n_min // scale) * scale:.4g}"
            hint = f"the grid needs at least {n_min} steps"
        else:
            hint = "the grid would need more than 1e308 steps"
        raise IntegrationError(
            f"receiver too stiff for the grid: (gamma + gamma_loss)*dt = "
            f"{beta * dt:.6g} exceeds the rk4 stability edge "
            f"{STABILITY_EDGE:g}; {hint}", 0)

    # For a sampled profile whose grid the integrator grid refines exactly,
    # resolve each macro step's cell by index: time-based lookups cannot
    # distinguish "end of this cell" from "start of the next" at every
    # grid scale, and one wrong stage value per cell costs an order of
    # accuracy.
    cells = None
    if c.kind is ProfileKind.SAMPLED_GRID:
        pg = c.grid
        if (pg.n_steps <= n and n % pg.n_steps == 0
                and math.isclose(pg.t_end, grid.t_end, rel_tol=1e-12)):
            cells, ratio = c.values, n // pg.n_steps

    # one workspace for the run: each block's arrays are views of it, so no
    # block allocates; rows of a chunk of substeps reuse the stage rows of
    # the macro block being substepped, never its map rows
    width = min(n, _BLOCK)
    work = np.empty(3 * width + max(_STEP_ROWS * width,
                                    _SUBSTEP_ROWS * _CHUNK))
    offsets = np.arange(float(_BLOCK))

    def stages(i: np.ndarray, half, end, tmp: np.ndarray, out: np.ndarray):
        """g1 at the start, middle and end stage of (sub)steps of macro
        steps ``i`` (a float row) that start at times ``tmp[0]``, written
        into the rows ``out``: for steps h wide, the middle stage lies
        ``half`` = h/2 past the start and the end stage ``end`` =
        h*(1 - 1e-8) past it (scalars or rows).  The end stage stays
        inside the cell being integrated: a step ending exactly on a
        sampled-profile cell boundary must not read the next cell's value.
        The six rows ``tmp`` are scratch, and ``i`` may be one of the last
        three."""
        times = tmp[:3]
        if cells is not None:
            np.floor_divide(i, ratio, out=times[0])
            cell = times[1].view(np.intp)
            np.copyto(cell, times[0], casting="unsafe")
            np.take(cells, cell, out=out[0], mode="clip")
            return out[0], out[0], out[0]
        np.add(times[0], half, out=times[1])
        np.add(times[0], end, out=times[2])
        profile_values(c, p, times, out=out, work=tmp[3:])
        return out[0], out[1], out[2]

    def halved_maps(at: np.ndarray, k: np.ndarray, lo: int, maps,
                    region: np.ndarray) -> None:
        """Maps of the steps ``at`` of the block from macro step ``lo``,
        step ``at[j]`` halved ``k[j]`` times: the in-order fold of its
        2**k[j] substeps, written into the block's ``maps`` rows.  The
        substeps run in the chunks of :func:`_chunks`, in the workspace
        ``region``; each chunk takes (h, h/2, h/6) as rows."""
        order = np.argsort(-k, kind="stable")
        at, k = at[order], k[order].tolist()
        steps = at + float(lo)
        # per halving count: the substep width, its decay map pyy, and myy
        count = {}
        for kk in set(k):
            h = dt / 2**kk
            pyy = _decay(beta, h)
            count[kk] = h, pyy, math.prod(itertools.repeat(pyy, 2**kk))
        carry = None  # (x, y) of a step that goes on in the next chunk
        for pieces in _chunks(k, _CHUNK):
            q = sum(piece[-1] for piece in pieces)
            rows = region[:_SUBSTEP_ROWS * q].reshape(_SUBSTEP_ROWS, q)
            g, sub, tmp, hs = rows[:3], rows[3:5], rows[5:11], rows[11:]
            i, t, part = tmp[4], tmp[0], tmp[5]
            a = 0
            for kk, j, c, first, size in pieces:
                # substep r of macro step i starts at i*dt + r*h
                per, h = size // c, count[kk][0]
                at_i = steps[j:j + c, None]
                if cells is not None:  # the only reader of i
                    np.copyto(i[a:a + size].reshape(c, per), at_i)
                tt = t[a:a + size].reshape(c, per)
                np.multiply(at_i, dt, out=tt)
                np.add(offsets[:per], first, out=part[:per])
                np.multiply(part[:per], h, out=part[:per])
                np.add(tt, part[:per], out=tt)
                hs[0, a:a + size] = h
                a += size
            np.multiply(hs[0], 0.5, out=hs[1])
            np.multiply(hs[0], 1.0 - 1e-8, out=hs[2])
            g0, gm, g1 = stages(i, hs[1], hs[2], tmp, g)
            np.divide(hs[0], 6.0, out=hs[2])
            _rk4_maps(g0, gm, g1, beta, root, gl, hs, sub, tmp)
            pyx = sub[1]
            a = 0
            for kk, j, c, first, size in pieces:
                per, (_, pyy, z) = size // c, count[kk]
                x = sub[0, a:a + size].reshape(c, per)
                b = pyx[a:a + size].reshape(c, per)
                if first:  # a step begun in the chunk before
                    x[0, 0] *= carry[0]
                    b[0, 0] *= carry[0]
                np.multiply.accumulate(x, axis=1, out=x)
                np.multiply(b[:, 1:], x[:, :-1], out=b[:, 1:])
                # each step's y goes over its last b
                y = carry[1] if first else 0.0
                for s in range(a, a + size, per):
                    pyx[s + per - 1] = _fold_last(y, pyx[s:s + per], pyy, (),
                                                  ())
                if first + per < 2**kk:  # the step goes on
                    carry = float(x[0, -1]), float(pyx[a + per - 1])
                else:
                    cols = at[j:j + c]
                    maps[0, cols] = x[:, -1]
                    maps[1, cols] = pyx[a + per - 1:a + size:per]
                    maps[2, cols] = z
                a += size

    # every step's myy but a stiff one's
    decay = _decay(beta, dt)

    def blocks():
        a11 = 1.0  # the node a block starts from: the last one before
        substeps, first_stiff = 0, None
        for lo in range(0, n, _BLOCK):
            m = min(_BLOCK, n - lo)
            maps = work[:3 * m].reshape(3, m)
            block = work[3 * m:(3 + _STEP_ROWS) * m].reshape(_STEP_ROWS, m)
            g, tmp = block[:3], block[3:]
            # errstate is entered and left within each block, never across
            # a yield, where the consumer's code runs
            with np.errstate(all="ignore"):
                i = tmp[3]
                np.add(offsets[:m], lo, out=i)
                np.multiply(i, dt, out=tmp[0])
                g0, gm, g1 = stages(i, 0.5 * dt, dt * (1.0 - 1e-8), tmp, g)
                if rates is not None:
                    # node j's rate is step j's start stage g0, read before
                    # blocks of substeps reuse its row; the block's last
                    # node starts the next block, so it is looked up here
                    rates[:m - 1] = g0[1:]
                    rates[m - 1] = profile_values(c, p, (lo + m) * dt)

                # the stiffest stage sets the substep
                rate, flag = tmp[0], tmp[1].view(bool)[:m]
                np.maximum(g0, gm, out=rate)
                np.maximum(rate, g1, out=rate)
                if gl:
                    np.add(rate, gl, out=rate)
                np.multiply(rate, dt, out=tmp[2])
                np.greater(tmp[2], DAMPING_CAP_FACTOR, out=flag)
                stiff = np.flatnonzero(flag)
                k = _halvings(rate[stiff], dt)
                too_stiff = np.flatnonzero(k > _MAX_HALVINGS)
                end = m
                if too_stiff.size:
                    cut = too_stiff[0]
                    end, stiff, k = int(stiff[cut]), stiff[:cut], k[:cut]

                mxx, myx, myy = maps[:, :end]
                _rk4_maps(g0[:end], gm[:end], g1[:end], beta, root, gl,
                          (dt, 0.5 * dt, dt / 6.0), (mxx, myx), tmp[:, :end])
                myy.fill(decay)
                if stiff.size:
                    substeps += int(np.sum(2 ** k))
                    if first_stiff is None:
                        first_stiff = lo + int(stiff[0])
                    if substeps > _MAX_SUBSTEPS:
                        raise ValueError(
                            f"profile needs {substeps} substeps, more than "
                            f"the bound {_MAX_SUBSTEPS} (2**22); its first "
                            f"stiff step is {first_stiff}")
                    halved_maps(stiff, k, lo, maps[:, :end], work[3 * m:])

                # the maps are built, so the stage rows are dead: the
                # block's nodes lo..lo+end go over them, and two scratch
                # rows after them
                size = rows * (m + 1)
                nodes = work[3 * m:3 * m + size].reshape(rows, m + 1)
                nodes = nodes[:, :end + 1]
                spare = work[3 * m + size:][:2 * m].reshape(2, m)
                # A11 is a running product, and the A21 fold builds on it.
                # The ufunc's own accumulate, not np.cumprod's Python
                # wrapper, after which tracemalloc saw 3-8 kB more,
                # varying by run
                nodes[0, 0] = a11
                np.copyto(nodes[0, 1:], mxx)
                np.multiply.accumulate(nodes[0], out=nodes[0])
                np.multiply(myx, nodes[0, :-1], out=nodes[1, 1:])
            a11 = float(nodes[0, end])
            yield lo, nodes, maps[:, :end], stiff, spare, end < m

    return dt, decay, blocks()


def integrate_blocks(c: CouplingProfile, p: SystemParams,
                     cfg: IntegratorConfig) -> Iterator[np.ndarray]:
    """Integrate the cascade with line transmission ``p.eta`` and parasitic
    damping ``p.gamma_loss``, one block of up to 8192 steps at a time.

    There is one path for every run: the lossless cascade is the case
    eta = 1, gamma_loss = 0, whose loss births are all zero.

    Yields, per block, the rows (a11, a21, a22) of its nodes as one
    (3, k) array, with kernel tracking (a11, a21, a22, d1, d2), the
    commutator sum rules' deficits, as a (5, k) array.  The first block
    holds nodes 0 to min(n, 8192), each later one the next 8192 nodes at
    most, so the blocks give every node 0..n once, in order; the last a21
    is the achieved transfer amplitude a21(T), which
    :func:`transfer_amplitude` gives alone.  A yielded array is a view
    of the run's workspace and stays valid only until the next block is
    asked for: copy what must outlive it.  A failing step raises once the
    blocks before it are yielded.

    Memory: the workspace, fixed before the run starts and whatever its
    length: 3 w + max(9 w, 14 * 4096) doubles with w = min(n, 8192), and
    8192 offsets, 0.85 MB from 8192 steps on.  The rows a block yields lie
    in it, over the block's dead stage rows.  A lossless run peaks at 0.90
    to 0.91 MB from 1e5 to 1e6 steps (tracemalloc, x86-64, numpy 2.4).
    Kernel tracking adds two rows of min(n, 8192) doubles for a block's
    births, 0.13 MB, and no block allocates either way.
    """
    track = cfg.kernel_tracking
    carry = [1.0, 0.0, 1.0]  # a11, a21, a22 at t = 0
    # with tracking, each block's births lie beside the workspace: blocks
    # of substeps reuse its stage rows before the births are read
    born = np.empty((2, min(cfg.n_steps, _BLOCK))) if track else None
    dt, decay, blocks = _map_blocks(c, p, cfg, 5 if track else 3,
                                    born[0] if track else None)
    if track:
        g, gl, eta = p.gamma, p.gamma_loss, p.eta
        # constant births of k2, of the loss ports and of the beam-splitter
        # port; only the k1 birth sqrt(2 g1) varies in time
        b2, bl = -math.sqrt(2.0 * g * eta), math.sqrt(2.0 * gl)
        bv = math.sqrt(2.0 * g * (1.0 - eta))
        byy = b2 * b2 + bl * bl + bv * bv

        def births(bxx: np.ndarray, bxy: np.ndarray) -> None:
            """The rates g1 in ``bxx`` become the births' (xx, xy), summed
            over channels, in ``bxx`` and ``bxy``."""
            np.multiply(2.0, bxx, out=bxx)
            np.sqrt(bxx, out=bxx)                   # b1
            np.multiply(bxx, b2, out=bxy)
            np.multiply(bxx, bxx, out=bxx)
            np.add(bxx, bl * bl, out=bxx)

        def deficits(rows: np.ndarray, bxx: np.ndarray,
                     tmp: np.ndarray) -> None:
            """From the sums in the rows d1 and d2 of the nodes ``rows``
            (a11, a21, a22, d1, d2), less the diagonal's half weight;
            overwrites ``bxx`` and the two rows ``tmp``."""
            a11, a21, a22, d1, d2 = rows
            # d1 = 1 - (a11**2 + dt*(d1 - bxx/2))
            np.multiply(0.5, bxx, out=bxx)
            np.subtract(d1, bxx, out=bxx)
            np.multiply(dt, bxx, out=bxx)
            np.square(a11, out=tmp[0])
            np.add(tmp[0], bxx, out=tmp[0])
            np.subtract(1.0, tmp[0], out=d1)
            # d2 = 1 - (a21**2 + a22**2 + dt*(d2 - byy/2))
            np.square(a21, out=tmp[0])
            np.square(a22, out=tmp[1])
            np.add(tmp[0], tmp[1], out=tmp[0])
            np.subtract(d2, 0.5 * byy, out=tmp[1])
            np.multiply(dt, tmp[1], out=tmp[1])
            np.add(tmp[0], tmp[1], out=tmp[0])
            np.subtract(1.0, tmp[0], out=d2)

        # the column born at t_0 enters at half weight
        bxx, bxy = born[:, :1]
        profile_values(c, p, np.zeros(1), out=bxx)
        births(bxx, bxy)
        sums = 0.5 * float(bxx[0]), 0.5 * float(bxy[0]), 0.5 * byy
        node = np.array([*carry, sums[0], sums[2]])[:, None]
        deficits(node, bxx, born[:, 1:2])
        carry = node[:, 0].tolist()

    for lo, nodes, maps, stiff, spare, cut in blocks:
        end = maps.shape[1]
        nodes[1:, 0] = carry[1:]
        a22 = nodes[2]
        # errstate is entered and left within each block, never across a
        # yield, where the consumer's code runs
        with np.errstate(all="ignore"):
            # A22 is a running product too, and A21 = myx*A11 + myy*A21 is
            # folded in step order, as the products it builds on
            np.copyto(a22[1:], maps[2])
            np.multiply.accumulate(a22, out=a22)
            if track:
                # the fold runs in the moment loop
                bxx, bxy = born[:, :end]
                births(bxx, bxy)
                sums = _moment_sums(maps, bxx, bxy, byy, sums,
                                    (nodes[1], nodes[3], nodes[4]))
            else:
                _fold(carry[1], nodes[1, 1:], decay, stiff.tolist(),
                      maps[2, stiff].tolist())
            _check(lo, nodes, spare, cut)
            if track:
                deficits(nodes[:, 1:], bxx, spare[:, :end])
        carry = nodes[:, end].tolist()
        yield nodes if lo == 0 else nodes[:, 1:]


def transfer_amplitude(c: CouplingProfile, p: SystemParams,
                       cfg: IntegratorConfig) -> float:
    """The achieved transfer amplitude a21(T): the last a21 of
    :func:`integrate_blocks`, bit for bit and with the same errors, but no
    curve kept.  It takes the same maps and A11 product, skips A22, and
    folds A21 keeping only the running value.  Non-finite values persist
    through both recurrences, so a block that ends finite held none; one
    that does not is folded again, storing, to name its first failing
    step.  ``cfg.kernel_tracking`` is ignored."""
    _, decay, blocks = _map_blocks(c, p, cfg, 2)
    y = 0.0
    for lo, nodes, maps, stiff, spare, cut in blocks:
        a11, b = nodes[0], nodes[1, 1:]
        stiff, own = stiff.tolist(), maps[2, stiff].tolist()
        last = _fold_last(y, b, decay, stiff, own)
        if cut or not (math.isfinite(last) and math.isfinite(a11[-1])):
            _fold(y, b, decay, stiff, own)
            _check(lo, nodes, spare, cut)
        y = last
    return y


def integrate_transfer(c: CouplingProfile, p: SystemParams,
                       cfg: IntegratorConfig) -> TransferState:
    """The whole run of :func:`integrate_blocks`, collected into arrays.

    Returns the transfer coefficients on the grid; ``a21(T)`` is the
    achieved transfer amplitude.  Enable ``cfg.kernel_tracking`` to also
    get the commutator sum rules' deficits on the grid, as
    ``state.deficits``.

    Memory: 24 B per node for a11, a21 and a22, 16 B more per node with
    kernel tracking for d1 and d2, besides the blocks' fixed workspace.
    """
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    # allocated at the first block, after the run's checks
    coeffs, at = None, 0
    for block in integrate_blocks(c, p, cfg):
        if coeffs is None:
            coeffs = np.empty((len(block), grid.n_nodes))
        coeffs[:, at:at + block.shape[1]] = block
        at += block.shape[1]
    a11, a21, a22, *deficits = coeffs
    return TransferState(params=p, grid=grid, a11=a11, a21=a21, a22=a22,
                         deficits=tuple(deficits) or None)
