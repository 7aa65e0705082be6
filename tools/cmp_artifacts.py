"""Compare the CLI's results under two source trees, under two SIMD
settings, or on all CPUs and on one, byte for byte.

    python tools/cmp_artifacts.py PARENT_SRC CHANGE_SRC
    python tools/cmp_artifacts.py --simd SRC
    python tools/cmp_artifacts.py --one-cpu SRC

PARENT_SRC, CHANGE_SRC and SRC hold the ``oscxfer`` package (a checkout's
``src``).  Each line of ``cmp_argv.txt`` beside this script (``#`` starts a
comment line) is a CLI argv without ``--out``.  The first form runs it
under both trees.  The second runs it twice under SRC: once plainly, and
once with ``NPY_DISABLE_CPU_FEATURES`` naming every CPU feature that numpy
dispatches to on this CPU, so that numpy runs its baseline kernels.  The
third (Linux, more than one CPU) runs it twice under SRC: once plainly,
and once pinned to one CPU, where the forked writer child of
``simulate``'s tables and ``optimize``'s ``profile.csv`` stays in process.
So the forked writer is compared with the in-process one.  The runs' exit
codes, stdout, stderr and science artifacts are compared: ``*.csv``,
``*report.json``, ``budget.json``, and ``config.json`` without ``out_dir``.
Prints a ``#`` line naming the platform first (the bytes hold only across
hosts that match it), then SAME or DIFF per line, with what differs; exits
1 on any DIFF.
"""

import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


def _umath():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath


def dispatched_features() -> list:
    """The CPU features numpy dispatches to and this CPU has (none where
    ``NPY_DISABLE_CPU_FEATURES`` already turned them off)."""
    umath = _umath()
    return [name for name in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(name)]


def platform_line() -> str:
    """The versions the bytes depend on, and whether numpy reports FMA3:
    glibc runs FMA variants of ``exp`` and ``expm1`` where the CPU has it,
    and they round some arguments differently."""
    import numpy

    libc, version = platform.libc_ver()
    fma = "yes" if _umath().__cpu_features__.get("FMA3") else "no"
    return "  ".join(["# python " + platform.python_version(),
                      "numpy " + numpy.__version__,
                      f"{libc or 'libc'} {version or 'unknown'}",
                      "FMA3 " + fma])


def simd_off() -> dict:
    """Environment in which numpy runs no dispatched SIMD kernel."""
    return {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched_features())}


def pin_one_cpu() -> None:
    """Pin the calling process to the first CPU it may run on; a
    ``preexec_fn``, so it acts on the child only."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def artifacts(out: Path) -> dict:
    """The science artifacts under ``out``, keyed by their relative path:
    bytes, and ``config.json`` as a dict without ``out_dir``."""
    got = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = str(path.relative_to(out))
        if path.name == "config.json":
            got[name] = {**json.loads(path.read_text()), "out_dir": None}
        elif (path.suffix == ".csv" or path.name.endswith("report.json")
              or path.name == "budget.json"):
            got[name] = path.read_bytes()
    return got


def run(src, argv: list, out: Path, env=None, preexec=None) -> dict:
    """Exit code, stdout, stderr and artifacts of one run under ``src``,
    keyed by name, with ``env`` added to this process's environment and
    ``preexec`` run in the child before it starts."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               PYTHONDONTWRITEBYTECODE="1", **(env or {}))
    proc = subprocess.run(
        [sys.executable, "-m", "oscxfer.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True, preexec_fn=preexec)
    return {"exit code": proc.returncode,
            "stdout": proc.stdout.replace(str(out), "OUT"),
            "stderr": proc.stderr.replace(str(out), "OUT"), **artifacts(out)}


def main(args: list) -> int:
    if len(args) != 2:
        sys.exit(__doc__)
    if args[0] == "--simd":
        sides = [(args[1], {"NPY_DISABLE_CPU_FEATURES": ""}, None),
                 (args[1], simd_off(), None)]
    elif args[0] == "--one-cpu":
        if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
            sys.exit("--one-cpu needs Linux and more than one CPU")
        sides = [(args[1], None, None), (args[1], None, pin_one_cpu)]
    else:
        sides = [(src, None, None) for src in args]
    lines = Path(__file__).with_name("cmp_argv.txt").read_text().splitlines()
    differ = False
    print(platform_line(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for k, line in enumerate(s for s in map(str.strip, lines)
                                 if s and s[0] != "#"):
            a, b = (run(src, shlex.split(line), Path(tmp, f"{k}{side}"), *how)
                    for side, (src, *how) in zip("ab", sides))
            bad = sorted(key for key in a.keys() | b.keys()
                         if a.get(key) != b.get(key))
            differ |= bool(bad)
            print("DIFF" if bad else "SAME", line, *bad, sep="  ", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
