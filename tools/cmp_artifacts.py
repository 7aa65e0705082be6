"""Compare the CLI's results under two source trees, byte for byte.

    python tools/cmp_artifacts.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC hold the ``oscxfer`` package (a checkout's
``src``).  Each line of ``cmp_argv.txt`` beside this script (``#`` starts a
comment line) is a CLI argv without ``--out``, run under both trees.  The
runs' exit codes, stderr and science artifacts are compared: ``*.csv``,
``*report.json``, ``budget.json``, and ``config.json`` without ``out_dir``.
Prints SAME or DIFF per line, with what differs; exits 1 on any DIFF.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


def run(src: str, argv: list, out: Path) -> dict:
    """Exit code, stderr and artifacts of one run, keyed by name."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "oscxfer.cli", *argv, "--out", str(out)],
        env=env, capture_output=True, text=True)
    got = {"exit code": proc.returncode,
           "stderr": proc.stderr.replace(str(out), "OUT")}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = str(path.relative_to(out))
        if path.name == "config.json":
            got[name] = {**json.loads(path.read_text()), "out_dir": None}
        elif (path.suffix == ".csv" or path.name.endswith("report.json")
              or path.name == "budget.json"):
            got[name] = path.read_bytes()
    return got


def main(args: list) -> int:
    if len(args) != 2:
        sys.exit(__doc__)
    lines = Path(__file__).with_name("cmp_argv.txt").read_text().splitlines()
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for k, line in enumerate(s for s in map(str.strip, lines)
                                 if s and s[0] != "#"):
            a, b = (run(src, shlex.split(line), Path(tmp, f"{k}{side}"))
                    for side, src in zip("ab", args))
            bad = sorted(key for key in a.keys() | b.keys()
                         if a.get(key) != b.get(key))
            differ |= bool(bad)
            print("DIFF" if bad else "SAME", line, *bad, sep="  ", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
