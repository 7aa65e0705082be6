"""Run the mutants that ``mutants.txt`` beside this script records against
the tier-1 suite.

    python tools/mutants.py [NAME ...]

For each entry of ``mutants.txt`` (or each one named), the script copies
``src/`` to a temporary directory, applies the entry's one replacement in
the copy, and runs the tier-1 suite with ``-x`` against the copy through
``PYTHONPATH``.  It prints KILLED with the first failing test, or SURVIVED,
and the seconds the run took.  It never edits the working tree.  Exits 1
if any mutant survived or its snippet no longer occurs exactly once in
``src/``.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).resolve().with_name("mutants.txt")


class Mutant(NamedTuple):
    name: str
    file: str
    find: str
    replace: str
    why: str


def mutants(path: Path = RECORD) -> list[Mutant]:
    """The entries of the record at ``path``, in order."""
    entries, fields = [], {}
    for line in [*path.read_text().splitlines(), ""]:
        if not line.strip():
            if fields:
                for key in ("find", "replace"):
                    fields[key] = ast.literal_eval(fields[key])
                entries.append(Mutant(**fields))
                fields = {}
        elif not line.startswith("#"):
            key, value = line.split(":", 1)
            fields[key] = value.strip()
    return entries


def occurrences(src: Path, snippet: str) -> dict[str, int]:
    """How often ``snippet`` occurs in each file under ``src`` that holds
    it, by path relative to ``src``."""
    counts = {}
    for path in sorted(src.rglob("*.py")):
        count = path.read_text().count(snippet)
        if count:
            counts[path.relative_to(src).as_posix()] = count
    return counts


def run(mutant: Mutant, src: Path = ROOT / "src") -> str:
    """The tier-1 verdict on ``mutant``: ``KILLED <first failing test>`` or
    ``SURVIVED``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.find,
                                                 mutant.replace))
        # the record's own test would find each snippet missing in the copy
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
             "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--ignore", "tests/test_mutants.py", "tests"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(copy)},
            capture_output=True, text=True)
    if proc.returncode == 0:
        return "SURVIVED"
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return "KILLED " + line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"KILLED (pytest exit {proc.returncode})"


def main(names: list[str]) -> int:
    entries = mutants()
    unknown = set(names) - {m.name for m in entries}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    bad = False
    for mutant in entries:
        if names and mutant.name not in names:
            continue
        if occurrences(ROOT / "src", mutant.find) != {mutant.file: 1}:
            print(f"STALE     {mutant.name}: its snippet does not occur "
                  f"exactly once in src/{mutant.file}", flush=True)
            bad = True
            continue
        start = time.perf_counter()
        verdict = run(mutant)
        bad |= verdict == "SURVIVED"
        word, _, test = verdict.partition(" ")
        print(f"{word:<9} {mutant.name:<28} {time.perf_counter() - start:5.1f} s"
              f"  {test}".rstrip(), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
