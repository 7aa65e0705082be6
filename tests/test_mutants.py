"""The mutation record ``tools/mutants.txt`` stays applicable to ``src/``."""

import importlib.util
from pathlib import Path

import oscxfer

ROOT = Path(__file__).resolve().parents[1]


def _mutants_tool():
    """``tools/mutants.py`` as a module."""
    path = ROOT / "tools" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_snippet_occurs_once_in_src():
    # a refactor that moves or duplicates a snippet updates the record in
    # the same change; the package under test is the tree the record names
    tool = _mutants_tool()
    src = Path(oscxfer.__file__).resolve().parents[1]
    entries = tool.mutants()
    assert len({m.name for m in entries}) == len(entries) >= 10
    for m in entries:
        assert m.find != m.replace and m.why, m.name
        assert tool.occurrences(src, m.find) == {m.file: 1}, m.name
