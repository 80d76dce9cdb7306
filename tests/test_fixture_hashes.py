"""Every artifact of the fixed CLI fixtures keeps its pinned sha256.

Runs ``tools/fixture_hashes.py --check`` in process (about 7 s): a change
that moves one byte of ``--out``, ``--vtk`` or ``--stats`` on any fixture
fails here, with the differing lines in the assertion message.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fixture_hashes.py"


def test_fixture_hashes_match_pinned():
    spec = importlib.util.spec_from_file_location("fixture_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.differing_lines(tool.current_lines()) == []
