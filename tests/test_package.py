import os
import subprocess
import sys

import matchgame


def test_version():
    assert matchgame.__version__


def test_public_surface_resolves():
    for name in matchgame.__all__:
        assert getattr(matchgame, name) is not None


def test_convenience_names():
    g = matchgame.parse_graph6("A_")
    assert matchgame.emit_graph6(g) == "A_"
    assert matchgame.game_values(g) == (1, 1)
    assert matchgame.matching_number(g) == 1


def test_import_does_not_load_multiprocessing():
    # verify --jobs N imports it when N > 1; nothing else should
    src = os.path.dirname(os.path.dirname(os.path.abspath(matchgame.__file__)))
    code = "import sys, matchgame, matchgame.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"
