"""The public surface: every name a module exports resolves, the value
classes behave as values, and the CLI imports lightly."""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import khoarrow
from khoarrow import EVEN, HomologyTable, RingParams


def test_every_name_in_every_all_is_an_attribute_of_its_module():
    modules = [khoarrow] + [importlib.import_module(f"khoarrow.{m.name}")
                            for m in pkgutil.iter_modules(khoarrow.__path__)]
    assert len(modules) >= 11
    for module in modules:
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_value_classes_keep_their_behaviour():
    # RingParams and HomologyTable are plain __slots__ classes:
    # constructor, validation, equality, hash, repr and immutability
    assert RingParams() == EVEN == RingParams(1, 1, 1) == RingParams(z=1)
    p = RingParams(1, y=-1)
    assert (p.x, p.y, p.z) == (1, -1, 1)
    assert p != EVEN and p != (1, -1, 1)
    assert hash(p) == hash(RingParams(1, -1, 1))
    assert len({p, RingParams(1, -1, 1), EVEN}) == 2
    assert repr(p) == "RingParams(x=1, y=-1, z=1)"
    with pytest.raises(ValueError, match="parameter y must be "
                                         r"\+1 or -1, got 0"):
        RingParams(1, 0, 1)
    with pytest.raises(AttributeError):
        p.x = -1
    with pytest.raises(AttributeError):
        p.w = 1
    with pytest.raises(AttributeError):
        del p.z
    assert copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p

    entries = {(0, 1): (1, ()), (1, 3): (0, (2,))}
    table = HomologyTable(entries)
    assert HomologyTable().entries == {}
    assert HomologyTable().entries is not HomologyTable().entries
    assert table == HomologyTable(entries=dict(entries))
    assert table != HomologyTable() and table != entries
    assert hash(table) == hash(HomologyTable(dict(entries)))
    assert repr(table) == f"HomologyTable(entries={entries!r})"
    assert table.betti(0, 1) == 1 and table.torsion(1, 3) == (2,)
    with pytest.raises(AttributeError):
        table.entries = {}
    assert pickle.loads(pickle.dumps(table)) == table


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # start-up: dataclasses pulls in inspect, ast, dis, tokenize and copy
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import khoarrow.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    added = proc.stdout.split()
    assert "khoarrow.cli" in added
    assert not {"dataclasses", "inspect"} & set(added), added
