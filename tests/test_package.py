"""The package surface: every exported name resolves on first use to the
object its submodule defines."""

import importlib
import os
import subprocess
import sys

import pytest

import dilationkit

# the directory holding the dilationkit package under test
SRC = os.path.dirname(os.path.dirname(os.path.abspath(dilationkit.__file__)))


def test_every_exported_name_is_its_submodule_object():
    for module, names in dilationkit._EXPORTS.items():
        defining = importlib.import_module(f"dilationkit.{module}")
        for name in names:
            assert getattr(dilationkit, name) is getattr(defining, name), name
    assert dilationkit.rademacher is importlib.import_module("dilationkit.rademacher")


def test_star_import_binds_all():
    namespace = {}
    exec("from dilationkit import *", namespace)
    assert set(dilationkit.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dilationkit.no_such_name


def test_import_loads_no_submodule_until_a_name_is_used():
    code = ("import sys, dilationkit\n"
            "print(set(dilationkit.__all__) <= set(dir(dilationkit)))\n"
            "print(sorted(m for m in sys.modules if m.startswith('dilationkit.')))\n"
            "dilationkit.Ovm\n"
            "print('dilationkit.ovm' in sys.modules, 'dilationkit.frames' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:3] == ["True", "[]", "True False"]
