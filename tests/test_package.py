"""Package surface: lazy exports resolve to the objects of their home
modules, and a bare import loads no submodule."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import causalorder


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from causalorder import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(causalorder.__all__)
    assert len(set(causalorder.__all__)) == len(causalorder.__all__)
    for name, value in ns.items():
        home = importlib.import_module(f"causalorder.{causalorder._HOME[name]}")
        assert value is getattr(home, name) is getattr(causalorder, name), name


def test_unknown_name_is_a_standard_attribute_error():
    with pytest.raises(AttributeError, match=re.escape("module 'causalorder' has no attribute 'nope'")):
        causalorder.nope
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'causalorder'"):
        exec("from causalorder import nope", {})
    assert not hasattr(causalorder, "_fmt")  # private names are not exported


def test_bare_import_loads_no_submodule_and_dir_covers_all():
    code = (
        "import sys, causalorder\n"
        "assert [m for m in sys.modules if m.startswith('causalorder')] == ['causalorder']\n"
        "assert set(causalorder.__all__) | {'__version__'} <= set(dir(causalorder))\n"
        "assert causalorder.cones is sys.modules['causalorder.cones']\n"
        "assert causalorder.Event is sys.modules['causalorder.order'].Event\n"
        "print(*sorted(m for m in sys.modules if m.startswith('causalorder')))\n"
    )
    env = dict(os.environ)
    src = str(Path(causalorder.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["causalorder", "causalorder.cones", "causalorder.order"]
