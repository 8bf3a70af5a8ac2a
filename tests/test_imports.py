"""What importing the package, and running one subcommand, loads.

A CLI process pays for every module it imports, so the package namespace is
lazy and each subcommand imports only what it runs.  Each test starts a
fresh interpreter, since this one has the whole package loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str):
    """Run ``code`` in a fresh interpreter that imports trigrade from this
    checkout; return what it printed as JSON last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_by(statement: str) -> set[str]:
    """The modules that running ``statement`` in a fresh interpreter adds."""
    return set(_run(f"import json, sys\nbefore = set(sys.modules)\n{statement}\n"
                    "print(json.dumps(sorted(set(sys.modules) - before)))"))


def test_import_package_loads_no_submodule():
    loaded = _loaded_by("import trigrade")
    assert "trigrade" in loaded
    assert not [m for m in loaded if m.startswith("trigrade.")]


def test_import_cli_loads_no_engine_and_no_third_party_module():
    loaded = _loaded_by("import trigrade.cli")
    assert "trigrade.cli" in loaded
    assert not loaded & {"trigrade.solver", "trigrade.sequences", "trigrade.mirror"}
    outside = {m for m in loaded
               if m.partition(".")[0] not in {*sys.stdlib_module_names, "trigrade"}}
    assert not outside


@pytest.mark.parametrize("args, absent", [
    (["generate", "k3-elliptic:r=2"],
     {"trigrade.sequences", "trigrade.solver", "trigrade.mirror", "trigrade.dualcomplex"}),
    (["basechange", "--topology", "chain", "--components", "3", "--mu", "2"],
     {"trigrade.sequences", "trigrade.solver", "trigrade.mirror", "trigrade.render"}),
], ids=["generate", "basechange"])
def test_subcommand_loads_only_what_it_runs(args, absent):
    loaded = _loaded_by(
        f"from trigrade.cli import main\nmain({args!r})\nsys.stdout.write('\\n')")
    assert not loaded & absent


def test_every_public_name_resolves():
    found = _run(
        "import json, trigrade\n"
        "from trigrade import *\n"
        "names = trigrade.__all__\n"
        "print(json.dumps([len(names), [n for n in names if n not in globals()],\n"
        "                  sorted(set(names) - set(dir(trigrade)))]))")
    count, missing, undir = found
    assert count == 60
    assert missing == [] and undir == []


def test_unknown_attribute_raises_attribute_error():
    found = _run(
        "import json, trigrade\n"
        "try:\n"
        "    trigrade.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(trigrade, 'solver_x')]))")
    assert found == ["module 'trigrade' has no attribute 'no_such_name'", False]
