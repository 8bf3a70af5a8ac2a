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


def _inline_instances(tmp_path) -> dict[str, str]:
    """Paths of a loc2 instance to check and a loc1 -U instance to solve,
    both with their tables inline rather than named by family spec."""
    from trigrade import family_tables, parse_family, tables_to_json_obj

    tables = family_tables(parse_family("k3-finite:g=3"))
    known = tables_to_json_obj({t: tab for t, tab in tables.items() if t != "U"})
    paths = {}
    for name, obj in {"check": {"template": "loc2", "tables": [tables_to_json_obj(tables)]},
                      "solve": {"template": "loc1", "unknown": "U", "tables": [known]}}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("args, absent", [
    (["generate", "k3-elliptic:r=2"],
     {"trigrade.sequences", "trigrade.solver", "trigrade.mirror", "trigrade.dualcomplex",
      "trigrade.render"}),
    (["generate", "k3-elliptic:r=2", "--format", "grid"],
     {"trigrade.sequences", "trigrade.solver", "trigrade.mirror", "trigrade.dualcomplex"}),
    (["check", "{check}"],
     {"trigrade.catalog", "trigrade.solver", "trigrade.mirror", "trigrade.dualcomplex",
      "trigrade.render", "trigrade.checks"}),
    (["solve", "{solve}"],
     {"trigrade.catalog", "trigrade.mirror", "trigrade.dualcomplex", "trigrade.render",
      "trigrade.checks"}),
    (["basechange", "--topology", "chain", "--components", "3", "--mu", "2"],
     {"trigrade.sequences", "trigrade.solver", "trigrade.mirror", "trigrade.render",
      "trigrade.spaces", "trigrade.catalog", "trigrade.checks", "dataclasses"}),
], ids=["generate", "generate-grid", "check-inline", "solve-inline", "basechange"])
def test_subcommand_loads_only_what_it_runs(args, absent, tmp_path):
    paths = _inline_instances(tmp_path)
    args = [a.format(**paths) for a in args]
    loaded = _loaded_by(
        "from trigrade.cli import main\n"
        f"try:\n    main({args!r})\nexcept SystemExit as exc:\n    assert exc.code == 0\n"
        "sys.stdout.write('\\n')")
    assert "trigrade.cli" in loaded
    assert not loaded & absent


def test_only_space_descriptor_is_a_dataclass():
    """The value classes are written by hand, so importing them runs no
    dataclass code generation; SpaceDescriptor is the one exception."""
    found = _run(
        "import importlib, inspect, json, trigrade\n"
        "names = []\n"
        "for module in trigrade._EXPORTS:\n"
        "    mod = importlib.import_module('trigrade.' + module)\n"
        "    names += [f'{module}.{n}' for n, c in vars(mod).items() if inspect.isclass(c)\n"
        "              and c.__module__ == mod.__name__ and hasattr(c, '__dataclass_fields__')]\n"
        "print(json.dumps(sorted(names)))")
    assert found == ["spaces.SpaceDescriptor"]


def test_every_public_name_resolves():
    found = _run(
        "import json, trigrade\n"
        "from trigrade import *\n"
        "names = trigrade.__all__\n"
        "print(json.dumps([len(names), [n for n in names if n not in globals()],\n"
        "                  sorted(set(names) - set(dir(trigrade)))]))")
    count, missing, undir = found
    assert count == 59
    assert missing == [] and undir == []


def test_unknown_attribute_raises_attribute_error():
    found = _run(
        "import json, trigrade\n"
        "try:\n"
        "    trigrade.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(trigrade, 'solver_x')]))")
    assert found == ["module 'trigrade' has no attribute 'no_such_name'", False]
