"""What `import cubicode` and each command load: numpy only where there are arrays.

The package resolves its names on first use, and the closed-form
commands, help and usage errors run on spec, closed_form, bounds and
cli alone.  Each check that depends on what is already imported runs in
a fresh interpreter, started by checkout.python under -O when the suite
runs under -O; the first two tests check that hand-off and that no
helper module leans on an assert, which -O would strip.
"""

import ast
import hashlib
import sys
import types
from pathlib import Path

import pytest

import cubicode
from checkout import python
from test_golden import DIGESTS

BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "
RUN_CLI = "import sys; from cubicode.cli import main; sys.exit(main(sys.argv[1:]))"

# (argv, exit status, the tests/test_golden.py command pinning the same stdout, or None)
NUMPY_FREE = (
    ("weights --m 3", 0, "weights --output text --m 3 --set lprime"),
    ("bounds --m 5", 0, "bounds --output text --m 5 --set lprime"),
    ("export --format json --m 2", 0, "export --format json --m 2 --set lprime"),
    ("weights --help", 0, None),
    ("weights --m 3 --threads 0", 2, None),  # usage errors from the full parser
    ("bounds --m 5 --output xml", 2, None),
    ("export --format json --m 0", 2, None),  # refused by CodeSpec
    ("weights --m 3004 --set units", 2, None),  # above the closed-form scope
)


def test_a_spawned_interpreter_runs_under_o_as_this_run_does():
    assert python("-c", "print(__debug__)") == (0, f"{not sys.flags.optimize}\n", "")
    assert python("-O", "-c", "print(__debug__)") == (0, "False\n", "")


def test_no_helper_module_has_an_assert():
    # pytest rewrites the asserts of test modules and conftest alone; python -O strips any other
    for path in Path(__file__).parent.glob("*.py"):
        if not path.name.startswith("test_") and path.name != "conftest.py":
            tree = ast.parse(path.read_text())
            assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


@pytest.mark.parametrize("argv, status, pinned", NUMPY_FREE, ids=[argv for argv, _, _ in NUMPY_FREE])
def test_closed_form_commands_run_without_numpy(argv, status, pinned):
    blocked = python("-c", BLOCK_NUMPY + RUN_CLI, *argv.split(), text=False)
    assert blocked == python("-c", RUN_CLI, *argv.split(), text=False)
    assert blocked[0] == status, blocked[2]
    if pinned is not None:
        assert hashlib.sha256(blocked[1]).hexdigest() == DIGESTS[pinned]


def test_package_and_cli_import_without_numpy():
    script = BLOCK_NUMPY + """import cubicode, cubicode.cli
spec = cubicode.CodeSpec(3, "units")
print(cubicode.formula_distribution(spec).entries == {0: 1, 37908: 19656, 39366: 26})
print(sorted(name for name in sys.modules if name.startswith("cubicode")))
"""
    status, out, err = python("-c", script)
    assert status == 0, err
    assert out.splitlines() == [
        "True",
        "['cubicode', 'cubicode.bounds', 'cubicode.cli', 'cubicode.closed_form', 'cubicode.spec']",
    ]


def test_import_cubicode_loads_no_submodule_and_version_needs_none():
    script = "import sys, cubicode; print(cubicode.__version__, [n for n in sys.modules if n.startswith('cubicode.')])"
    assert python("-c", script) == (0, "0.1.0 []\n", "")


@pytest.mark.parametrize("name", [name for name in cubicode.__all__ if name != "__version__"])
def test_each_package_name_is_the_object_of_its_home_module(name):
    value = getattr(cubicode, name)
    assert value.__module__.startswith("cubicode.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_dir_covers_all():
    assert set(cubicode.__all__) <= set(dir(cubicode))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cubicode import *", namespace)
    assert set(cubicode.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(cubicode, name) for name in cubicode.__all__)


def test_an_unknown_attribute_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("cubicode").no_such_name  # noqa: B018
    with pytest.raises(AttributeError) as lazy:
        cubicode.no_such_name  # noqa: B018
    assert str(lazy.value) == str(plain.value) == "module 'cubicode' has no attribute 'no_such_name'"
    assert not hasattr(cubicode, "no_such_name")


def test_no_handler_imports_a_module_late():
    # a cubicode module first imported inside cli.main would be compiled there,
    # after the array modules were loaded
    script = """import contextlib, io, sys
from cubicode import chain_ring, cli, gf3m, linalg3, sss, trace_code, weight_dist
before = {name for name in sys.modules if name.startswith("cubicode")}
code = ["--m", "2", "--set", "units"]
for argv in (
    ["weights", *code],
    ["weights", *code, "--method", "enumerate"],
    ["weights", *code, "--method", "charsum"],
    ["bounds", *code],
    ["dual", *code],
    ["sss", *code, "--seed", "1"],
    *(["export", *code, "--format", fmt] for fmt in ("generators", "csv", "json", "access")),
    ["verify-paper"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"{argv} failed")
print(sorted(name for name in sys.modules if name.startswith("cubicode") and name not in before))
"""
    status, out, err = python("-c", script)
    assert status == 0, err
    assert out == "[]\n"
