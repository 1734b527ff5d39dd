"""The benchmark tracer wraps cubicode functions by name; each must still exist."""

from pathlib import Path

from checkout import python

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_tracer_install_finds_every_traced_name():
    status, _, err = python("-c", f"import sys; sys.path.insert(0, {PERFBENCH!r}); import tracer; tracer.install()")
    assert status == 0, err
