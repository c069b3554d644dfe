"""The package namespace is lazy: `import collapse_lab` loads no geometry
module, and each exported name or submodule name imports its module on
first access."""

import json
import subprocess
import sys

import pytest

import collapse_lab


def test_import_loads_no_submodule():
    code = ("import json, sys, collapse_lab\n"
            "mods = lambda: sorted(m for m in sys.modules "
            "if m.startswith('collapse_lab.'))\n"
            "first = mods()\n"
            "gh = collapse_lab.gh_collapse\n"
            "print(json.dumps([first, "
            "gh is sys.modules['collapse_lab.gh_collapse'], mods()]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    first, same, then = json.loads(out)
    assert set(first) <= {"collapse_lab.errors"}
    assert same
    # gh_collapse brings its own imports and nothing else
    assert set(then) == {"collapse_lab.errors", "collapse_lab.gh_collapse",
                         "collapse_lab.schema", "collapse_lab.warped_metric"}


def test_every_export_resolves():
    assert len(set(collapse_lab.__all__)) == len(collapse_lab.__all__) == 82
    for name in collapse_lab.__all__:
        obj = getattr(collapse_lab, name)
        assert obj.__module__.startswith("collapse_lab.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    listed = set(dir(collapse_lab))
    assert set(collapse_lab.__all__) <= listed
    assert {"cli", "errors", "gh_collapse", "killing_quotient", "schema",
            "soliton", "su2_geometry", "warped_metric"} <= listed


def test_star_import():
    namespace = {}
    exec("from collapse_lab import *", namespace)
    assert set(collapse_lab.__all__) <= set(namespace)
    warped_metric = collapse_lab.warped_metric
    assert namespace["TabulatedWarp"] is warped_metric.TabulatedWarp


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        collapse_lab.no_such_name
