"""The traced benchmark still runs the program.

`perfbench/layers.py` names, in TARGETS, the functions that `--trace 1`
rebinds; a renamed or deleted one makes the traced run stop with an
AttributeError.  The first test resolves each name the way Tracer.install
does, without installing anything.  The wrappers also put the positional
arguments of some functions into a set, so those must stay hashable; the
second test runs every golden fixture with the tracer installed.
"""

import importlib
import importlib.util
import pathlib
import subprocess
import sys

from test_cli import GOLDEN_FIXTURES, golden_file, write

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_targets_resolve():
    targets = load_layers().TARGETS
    assert targets
    for metric, mod, path, _ in targets:
        owner = importlib.import_module(f"weightfil.{mod}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # install reads class attributes from the class's own __dict__
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{metric}: weightfil.{mod}.{path} does not exist"
        assert callable(getattr(owner, attr)), f"{metric}: {path} is not callable"


TRACED_MAIN = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
from weightfil import cli
layers.Tracer().install()
sys.exit(cli.main(sys.argv[2:]))
"""


def test_phin_golden_reports_under_tracer(tmp_path):
    for name, args, obj in GOLDEN_FIXTURES:
        path = [str(write(tmp_path, f"{name}.json", obj))] if obj is not None else []
        res = subprocess.run([sys.executable, "-c", TRACED_MAIN, str(LAYERS), *args, *path],
                             capture_output=True)
        assert res.returncode == 0, (name, res.stderr)
        assert res.stdout == golden_file(name, args).read_bytes(), name
