"""Every function the traced benchmark wraps still exists.

`perfbench/layers.py` names, in TARGETS, the functions that `--trace 1`
rebinds; a renamed or deleted one makes the traced run stop with an
AttributeError.  This resolves each name the way Tracer.install does,
without installing anything.
"""

import importlib
import importlib.util
import pathlib

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
