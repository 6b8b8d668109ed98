"""perfbench's traced runs wrap library functions that perfbench/launch.py
names in WRAPPED, looked up with getattr. A name deleted from the library
must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    missing = [f"vistest.{module}.{name}" for module, names in launch.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"vistest.{module}"), name, None))]
    assert launch.WRAPPED and missing == []
