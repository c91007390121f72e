import subprocess
import sys
from pathlib import Path

import caloric


def test_package_import_does_not_load_scipy_signal():
    # scipy.signal roughly doubles the start-up time of every CLI run;
    # nothing on the import path of the package or its entry points needs it.
    code = ("import sys, caloric, caloric.cli, caloric.acceptance; "
            "sys.exit('scipy.signal' in sys.modules)")
    src = str(Path(caloric.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "importing caloric loaded scipy.signal"
