"""The package and every CLI command run on numpy and the standard
library alone.

A fresh interpreter blocks every ``scipy`` import before it imports
convbsde, so a scipy import anywhere on the path of a command, eager or
deferred, fails the run.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import convbsde

SRC = str(Path(convbsde.__file__).resolve().parent.parent)

SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import sys


    class BlockScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"import of {name} is blocked")
            return None


    sys.meta_path.insert(0, BlockScipy())

    import convbsde, convbsde.cli

    out = sys.argv[1]
    tiny = ["--n", "50", "--log2N", "10"]
    runs = {
        "price": ["price", *tiny, "--out", f"{out}/price.csv"],
        "paths": ["paths", *tiny, "--paths", "2", "--out", f"{out}/paths.csv"],
        "table": ["table", "--log2N", "10", "--strikes", "100", "--n-list", "50",
                  "--schemes", "explicit2", "--out", f"{out}/table.csv"],
        "converge": ["converge", "--log2N", "10", "--n-list", "50,100,200",
                     "--out", f"{out}/converge.csv"],
        "error-surface": ["error-surface", *tiny, "--out", f"{out}/errors.csv"],
    }
    for name, argv in runs.items():
        print(f"exit {name} {convbsde.cli.main(argv)}")
    print(f"scipy loaded {'scipy' in sys.modules}")
    """
)


def test_cli_commands_run_with_scipy_blocked(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for name in ("price", "paths", "table", "converge", "error-surface"):
        assert f"exit {name} 0" in lines, result.stdout + result.stderr
    assert lines[-1] == "scipy loaded False"
    assert "failed" not in result.stderr
    for name in ("price", "paths", "table", "converge", "errors"):
        assert (tmp_path / f"{name}.csv").stat().st_size > 0
