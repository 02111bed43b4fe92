import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs every command in one interpreter and prints the top-level modules
# that importing and running sidigraph added, outside the standard library.
# sys.modules is read before the import, because site .pth files may preload
# modules such as _distutils_hack or certifi.
SCRIPT = """
import sys
before = set(sys.modules)
import contextlib, io
from sidigraph.cli import main

for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
added = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_only_numpy_is_imported_at_run_time(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("n 4\n0 1 +1\n1 2 -1\n2 0 +1\n1 0 +1\n2 3 +1\n3 2 +1\n", encoding="utf-8")
    commands = [
        ["cycle", "24", "-", "--iota"],
        ["ordering", "30", "--mixed", "--format", "svg"],
        ["ordering", "30", "--same-sign", "--format", "csv"],
        ["extremal", "30"],
        ["floating-pair", "30"],
        ["verify", "--n-max", "30"],
        ["spectrum", str(path)],
    ]
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(commands=commands)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["numpy", "sidigraph"]
