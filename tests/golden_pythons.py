"""Run every golden case, and the parser snapshot, on other Pythons.

    python tests/golden_pythons.py PYTHON [PYTHON ...]

Each PYTHON, an interpreter path or name, runs this file with ``--here``
and ``src`` on its PYTHONPATH.  That run takes every case of
``golden_cases.CASES`` through ``braidmf.cli.main`` from inside
``tests/golden`` and compares its stdout, stderr and exit code with
``golden/<case>.json``, and ``parser_surface(build_parser())`` with
``golden/parser.json``, as ``tests/test_golden.py`` does; it needs no
pytest.  One line per interpreter gives its version and the files it
does not reproduce.  The exit code is 1 if any interpreter differs in
any file or fails to run, else 0.

pytest does not collect this file (its name does not match test_*.py),
so it is not part of the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_here():
    """Compare this interpreter's output with every golden file and print
    one line; 1 if any file differs, else 0."""
    from braidmf.cli import build_parser
    from golden_cases import CASES, GOLDEN, parser_surface, run_case

    os.chdir(GOLDEN)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage to the terminal
    got = {f"{case}.json": run_case(argv.split()) for case, argv in CASES.items()}
    got["parser.json"] = parser_surface(build_parser())
    differ = [name for name, data in got.items()
              if data != json.loads((GOLDEN / name).read_text())]
    version = sys.version.split()[0]
    if differ:
        print(f"Python {version}: {len(differ)} of {len(got)} files differ:",
              ", ".join(differ))
        return 1
    print(f"Python {version}: all {len(got)} files identical")
    return 0


def check_pythons(pythons):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    failed = 0
    for python in pythons:
        try:
            run = subprocess.run(
                [python, __file__, "--here"], env=env, capture_output=True, text=True
            )
        except OSError as exc:
            print(f"{python}: cannot run: {exc}")
            failed += 1
            continue
        print(f"{python}: {run.stdout.strip() or run.stderr.strip()}")
        failed += run.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--here"]:
        sys.exit(check_here())
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip())
        sys.exit(0 if args else 2)
    sys.exit(check_pythons(args))
