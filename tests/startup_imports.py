"""Check that importing the CLI loads none of the heavy standard modules,
and that importing the package loads none of its submodules.

``import bpadams.cli`` runs in a fresh ``python -S`` interpreter, so that
no ``site`` hook has imported anything first; it must load none of
``FORBIDDEN``, whose import would be paid by every CLI process and every
``import bpadams``.  ``import bpadams`` runs in another such interpreter
and must load no ``bpadams.*`` submodule: the package resolves its names
on first use.  Standard library only.  pytest does not collect this file.
Run it as ``python tests/startup_imports.py``; it exits 1 if either check
fails.  ``tests/test_records.py`` runs it in tier-1.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")

PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import bpadams.cli
print(" ".join(sorted(name for name in sys.argv[2:] if name in sys.modules)))
"""

PACKAGE_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import bpadams
{statements}print(" ".join(sorted(name for name in sys.modules if name.startswith("bpadams."))))
"""


def _run(probe: str, *args: str) -> list[str]:
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC), *args],
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def loaded() -> list[str]:
    """The names in ``FORBIDDEN`` that ``import bpadams.cli`` loads."""
    return _run(PROBE, *FORBIDDEN)


def submodules_loaded(statements: str = "") -> list[str]:
    """The ``bpadams.*`` submodules that ``import bpadams`` loads, followed
    by ``statements`` (lines of code that read ``bpadams``, if any)."""
    return _run(PACKAGE_PROBE.format(statements=statements))


def main() -> int:
    status = 0
    found = loaded()
    if found:
        print(f"import bpadams.cli loads {', '.join(found)}")
        status = 1
    else:
        print(f"import bpadams.cli loads none of {', '.join(FORBIDDEN)}")
    submodules = submodules_loaded()
    if submodules:
        print(f"import bpadams loads {', '.join(submodules)}")
        status = 1
    else:
        print("import bpadams loads no bpadams submodule")
    return status


if __name__ == "__main__":
    sys.exit(main())
