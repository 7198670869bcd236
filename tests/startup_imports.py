"""Check that importing the CLI loads none of the heavy standard modules.

``import bpadams.cli`` runs in a fresh ``python -S`` interpreter, so that
no ``site`` hook has imported anything first; it must load none of
``FORBIDDEN``, whose import would be paid by every CLI process and every
``import bpadams``.  Standard library only.  pytest does not collect this
file.  Run it as ``python tests/startup_imports.py``; it exits 1 if one of
them is loaded.  ``tests/test_records.py`` runs it in tier-1.
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


def loaded() -> list[str]:
    """The names in ``FORBIDDEN`` that ``import bpadams.cli`` loads."""
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC), *FORBIDDEN],
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def main() -> int:
    found = loaded()
    if found:
        print(f"import bpadams.cli loads {', '.join(found)}")
        return 1
    print(f"import bpadams.cli loads none of {', '.join(FORBIDDEN)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
