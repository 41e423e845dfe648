#!/usr/bin/env python3
"""Mutation check for the LP oracle and the certificate checker.

Each entry plants one fault in a copy of `src/` and names the tests that
must catch it.  For each entry the script copies `src/` to a temporary
directory, requires the old text to occur exactly once in the file, applies
the edit, checks that the mutated package still imports, and runs the pytest
selection against the copy: it must fail.  Every selection must first pass
on an unchanged copy, so a selection that matches no test, or fails for a
reason of its own, cannot pass for a kill.

Run from the repository root or anywhere else (standard library and pytest
only):

    python3 tools/mutants.py

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when an
entry no longer applies (its old text is not found exactly once, the mutant
does not import, or a selection fails on the unchanged copy).  A mutant that
survives is fixed in the tests, never dropped from the list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = "blowupcones/oracle.py"
CONES = "blowupcones/cones.py"

PRICING = ("tests/test_oracle.py", "-k", "TestPackedPricing or TestTruncationPricing")

# (name, file under src/, exact old text, new text, pytest selection)
MUTANTS = (
    ("packed hit read from the right", ORACLE,
     ".translate(_TOP_BIT).find(1)", ".translate(_TOP_BIT).rfind(1)", PRICING),
    # `lt` is read only by `_row_entering`, so aliasing it there is `lt` -> `le`.
    ("row kernel enters a zero price", ORACLE,
     "from operator import add, gt, lt, mul", "from operator import add, gt, le as lt, mul",
     PRICING),
    ("no column scan for a 'no'", ORACLE,
     "if any(map(gt, repeat(0), _dots(psi, columns))):", "if False:",
     ("tests/test_oracle.py", "-k", "functional_negative_on_a_column")),
    ("no entered-column check", ORACLE,
     "if (columns.runs[-1] is _HALF_RUN and entering < n - 1", "if (False and entering < n - 1",
     ("tests/test_oracle.py", "-k", "changed_byte or past_a_byte")),
    # `bisect_right` is read only by `PreparedCone.__getitem__`.
    ("run lookup off by one", ORACLE,
     "from bisect import bisect_right", "from bisect import bisect_left as bisect_right",
     PRICING),
    ("run without int check", ORACLE,
     "    _check_ints(chain.from_iterable(columns))\n", "",
     ("tests/test_oracle.py", "-k", "TestPreparedCone or TestEffectiveConeValidation")),
    ("negative coefficient accepted", CONES,
     "            if coefficient < 0:\n", "            if False:\n",
     ("tests/test_cones.py", "-k", "TestCertificateSerialization")),
    ("word rule dropped", CONES,
     "if self.word and kind not in (CONE_EFF, CONE_MOV):", "if False:",
     ("tests/test_cones.py", "-k", "TestCertificateSerialization")),
    ("(-1)-test dropped", CONES,
     "        return _is_minus_one_frame(ints, den)\n", "        return den == 1\n",
     ("tests/test_cones.py", "-k", "TestCertificateSerialization")),
)


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _pytest(src: Path, selection) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=ROOT, env=_env(src), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _imports_from(src: Path) -> bool:
    # The package the selection will test is the copy, not an installed one.
    probe = "import blowupcones.cones, blowupcones.oracle as o; print(o.__file__)"
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=_env(src),
                          capture_output=True, text=True)
    return done.returncode == 0 and Path(done.stdout.strip()).is_relative_to(src)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        if not _imports_from(clean):
            print("the unchanged copy does not import from its own directory")
            return 2
        for selection in dict.fromkeys(entry[4] for entry in MUTANTS):
            if _pytest(clean, selection) != 0:
                print(f"selection fails on the unchanged copy: {' '.join(selection)}")
                return 2
        survivors = 0
        for number, (name, file, old, new, selection) in enumerate(MUTANTS):
            src = Path(tmp) / f"mutant{number}"
            shutil.copytree(clean, src)
            path = src / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: old text found {text.count(old)} times in {file}")
                return 2
            path.write_text(text.replace(old, new))
            if not _imports_from(src):
                print(f"{name}: the mutant does not import")
                return 2
            start = time.perf_counter()
            code = _pytest(src, selection)
            seconds = time.perf_counter() - start
            if code == 1:
                print(f"killed    {name} ({seconds:.1f} s)")
            elif code == 0:
                survivors += 1
                print(f"SURVIVED  {name}: {' '.join(selection)} passes")
            else:
                print(f"{name}: pytest exit status {code}, not a test failure")
                return 2
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
