#!/usr/bin/env python3
"""Mutation check for the LP oracle, the certificate checker and the decomposers.

Each entry plants one fault in a copy of `src/` and names the tests that
must catch it; a decomposer's fault is caught by the seeded sweep that
compares that cone's decomposer with the LP.  For each entry the script
copies `src/` to a temporary directory, requires the old text to occur
exactly once in the file, applies the edit, checks that the mutated package
still imports, and runs the pytest selection against the copy: it must
fail.  Every selection must first pass on an unchanged copy, so a selection
that matches no test, or fails for a reason of its own, cannot pass for a
kill.

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
PIVOTS = ("tests/test_oracle.py", "-k", "TestPivotRule")
EFF_SWEEP = ("tests/test_oracle.py", "-k", "test_effective_agreement_sweep")
MOV_SWEEP = ("tests/test_oracle.py", "-k", "test_movable_agreement_sweep")
CURVE_SWEEP = ("tests/test_oracle.py", "-k", "test_curve_agreement_on_valid_region")
NEF_SWEEP = ("tests/test_oracle.py", "-k", "test_nef_agreement_sweep")

STOP = "        if not any(b for b, j in zip(beta, basis) if j >= n):\n"

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
    # Phase 1's stop at a zero artificial sum.  Without it every verdict and
    # value stays the same, so only the count of pricing passes shows it.
    ("phase-1 stop deleted", ORACLE, STOP + "            break\n", "",
     ("tests/test_oracle.py", "-k", "TestPhaseOneStop")),
    ("phase-1 stop reads the structural rows", ORACLE, STOP, STOP.replace(">=", "<"), PIVOTS),
    ("phase-1 stop at one zero artificial row", ORACLE, STOP, STOP.replace("any", "all"), PIVOTS),
    # The shared split over the 17 movable generators, and the effective expansion.
    ("m4 read at m[2]", CONES, "    m4 = m[3]\n", "    m4 = m[2]\n", EFF_SWEEP),
    ("defect read at m[2]", CONES,
     "defect = max(0, m[0] + m[3] - d)", "defect = max(0, m[0] + m[2] - d)", EFF_SWEEP),
    ("spurious L_8 count", CONES,
     "counts[_QUADRICS + k] = m[k - 1] - m[k]\n",
     "counts[_QUADRICS + k] = m[k - 1] - m[k] + (k == 8)\n", EFF_SWEEP),
    ("E_6 dropped from L_5", CONES,
     "_QUADRICS + 5: (_DOUBLE_QUADRIC, 0, 5)", "_QUADRICS + 5: (_DOUBLE_QUADRIC, 0)", EFF_SWEEP),
    ("E_8 dropped from L_7", CONES, "_QUADRICS + 7: (_Q, 7)", "_QUADRICS + 7: (_Q,)", EFF_SWEEP),
    ("eff refuses m_1 = d", CONES,
     "    if ints[1] > ints[0]:\n        raise NotEffective(",
     "    if ints[1] >= ints[0]:\n        raise NotEffective(", EFF_SWEEP),
    # The movable three-point rest.
    ("plane count without 2 r_j", CONES,
     "(total - 2 * m[j] - spare + 2 * r[j]) // 2", "(total - 2 * m[j] - spare) // 2", MOV_SWEEP),
    ("2 r_j on H-E_j", CONES, "counts[1 + j] += r[j]", "counts[1 + j] += 2 * r[j]", MOV_SWEEP),
    ("dominance test flipped", CONES,
     "if 2 * m[t] >= total:", "if 2 * m[t] < total:", MOV_SWEEP),
    ("r_1 = 0", CONES, "r[0] = total % 2", "r[0] = 0", MOV_SWEEP),
    ("H one short", CONES,
     "counts[0] += d - (total + spare) // 2", "counts[0] += d - (total + spare) // 2 - 1",
     MOV_SWEEP),
    ("mov refuses m_1 = d", CONES,
     "    if ints[1] > ints[0]:\n        raise NotMovable(",
     "    if ints[1] >= ints[0]:\n        raise NotMovable(", MOV_SWEEP),
    # The cone of curves' closed form and Hakimi's construction.
    ("curve test max(b) > a as >=", CONES,
     "if a < 0 or max(b) > a or", "if a < 0 or max(b) >= a or", CURVE_SWEEP),
    ("line term of points 1-2 dropped", CONES,
     "        terms[_key(line_between(i1 + 1, i2 + 1))] += k\n",
     "        terms[_key(line_between(i1 + 1, i2 + 1))] += k * ((i1, i2) != (0, 1))\n",
     CURVE_SWEEP),
    ("e_3 term dropped", CONES,
     "for i, line in enumerate(EXCEPTIONAL_LINES)})",
     "for i, line in enumerate(EXCEPTIONAL_LINES) if i != 2})", CURVE_SWEEP),
    # The nef cone's own test d >= m_(1) + m_(2) and m_(8) >= 0.
    ("nef test without m_(8) < 0", CONES,
     "if d < sorted_m[0] + sorted_m[1] or sorted_m[7] < 0:",
     "if d < sorted_m[0] + sorted_m[1]:", NEF_SWEEP),
    ("nef test reads m_(3) for m_(2)", CONES,
     "if d < sorted_m[0] + sorted_m[1] or sorted_m[7] < 0:",
     "if d < sorted_m[0] + sorted_m[2] or sorted_m[7] < 0:", NEF_SWEEP),
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
