"""Write reference.json: the seed outputs the workloads are checked against.

Run once from the repository root, on the commit whose outputs are the
reference, and commit the result:

    PYTHONPATH=src python3 perfbench/freeze_reference.py

Frozen: the 9 critical strains, every converge.csv and consistency.csv
column except the wall-clock runtime_ms, the strain-error tail slope
(acceptance criterion 7), the consistency multiplier ratio (criterion 8),
and the energy and gradient figures of the three models at the fixed
deformed state of ``DeformedAssembly.REFERENCE_CASE``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from eamchain.potentials import load_potential_file
from workloads import (
    CONSISTENCY_ARGS,
    CONVERGE_ARGS,
    CRITICAL_STRAIN_ARGS,
    POTENTIAL,
    REFERENCE,
    DeformedAssembly,
    multiplier_ratio,
    read_csv,
    run_commands,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def typed(row: dict) -> dict:
    out = {}
    for key, text in row.items():
        if key == "runtime_ms":
            continue
        out[key] = int(text) if key in ("N", "K") else float(text)
    return out


def main() -> None:
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK)) / "out"
    try:
        potential = str(ROOT / POTENTIAL)
        if run_commands([CRITICAL_STRAIN_ARGS, CONVERGE_ARGS, CONSISTENCY_ARGS], potential, tmp) != [0, 0, 0]:
            raise SystemExit("a CLI command failed; no reference written")
        rows = [
            {"model": r["model"], "N": int(r["N"]), "F_star": float(r["F_star"])}
            for r in read_csv(tmp / "critical_strain.csv")
        ]
        converge = read_csv(tmp / "converge.csv")
        consistency = read_csv(tmp / "consistency.csv")
        ref = {
            "critical-strain": {"rows": rows},
            "rate-study": {
                "converge": [typed(r) for r in converge],
                "consistency": [typed(r) for r in consistency],
                "error_slope_tail": float(converge[-1]["fit_slope_tail"]),
                "multiplier_ratio": multiplier_ratio(converge),
            },
            "deformed-assembly": DeformedAssembly.reference_values(load_potential_file(potential)),
        }
        REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp.parent)


if __name__ == "__main__":
    main()
