#!/usr/bin/env python3
"""Generate and archive the 0-Hecke dual-basis support reports.

For each n the trace-dual center basis is solved exactly, and each dual
element is checked for support inside the complements of its class members.
The per-class findings land in reports/hecke_center_support_n<k>.json.
"""

import argparse
import json
from pathlib import Path

from mobius_centers.centers import conjecture_report_to_json, verify_hn_conjecture


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--reports-dir", type=Path,
                        default=Path(__file__).resolve().parent.parent / "reports")
    args = parser.parse_args(argv)

    args.reports_dir.mkdir(exist_ok=True)
    for n in range(2, args.max_n + 1):
        report = verify_hn_conjecture(n)
        payload = conjecture_report_to_json(report)
        target = args.reports_dir / f"hecke_center_support_n{n}.json"
        target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        holds = sum(1 for f in report.classes if f.support_in_complements)
        print(
            f"n={n}: {holds}/{len(report.classes)} classes supported on complements, "
            f"unique complement per crossing number: "
            f"{report.unique_complement_per_crossing_number}  -> {target}"
        )


if __name__ == "__main__":
    main()
