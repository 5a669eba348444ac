"""The benchmark record of tools/bench_record.py."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("fit_mix", "classical", "code_lines")


def _record(out: Path, tag: str, seed: int) -> dict:
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), "--tag", tag,
                    "--seed", str(seed), "--out", str(out)],
                   cwd=ROOT, check=True, capture_output=True, timeout=600)
    return json.loads((out / f"BENCH_{tag}.json").read_text(encoding="utf-8"))


def test_two_records_at_one_seed_have_the_same_counts(tmp_path):
    first, second = _record(tmp_path, "first", 2), _record(tmp_path, "second", 2)
    assert set(first) == {"tag", "seed", "environment", *COUNTS}
    assert (first["tag"], second["tag"], first["seed"]) == ("first", "second", 2)
    assert all(first[key] == second[key] for key in COUNTS)
    # the fields are filled: every fit-mix item, every classical count and
    # every module of the package
    items = first["fit_mix"]["items"]
    assert items["total"]["fits"] == sum(t["fits"] for k, t in items.items() if k != "total")
    assert items["total"]["kernel"] > 0 and first["classical"]["kernel"] > 0
    modules = {p.relative_to(ROOT / "src").as_posix() for p in (ROOT / "src").rglob("*.py")}
    assert set(first["code_lines"]) == modules | {"total"}
