"""The library names the benchmark harness calls must keep resolving."""
import re
from pathlib import Path

import matderiv

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_library_names_resolve():
    names = set()
    for path in BENCH.glob("*.py"):
        names |= set(re.findall(r"\blib\.(\w+)", path.read_text()))
    assert names, f"no lib.<name> references found under {BENCH}"
    missing = sorted(n for n in names if not hasattr(matderiv, n))
    assert not missing, f"bench calls names matderiv no longer exports: {missing}"
