"""The A/B timing tool, on one call in this tree."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("verify_ab", ROOT / "tools" / "verify_ab.py")
verify_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(verify_ab)


def test_run_reads_the_childs_time_and_peak_rss(tmp_path):
    ms, peak_mb, code, out = verify_ab.run(ROOT, tmp_path, ["zsets", "--k", "2", "--lambda", "1"])
    assert code == 0 and out.startswith(b"{")
    assert math.isfinite(ms) and ms > 0
    assert math.isfinite(peak_mb) and peak_mb > 0
