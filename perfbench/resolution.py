#!/usr/bin/env python3
"""Resolution check: is one tree's ``fig8-cold`` slower than another's?

Runs ``run.py --workload fig8-cold`` on two checkouts in alternating
pairs (which side goes first alternates) and applies the benchmark's rule
for a claimed difference: the slower side must lose at least nine tenths
of the pairs, and the medians must differ by more than the distance
between the base side's own quartiles.  Otherwise the difference is
reported as unresolved.  Example, from the repository root::

    git archive 3cca513 | tar -x -C ../old
    python3 perfbench/resolution.py --base ../old --head . --pairs 10
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR_NAME, ROOT, quartiles  # noqa: E402

METRIC = "op_p50_ms"


def one_run(tree: Path, seed: int, seconds: float) -> float:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "fig8-cold",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--tree", str(tree)],
        capture_output=True, text=True, check=False,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"fig8-cold failed on {tree}: {out.stdout[-2000:]}")
    return result["metrics"][METRIC]["value"]


def verdict(base: list[float], head: list[float]) -> dict:
    """Compare two equally long series of paired runs."""
    bq, hq = quartiles(base), quartiles(head)
    head_slower = sum(h > b for b, h in zip(base, head))
    head_faster = sum(h < b for b, h in zip(base, head))
    diff = hq[1] - bq[1]
    spread = bq[2] - bq[0]
    wins = head_slower if diff > 0 else head_faster
    resolved = wins >= 0.9 * len(base) and abs(diff) > spread
    return {
        "pairs": len(base),
        "base": {"median": bq[1], "q1": bq[0], "q3": bq[2]},
        "head": {"median": hq[1], "q1": hq[0], "q3": hq[2]},
        "head_minus_base": diff,
        "head_minus_base_share": diff / bq[1],
        "pairs_head_slower": head_slower,
        "pairs_head_faster": head_faster,
        "base_spread": spread,
        "resolved": resolved,
        "summary": (
            f"head is {'slower' if diff > 0 else 'faster'} by {abs(diff) / bq[1]:.1%} "
            f"({'resolved' if resolved else 'unresolved'}: {wins}/{len(base)} pairs, "
            f"median difference {abs(diff):.0f} ms vs spread {spread:.0f} ms)"
        ),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="checkout of the earlier commit")
    p.add_argument("--head", required=True, help="checkout of the later commit")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    base_tree, head_tree = Path(args.base).resolve(), Path(args.head).resolve()
    base, head = [], []
    for i in range(args.pairs):
        order = [("base", base_tree), ("head", head_tree)]
        if i % 2:
            order.reverse()
        for side, tree in order:
            value = one_run(tree, i, args.seconds)
            (base if side == "base" else head).append(value)
            print(f"pair {i} {side}: {METRIC} {value:.1f}", flush=True)
    result = verdict(base, head)
    result["base_runs"], result["head_runs"] = base, head
    out_dir = ROOT / OUT_DIR_NAME
    out_dir.mkdir(exist_ok=True)
    (out_dir / "resolution.json").write_text(json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
