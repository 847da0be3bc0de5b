"""Record the reference digests the correctness gate compares against.

    python3 evbench/record_reference.py

Writes `reference.json`: the digest of `evflow diff` on the packaged
door.evl and on every `chain` and `wide` pool structure.  The digests
pin the diagnostics evflow gives at the commit that records them; run
this again only when the generators in `gen.py` change, never to make a
changed evflow pass.  Each structure is rendered with two different
surface seeds and must give the same digest.
"""

import json
import random
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR.parent)]

from evflow import cli  # noqa: E402
from evbench import gen  # noqa: E402
from evbench.gate import report_digest  # noqa: E402


def diff_digest(path: Path) -> str:
    status, report = cli.run(cli.RunConfig([str(path)], mode="diff", color=False))
    if status == cli.EXIT_ERROR:
        raise SystemExit(f"{path}: exit 2: {report.warnings}")
    return report_digest(status, report)


def main() -> None:
    reference = {"door": diff_digest(cli.packaged_corpus_dir() / "door.evl")}
    pools = {"chain": (gen.chain_program, gen.CHAIN_POOL),
             "wide": (gen.wide_program, gen.WIDE_POOL)}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for workload, (make, size) in pools.items():
            reference[workload] = {}
            for k in range(size):
                pid = f"{workload}-{k:02d}"
                digests = set()
                for surface_seed in (0, 1):
                    path = Path(tmp) / f"{pid}.evl"
                    path.write_text(make(k, random.Random(surface_seed)),
                                    encoding="utf-8")
                    digests.add(diff_digest(path))
                if len(digests) != 1:
                    raise SystemExit(f"{pid}: the surface changed the report")
                reference[workload][pid] = digests.pop()
    (BENCH_DIR / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
