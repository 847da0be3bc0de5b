"""Set-up probe, run in a fresh process: the time from the start of
`import evflow` to the end of the first `evflow diff door.evl`.

Prints one JSON line: import_s, first_compose_s (the first lattice
composition, which builds the lazy tables), setup_s, the exit status
and report digest of the run, and the speed kernel's time right after.
Nothing but `sys` and `time` is imported before the clock starts.
"""

import sys
import time

start = time.perf_counter()
import evflow.cli as cli  # noqa: E402
from evflow.event_lattice import MF_EMIT, MF_REGISTER, mf_compose  # noqa: E402
imported = time.perf_counter()
mf_compose(MF_EMIT, MF_REGISTER)
composed = time.perf_counter()
status, report = cli.run(cli.RunConfig(
    [str(cli.packaged_corpus_dir() / "door.evl")], mode="diff", color=False))
end = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from evbench.gate import report_digest  # noqa: E402
from evbench.speed import kernel_s  # noqa: E402

print(json.dumps({"kernel_s": kernel_s(),
                  "import_s": imported - start,
                  "first_compose_s": composed - imported,
                  "setup_s": end - start,
                  "status": status,
                  "digest": report_digest(status, report),
                  "evflow": cli.__file__}))
