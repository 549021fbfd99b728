"""Entry point of the serving benchmark.

Run from the root of a source checkout::

    python3 servebench/run.py --workload soi-cold --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``servebench-record {...}``) holds the input fingerprints, the
environment stamp and the diagnostics.  The program under test is
imported from the checkout's ``src`` directory, never from an installed
copy; without it the run exits with code 2 and prints no result.

Worker processes are started with ``spawn`` and re-import this file, so
everything below runs under the ``__main__`` guard and the module itself
imports nothing but the standard library.
"""

from __future__ import annotations

import argparse
import atexit
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="soi-cold, describe-cold or zipf-repeat")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run (split between the "
                             "closed and the open loop)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--out", type=Path, default=Path(".servebench"),
                        help="directory for records.jsonl and span dumps "
                             "(default: .servebench)")
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    Shared memory and the pool's queues start that helper process, which
    otherwise exits only some time after this process has, on its own.
    Registered with ``atexit`` before ``multiprocessing`` is imported, it
    runs after multiprocessing's own exit handler has joined the workers
    and released what they registered, so nothing starts a new tracker.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    atexit.register(stop_resource_tracker)
    # A terminated run unwinds like a failed one: the servers are closed
    # in their ``finally`` blocks and the tracker is stopped at exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench import runner

    return runner.run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
