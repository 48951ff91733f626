#!/usr/bin/env python3
"""Footprint gate: run a command and fail when its peak RSS is too large.

Usage:
  peak_rss.py --max-mib=N -- COMMAND [ARGS...]

Peak RSS is ru_maxrss of getrusage(RUSAGE_CHILDREN) after the command
exits: the largest resident set of any waited-for child, in KiB on Linux.
It is printed in MiB either way.

Exit codes: the command's own when it fails, 1 when it succeeds above the
limit, 0 otherwise, 2 on a usage error.
"""

import resource
import subprocess
import sys


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cmd = argv[:split], argv[split + 1:]
    limits = [o for o in opts if o.startswith("--max-mib=")]
    if len(limits) != 1 or len(opts) != 1 or not cmd:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        limit_mib = float(limits[0].split("=", 1)[1])
    except ValueError:
        print(f"error: bad limit {limits[0]}", file=sys.stderr)
        return 2

    status = subprocess.run(cmd).returncode
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mib:.1f} MiB (limit {limit_mib:g} MiB): "
          f"{' '.join(cmd)}")
    if status != 0:
        print(f"error: command exited with {status}", file=sys.stderr)
        return status
    if peak_mib > limit_mib:
        print(f"error: peak RSS {peak_mib:.1f} MiB is over the "
              f"{limit_mib:g} MiB limit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
