"""Helpers shared by the workloads: statistics, memory, output."""

from __future__ import annotations

import math
import resource
import sys
from typing import Dict, Sequence

from reference import CheckFailed


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by nearest rank (``q`` = 0.75 gives p75)."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered) - 1e-9) - 1)
    return ordered[index]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def report(message: str) -> bool:
    """Print a failed check to stderr; returns False for ``correct``."""
    print(f"check failed: {message}", file=sys.stderr)
    return False


def checked(check, *args) -> bool:
    """Run one reference check; False (and a message) if it fails."""
    try:
        check(*args)
    except CheckFailed as exc:
        return report(str(exc))
    return True


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}
