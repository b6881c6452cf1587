"""Row-scan and group-by kernels with a compiled fast path.

The Cython build (``_speedups``) is preferred when importable; the
pure-Python module is the behavioral reference and the fallback.
"""

from __future__ import annotations

from . import pykernels

try:
    from . import _speedups as _impl
except ImportError:
    _impl = pykernels  # type: ignore[no-redef]

scan_rows = _impl.scan_rows
group_rows = _impl.group_rows
BACKEND = _impl.BACKEND

__all__ = ["scan_rows", "group_rows", "BACKEND", "pykernels"]
