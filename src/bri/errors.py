"""Exception types shared across the package.

Every error raised by the library derives from :class:`BriError` so callers
can catch one base class. Each type carries the process exit code the CLI
returns for it in ``exit_code``: 2 for a singular operand, 3 for the rest.
"""

from __future__ import annotations


class BriError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class DimensionMismatchError(BriError):
    """Operands or buffers do not have compatible orders."""


class BadPartitionError(BriError):
    """Unusable partition: k < 2, order m < 1, more than 2b padding indices at
    k >= 5 (``run_view``), or a non-positive kernel gamma or sigma (``KernelSpec``)."""


class IndexOutOfRangeError(BriError):
    """Block index outside 1..k."""


class SingularBlockError(BriError):
    """A dense factorization hit a pivot below the singularity threshold.

    ``pivot_index`` is the 1-based elimination step at which the pivot
    failed the growth-scaled test |u_ii| <= order * eps * max|A|.
    """

    exit_code = 2

    def __init__(self, pivot_index: int, order: int):
        self.pivot_index = int(pivot_index)
        self.order = order
        super().__init__(f"singular block: pivot {self.pivot_index} below threshold (order {order})")


class SingularPivotError(BriError):
    """A pivot block inside the recursive reduction was singular.

    ``path`` is the failing frame's branch path: the quadrants from the
    root frame to the failing node, the root's (A,) first, whichever frame
    the reduction started from. It replays on the run's view: follow it
    through split_frame from root_frame(k) on provider.run_view(alpha, beta).
    ``pivot_block`` is the 1-based (row, col) block of the padded input
    matrix that holds the first row and first column of the failing
    frame's anchor. Without padding that is the block the view moved there.
    """

    exit_code = 2

    def __init__(self, path: tuple, pivot_block: tuple[int, int]):
        self.path = tuple(path)
        self.pivot_block = (int(pivot_block[0]), int(pivot_block[1]))
        labels = "/".join(q.name for q in self.path)
        super().__init__(
            f"singular pivot at branch {labels} "
            f"(depth {len(self.path)}, block {self.pivot_block})"
        )


class FrameTooSmallError(BriError):
    """split_frame called on a frame with fewer than 3 block rows."""


class GaugeUnderflowError(BriError):
    """A block buffer was released more times than it was registered."""


class FormatError(BriError):
    """Matrix file does not conform to the BRIM layout."""


class MissingBlocksError(BriError):
    """Inverse sink finalized before all k*k blocks were submitted."""

    def __init__(self, missing: list[tuple[int, int]]):
        self.missing = list(missing)
        shown = ", ".join(map(str, self.missing[:8]))
        extra = "" if len(self.missing) <= 8 else f" and {len(self.missing) - 8} more"
        super().__init__(f"sink finalized with missing blocks: {shown}{extra}")


class MaterializeLimitError(BriError):
    """Guard against accidentally materializing a huge operand."""

    def __init__(self, order: int, limit: int):
        self.order = order
        self.limit = limit
        super().__init__(
            f"refusing to materialize order {order} > configured ceiling {limit}"
        )


class UsageError(BriError):
    """Bad CLI flag combination or unusable input path."""
