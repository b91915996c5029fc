"""Exception types raised across the package."""


class DimensionError(ValueError):
    """Shapes or mode counts of the inputs do not match."""


class IndexRangeError(ValueError):
    """A 1-based operator index is not an integer in [1, 2M], or a coupling entry is not canonical."""


class OffBoundaryError(ValueError):
    """A boundary-only operation was called at an interior/exterior point."""

    def __init__(self, margin, tol):
        self.margin = float(margin)
        self.tol = float(tol)
        super().__init__(
            f"point is not on the pure-state boundary: |margin| = {abs(margin):.3e} "
            f"exceeds tolerance {tol:.1e}"
        )


class DivergenceError(RuntimeError):
    """Trajectory integration failed at ``step``; ``reason`` names the cause.

    The causes are a non-finite state and a failed or non-finite margin
    eigensolve.
    """

    def __init__(self, step, reason="non-finite state"):
        self.step = int(step)
        self.reason = reason
        super().__init__(f"trajectory diverged ({reason}) at step {step}")


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
