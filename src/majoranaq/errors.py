"""Exception types raised across the package."""


class DimensionError(ValueError):
    """Shapes or mode counts of the inputs do not match."""


class IndexRangeError(ValueError):
    """A 1-based operator index lies outside [1, 2M]."""


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
    """Trajectory integration produced a non-finite state."""

    def __init__(self, step):
        self.step = int(step)
        super().__init__(f"trajectory diverged (non-finite state) at step {step}")


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
