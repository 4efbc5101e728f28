"""A deterministic clock for tests of timestamped telemetry."""


class StepClock:
    """Reads 0, then advances by ``step`` per reading."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t
