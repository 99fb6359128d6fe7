"""Exception types shared across the pipeline."""


class HypnopipeError(Exception):
    """Base class for all pipeline errors."""


class MissingChannel(HypnopipeError):
    def __init__(self, role):
        self.role = role
        super().__init__(f"required channel missing: {role}")


class MissingBlob(HypnopipeError):
    def __init__(self, key, blob):
        self.key = key
        super().__init__(f"{key}: blob {blob} missing")


class CorruptHeader(HypnopipeError):
    pass


class LengthMismatch(HypnopipeError):
    pass


class InvalidSpec(HypnopipeError):
    pass


class EmptyFile(HypnopipeError):
    pass


class SignalTooShort(HypnopipeError):
    pass


class UnsupportedRate(HypnopipeError):
    pass


class DegenerateSegment(HypnopipeError):
    pass


class AllDegenerate(HypnopipeError):
    pass


class SingularCovariance(HypnopipeError):
    pass


class EmptySignal(HypnopipeError):
    pass


class NonpositiveP95(HypnopipeError):
    pass


class ShapeMismatch(HypnopipeError):
    pass


class InvalidValues(HypnopipeError):
    """Numbers that parse but are unusable: non-finite, out of range, or
    probability rows that do not sum to 1."""


class DatasetTooSmall(HypnopipeError):
    pass


class NaNGradient(HypnopipeError):
    pass


class IncompatibleResolution(HypnopipeError):
    pass


class ZeroTotalWeight(HypnopipeError):
    pass


class SingleClass(HypnopipeError):
    pass


class TooFewSamples(HypnopipeError):
    pass


class CholeskyFailure(HypnopipeError):
    pass


class DimensionMismatch(HypnopipeError):
    pass
