"""Typed exceptions raised by the library.

Everything derives from SweepDepthError so callers can catch the whole
family with one clause. The CLI maps these to exit code 1 with the
message on stderr.
"""


class SweepDepthError(Exception):
    """Base class for all sweepdepth errors."""


class NonPositiveDepth(SweepDepthError):
    """A depth value was zero, negative, NaN or infinite where positive depth is required."""


class NonFiniteDepth(SweepDepthError):
    """A depth map holds NaN or infinity where finite values are required."""


class ShapeMismatch(SweepDepthError):
    """Two arrays that must share a shape do not."""


class InvalidRange(SweepDepthError):
    """A depth range or plane set is empty, inverted, non-positive, infinite or of unknown spacing."""


class InvalidParameter(SweepDepthError, ValueError):
    """A camera, pose, or augmentation parameter is outside its valid domain."""


class HomographyOverflow(InvalidParameter):
    """A camera that passed Intrinsics gives a plane homography with an entry float64 cannot hold."""


class NothingInView(SweepDepthError):
    """A command's warps put no target pixel inside any source image: its output would say nothing."""


class VolumeTooLarge(SweepDepthError):
    """A cost volume or plane set would exceed the cell budget (costvolume.MAX_VOLUME_CELLS)."""


class EmptySources(SweepDepthError):
    """A cost volume or a reprojection loss was requested with no source views."""


class EmptyBatch(SweepDepthError):
    """An adaptive-range update was requested with an empty batch."""


class FrozenState(SweepDepthError):
    """An adaptive-range update was requested on a frozen state."""


class UnknownExtractor(SweepDepthError):
    """The requested feature extractor kind does not exist."""


class EmptyValidSet(SweepDepthError):
    """No valid pixels remain for an evaluation operation."""


class TooSmall(SweepDepthError):
    """The input is too small for the requested crop scheme."""


class DegenerateRay(SweepDepthError):
    """A camera ray does not hit any scene element at positive depth."""


class MalformedHeader(SweepDepthError):
    """An image or dump file header could not be parsed."""


class TruncatedPayload(SweepDepthError):
    """An image or dump file ends before its payload is complete."""


class UnsupportedMaxval(SweepDepthError):
    """A netpbm file declares a maxval other than 255."""
