"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed user input: descriptors, labels, shapes, CLI arguments."""


class ConstructionError(RuntimeError):
    """A matrix family cannot be built, e.g. a vanishing Plucker denominator."""


class ReductionError(RuntimeError):
    """Boundary elimination is singular for the requested parameter."""


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its trial budget."""


class StructuralError(RuntimeError):
    """An internal cross-check failed: A.B = I, Z built two ways, or the
    slot positions derived two ways.  On a sampled point it indicates a bug;
    a point whose Plucker coordinates are overridden by hand can trigger
    the first two."""
