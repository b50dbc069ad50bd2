"""Exception types shared across the package."""


class LatticeError(ValueError):
    """Invalid lattice geometry or out-of-range site index."""


class PartitionError(ValueError):
    """Probe/ancilla partition violates a freezing condition or cannot be built."""


class CouplingError(ValueError):
    """Invalid coupling map or disorder generation failure."""


class EvolutionError(ValueError):
    """Evolution engine misuse (generator not a TransverseFieldOperator, dimension mismatch)."""


class SensingError(ValueError):
    """Degenerate or out-of-domain metrology input."""


class BoundError(ValueError):
    """Gap or bound evaluation received invalid inputs."""


class FragmentError(ValueError):
    """Flip masks handed to the fragment census (or read off an operator) mix domain-wall sectors."""


class ConfigError(ValueError):
    """Malformed run configuration; message lists every problem found."""
