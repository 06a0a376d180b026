"""SLD Fisher information, attainable Cramer-Rao-type bounds, and
bound-attaining projective measurements for pure-state models."""

__version__ = "0.1.0"
