"""Pseudospectral laboratory for higher-order generalized KdV equations."""

__version__ = "0.1.0"
