"""Visibility-based binary hypothesis testing for two-port
photon-counting interference, with and without a shared phase
reference."""

__version__ = "0.1.0"
