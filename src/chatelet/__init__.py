"""Hilbert symbols over Q, Chatelet surfaces that fail the Hasse
principle via the Brauer-Manin obstruction, and Chatelet-surface bundles
with exactly one pointless rational fiber."""

__version__ = "0.1.0"
