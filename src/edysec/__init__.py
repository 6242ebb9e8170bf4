"""Malicious-package detection over dynamic behavioral trace features:
dataset handling, preprocessing, feature selection, a from-scratch
feedforward classifier, stability statistics, explanations, and a
verdict service."""

from .errors import EdysecError

__version__ = "0.1.0"

__all__ = ["EdysecError", "__version__"]
