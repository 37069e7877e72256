"""The conventional IEEE 802.11 comparison baseline."""

from .conventional import ConventionalAccessPoint

__all__ = ["ConventionalAccessPoint"]
