"""Exception hierarchy with machine-parsable error categories.

The CLI maps any raised ``AstmergeError`` to a single stderr line of the
form ``error:<category>: <message>`` and a nonzero exit code.
"""

from __future__ import annotations


class AstmergeError(Exception):
    """Base class for all package errors."""

    category = "internal"


class ConfigError(AstmergeError):
    """Invalid configuration or parameter value."""

    category = "config"


class ShapeError(AstmergeError):
    """Tensor/matrix shapes inconsistent with a declared contract."""

    category = "shape"


class FormatError(AstmergeError):
    """Malformed file: bad magic, bad version, truncated payload."""

    category = "format"


class AlignmentError(AstmergeError):
    """Inputs that must line up (manifest, logits, model) do not."""

    category = "alignment"


class NumericError(AstmergeError):
    """Finite inputs whose forward leaves float32's range."""

    category = "numeric"
