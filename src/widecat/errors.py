"""Exception taxonomy.

InputError subclasses signal malformed user input (CLI exit code 2);
BudgetExceeded maps to exit code 3; everything else is an internal
contract violation and should be treated as a bug if it ever fires on
well-formed input.
"""
from __future__ import annotations


class WidecatError(Exception):
    pass


class InputError(WidecatError):
    """Bad user input: files, presentations, field names."""


class ParseError(InputError):
    pass


class IoError(InputError):
    """Filesystem trouble while reading user-supplied input."""


class UnknownVertex(InputError):
    pass


class InconsistentRelation(InputError):
    pass


class NonAdmissible(InputError):
    """A relation term has length < 2 (not inside the arrow radical squared),
    or the terms of one relation have different lengths."""


class NotFiniteDimensional(InputError):
    """Free paths keep surviving the relations past the path-count limit."""


class CacheCorrupt(InputError):
    pass


class BudgetExceeded(WidecatError):
    """An enumeration crossed its iso-class budget."""


class AlgebraMismatch(WidecatError):
    """Modules over different algebras (or fields) were combined."""


class DecompositionFailure(WidecatError):
    """Fitting decomposition could not split nor certify indecomposability."""


class NotSupportTauRigid(WidecatError):
    pass


class NotCompatible(WidecatError):
    """Reduction argument is not compatible with the reducing object."""


class CaseDispatchError(WidecatError):
    """Internal reduction-map postcondition failed.  `e_map_key` re-raises it
    with the world, the reducing object and the summand key as its fields."""

    def __init__(self, message: str, world=None, obj=None, key=None):
        super().__init__(message)
        self.world, self.obj, self.key = world, obj, key


class NotInImage(WidecatError):
    """Inverse reduction requested for a value outside the image."""


class NotComposable(WidecatError):
    pass


class NotExceptional(WidecatError):
    pass


class InjectiveInput(WidecatError):
    """AR translate inverse of an injective (or translate of a projective) summand."""
