"""Exception types shared across the library."""

from __future__ import annotations


class RBGroupsError(Exception):
    """Base class for all library-specific errors."""


class NotLatinSquare(RBGroupsError):
    """A multiplication table row or column is not a permutation."""


class NoIdentity(RBGroupsError):
    """A multiplication table has no two-sided identity element."""


class NotAssociative(RBGroupsError):
    """A multiplication table violates associativity; names the triple."""


class OrderCapExceeded(RBGroupsError):
    """A group to build is above `groups.order_cap()`, or a group given to
    brute force is above `enumeration.DEFAULT_BRUTE_CAP`."""


class ActionNotHomomorphism(RBGroupsError):
    """A semidirect-product action is not a homomorphism into Aut(H)."""


class NotNormal(RBGroupsError):
    """A quotient was requested by a non-normal subgroup."""


class InvalidInput(RBGroupsError):
    """Caller-supplied data violates a documented precondition."""


class NotExactFactorization(RBGroupsError):
    """The given subgroup pair does not factor the group exactly."""


class DecompositionNotUnique(RBGroupsError):
    """A multi-factor decomposition is not unique or does not cover the group."""


class CommutationFails(RBGroupsError):
    """A required elementwise commutation hypothesis fails; names a witness."""


class ImageNotAbelian(RBGroupsError):
    """A map expected to land in an abelian subgroup does not."""


class NotHomomorphism(RBGroupsError):
    """A map expected to be a (anti)homomorphism is not one."""


class InvalidMatrix(RBGroupsError):
    """An exponent matrix violates the admissibility conditions."""


class TrivialH(RBGroupsError):
    """A witness construction needs a nontrivial first factor."""


class PreconditionFailed(RBGroupsError):
    """A construction variant's structural precondition does not hold."""


class CondFails(RBGroupsError):
    """The compatibility condition fails, so the quotient group is undefined."""


class StructureViolation(RBGroupsError):
    """An internal consistency assertion failed; indicates a library bug."""


class SchemaViolation(RBGroupsError):
    """A JSON document does not match its schema; carries a pointer path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path
        self.message = message
