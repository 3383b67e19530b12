"""Exception and warning types shared across the toolkit."""


class MatcryptError(Exception):
    """Base class for all domain errors raised by this package."""


# --- ring construction / arithmetic ---

class NonPrimeP(MatcryptError):
    pass


class ReducibleModulus(MatcryptError):
    pass


class FactorizationTooLarge(MatcryptError):
    pass


class RingMismatch(MatcryptError):
    pass


class NonUnit(MatcryptError):
    """Inversion of a zero divisor or nilpotent element."""


# --- matrices ---

class ShapeMismatch(MatcryptError):
    pass


class NonInvertible(MatcryptError):
    pass


class DegreeMismatch(MatcryptError):
    pass


class ArityMismatch(MatcryptError):
    pass


class NoSuchEmbedding(MatcryptError):
    pass


class IncompatibleDegrees(MatcryptError):
    pass


class IndexOutOfRange(MatcryptError):
    pass


# --- free words ---

class AlphabetMismatch(MatcryptError):
    pass


class DegeneratePair(MatcryptError):
    pass


class TerminalLetterViolation(MatcryptError):
    pass


# --- derivation trees / instances ---

class BudgetTooSmall(MatcryptError):
    pass


class TreeTypeError(MatcryptError):
    """Ill-typed derivation tree (arity, ring or degree constraints violated)."""


class NotInLeafGroup(MatcryptError):
    pass


class InvalidAutomorphism(MatcryptError):
    pass


class NotInGroup(MatcryptError):
    pass


class UnsupportedDecomposition(MatcryptError):
    """The tree-directed recursion cannot decompose this query exactly."""


# --- trapdoor solvers ---

class NotWreathShaped(MatcryptError):
    pass


class NotDecomposable(MatcryptError):
    pass


class UnverifiedResult(MatcryptError):
    """A solver's answer failed the check made before it is returned."""


# --- protocols ---

class BadPartyCount(MatcryptError):
    pass


class ScheduleMismatch(MatcryptError):
    pass


class KeyMismatch(MatcryptError):
    """The parties of one run derived different keys."""


# --- key generation / attacks ---

class DegenerateKey(MatcryptError):
    pass


class CapExceeded(MatcryptError):
    pass


class AttackFailure(MatcryptError):
    """No verified attack output within the sampling bound."""


class NoSolutionSpace(MatcryptError):
    pass


class BadInputFile(MatcryptError):
    """A CLI input file is not JSON, or not the kind of file its option takes."""


class InsecurityWarning(UserWarning):
    """A run produced a cryptographically worthless configuration.

    Emitted for identity keys, centralizing generator sets, fewer than two
    reachable key values, and attack preconditions that void the attack's
    success guarantee.
    """
