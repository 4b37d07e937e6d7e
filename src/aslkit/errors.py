"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class CapExceeded(ToolkitError):
    """A closure, order, or enumeration cap was exceeded."""


class MalformedCycle(ToolkitError):
    """Bad cycle syntax or a repeated/out-of-range point."""


class NotAnAction(ToolkitError):
    """Supplied map violates the group-action laws."""


class NotAutomorphisms(ToolkitError):
    """Supplied action is not by automorphisms."""


class NotNormal(ToolkitError):
    """Subgroup is not normal in its parent."""


class NotSurjective(ToolkitError):
    """Homomorphism required to be surjective is not."""


class NotInvariant(ToolkitError):
    """Subgroup is not invariant under the given action."""


class NotInvertible(ToolkitError):
    """Matrix is not invertible over its ring."""


class NotSimpleFactor(ToolkitError):
    """A factor claimed to be nonabelian simple is not."""


class DecompositionFailed(ToolkitError):
    """A guaranteed product decomposition could not be verified (internal bug)."""


class PropositionViolated(ToolkitError):
    """A proven statement failed on concrete data (internal bug)."""


class TooManyClasses(ToolkitError):
    """Conjugacy class count exceeds the configured enumeration cap."""


class TrivialGroup(ToolkitError):
    """Operation undefined on the trivial group."""


class DimensionTooLarge(ToolkitError):
    """Vector-space enumeration cap exceeded."""


class SearchFailed(ToolkitError):
    """No filtration satisfies the requested conditions."""


class GroupSpecError(ToolkitError):
    """Syntax error in the group-spec mini-language, with position info."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class NotAFieldElement(GroupSpecError):
    """An integer given for an element of F q, q = p^e with e > 1, outside
    0..q-1: there an integer names an element only through its base-p
    digits, and reducing it mod q is no field map."""


class UnknownConstructor(GroupSpecError):
    """Group-spec names a constructor that does not exist."""


class MalformedCycleInSpec(MalformedCycle, GroupSpecError):
    """A malformed cycle written in a group spec: a syntax error with its
    position, and still a MalformedCycle."""
