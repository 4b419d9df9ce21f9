"""Exception hierarchy for the nulldist package."""


class NullDistError(Exception):
    """Base class for all package errors."""


class OutOfDomain(NullDistError):
    """An event lies outside the spacetime's domain or inside an excision."""


class ZeroVector(NullDistError):
    """Tangent vector has all components below tolerance."""


class NotCausal(NullDistError):
    """A causal vector was required but a spacelike one was supplied."""


class UnknownName(NullDistError):
    """Unknown built-in spacetime name."""


class NonPositiveConformalFactor(NullDistError):
    """Conformal factor must be strictly positive."""


class CyclicGraph(NullDistError):
    """Directed causal grid contains a cycle (broken stencil)."""


class NoCausalPairs(NullDistError):
    """No directed pairs found in the requested region."""


class EmptyGrid(NullDistError):
    """Box/domain intersection contains no lattice nodes."""


class ExcisionSwallowsBox(NullDistError):
    """Every lattice node in the box was removed by excisions."""


class GridTooLarge(NullDistError):
    """Lattice would exceed the node-count guardrail."""


class NoCausalEdges(NullDistError):
    """No future-causal edge survives between the kept lattice nodes."""


class NonFiniteValue(NullDistError):
    """Metric, time function or geodesic state evaluated to NaN or inf."""


class NotATimeFunction(NullDistError):
    """The time function fails to rise strictly along a future-causal edge."""


class NodeNotInGrid(NullDistError):
    """Coordinates do not snap to a kept lattice node."""


class Disconnected(NullDistError):
    """No path between the requested nodes in the undirected support graph;
    the message names the size of the source's component."""


class SamePoint(NullDistError):
    """Both ends of a null-distance query are the same lattice node."""


class InvalidSegment(NullDistError):
    """A curve segment is spacelike at its midpoint."""


class NoConvergence(NullDistError):
    """Iterative solver failed to converge."""


class OnAxisDegenerate(NullDistError):
    """Query point lies on the chart axis where the radial direction is undefined."""


class LeftDomain(NullDistError):
    """Geodesic left the spacetime domain.

    Carries ``s_exit``, the affine parameter at which the domain test failed.
    """

    def __init__(self, s_exit: float):
        super().__init__(f"geodesic left the domain near parameter s={s_exit:g}")
        self.s_exit = s_exit


class StepTooLarge(NullDistError):
    """Integrator constraint monitor tripped; reduce the step size."""


class MapLeavesGrid(NullDistError):
    """Point map sends a sampled node outside the target grid."""


class BallExitsGrid(NullDistError):
    """Metric ball boundary not bracketed inside the grid box."""


class SingularJacobian(NullDistError):
    """Finite-difference Jacobian of the point map is singular."""


class NonPositivePhi(NullDistError):
    """Conformal factor sample is not strictly positive."""


class SceneError(NullDistError):
    """Scene file failed validation."""
