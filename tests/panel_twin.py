"""Test-only twins of a family.

PanelTwin: the same g, mu and growth profile, no closed form.  S of the twin
runs on panels, so comparing it with the family's closed form checks the one
against the other.

WindowTwin: the same g, mu, closed forms of S, jumps, horizon and trace class,
but no growth profile.  classify then decides the liminf and ratio criteria on
dyadic tail windows, as it does for staircases, and estimates the indices, so
the window path runs on families whose limits are known.

BranchTwin: a WindowTwin with a given trace class, so that a sample without a
tail model, whose branch of S is otherwise undecided, reaches the windows.
"""

from dataclasses import dataclass

from singtrace.functions import EigenvalueFunction, Family


@dataclass(frozen=True)
class PanelTwin(Family):
    inner: Family

    def g(self, t):
        return self.inner.g(t)

    def mu(self, x):
        return self.inner.mu(x)

    @property
    def profile(self):
        return self.inner.profile


def panel_twin(mu):
    """The profile mu, with S read through panels."""
    return EigenvalueFunction(PanelTwin(mu.family), mu.a, mu.b)


@dataclass(frozen=True)
class WindowTwin(Family):
    inner: Family

    profile = None

    def g(self, t):
        return self.inner.g(t)

    def mu(self, x):
        return self.inner.mu(x)

    def log_S_up(self, s):
        return self.inner.log_S_up(s)

    def log_S_down(self, s):
        return self.inner.log_S_down(s)

    def edges_x(self):
        return self.inner.edges_x()

    def knots_t(self):
        return self.inner.knots_t()

    @property
    def piecewise_constant(self):
        return self.inner.piecewise_constant

    @property
    def finite_rank(self):
        return self.inner.finite_rank

    @property
    def horizon_t(self):
        return self.inner.horizon_t

    @property
    def trace_class(self):
        return self.inner.trace_class

    @property
    def trace_basis(self):
        return self.inner.trace_basis


def window_twin(fn):
    """The profile or g view fn, as the same view, without its growth profile."""
    return type(fn)(WindowTwin(fn.family), fn.a, fn.b)


@dataclass(frozen=True)
class BranchTwin(WindowTwin):
    integrable: bool = False

    @property
    def trace_class(self):
        return self.integrable


def branch_twin(fn, integrable):
    """The window twin of fn, integrable or not as given."""
    return type(fn)(BranchTwin(fn.family, integrable), fn.a, fn.b)
