"""A test-only twin of a family: the same g, mu and growth profile, no closed form.

S of the twin runs on panels, so comparing it with the family's closed form
checks the one against the other.
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
