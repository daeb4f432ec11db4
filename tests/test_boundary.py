"""The view contract of the public API.

Every public function that takes a decay profile accepts it as a profile
(mu view) or as its logarithmic coordinate (g view), with the same result,
and rejects anything else with the one TypeError of g_transform/g_inverse.
"""

import numpy as np
import pytest

from singtrace import (
    S,
    branch_of,
    classify,
    construct_dominator,
    construct_vanisher,
    dichotomy,
    dilate,
    face_axioms_check,
    g_inverse,
    g_transform,
    in_kernel,
    in_principal_ideal,
    is_regular,
    is_trace_class,
    linear_bound_witness,
    log_S,
    matuszewska,
    mu_mass,
    mu_over_S,
    pointwise_min,
    power_log,
    regular_domination,
    s_ratio,
    shift,
    step_mu,
    traceable_by_indices,
    traceable_by_liminf,
    traceable_by_ratio,
    verify_linear_bound,
)
from singtrace.ingest import family_to_dict
from singtrace.integral import log_S_grid

A = power_log(p=2.0)  # trace class, regular with index 1/2: not singularly traceable
B = power_log(p=1.0)  # regular with index 1

# each call takes the profile under test, A or B, and fills every other argument
CALLS_ON_A = {
    "classify": classify,
    "traceable_by_indices": traceable_by_indices,
    "traceable_by_liminf": traceable_by_liminf,
    "traceable_by_ratio": traceable_by_ratio,
    "matuszewska": matuszewska,
    "is_regular": is_regular,
    "linear_bound_witness": lambda f: linear_bound_witness(f, 0.5),
    "verify_linear_bound": lambda f: verify_linear_bound(f, linear_bound_witness(A, 0.5)),
    "in_principal_ideal(f, B)": lambda f: in_principal_ideal(f, B),
    "in_kernel(f, B)": lambda f: in_kernel(f, B),
    "regular_domination(f, B)": lambda f: regular_domination(f, B),
    "face_axioms_check": lambda f: face_axioms_check([f, B]),
    "construct_vanisher": lambda f: construct_vanisher(f, 5),
    "construct_dominator": lambda f: construct_dominator(f, 5),
    "dichotomy(f, B)": lambda f: dichotomy(f, B),
    "family_to_dict": family_to_dict,
    "pointwise_min(f, B)": lambda f: pointwise_min(f, B),
}
CALLS_ON_B = {
    "in_principal_ideal(A, f)": lambda f: in_principal_ideal(A, f),
    "in_kernel(A, f)": lambda f: in_kernel(A, f),
    "regular_domination(A, f)": lambda f: regular_domination(A, f),
    "dichotomy(A, f)": lambda f: dichotomy(A, f),
    "pointwise_min(A, f)": lambda f: pointwise_min(A, f),
}
# every public function of the integral module, on a closed-form and a step profile
INTEGRAL_CALLS = {
    "is_trace_class": is_trace_class,
    "branch_of": branch_of,
    "log_S": lambda f: log_S(f, 0.5),
    "log_S_grid": lambda f: log_S_grid(f, np.array([-1.0, 0.0, 0.5])),
    "S": lambda f: S(f, 1.5),
    "s_ratio": lambda f: s_ratio(f, 2.0, 0.7),
    "mu_over_S": lambda f: mu_over_S(f, 0.7),
    "mu_mass": lambda f: mu_mass(f, 0.5, 2.0),
}
CASES = [(name, call, A) for name, call in CALLS_ON_A.items()]
CASES += [(name, call, B) for name, call in CALLS_ON_B.items()]
CASES += [(name, call, mu) for name, call in INTEGRAL_CALLS.items()
          for mu in (A, step_mu([0.0, 1.0, 3.0], [2.0, 1.0]))]
IDS = [f"{name}-{type(mu.family).__name__}" for name, _, mu in CASES]
NON_VIEWS = [3, A.family]


def test_coercion_returns_a_same_view_argument_as_is():
    g = g_transform(A)
    assert g_transform(g) is g and g_inverse(A) is A
    assert g_inverse(g) == A and (g.family, g.a, g.b) == (A.family, A.a, A.b)


@pytest.mark.parametrize("name, call, mu", CASES, ids=IDS)
def test_either_view_gives_the_same_result(name, call, mu):
    assert repr(call(g_transform(mu))) == repr(call(mu))


@pytest.mark.parametrize("name, call, mu", CASES, ids=IDS)
@pytest.mark.parametrize("bad", NON_VIEWS, ids=["int", "family"])
def test_a_non_view_raises_the_one_type_error(name, call, mu, bad):
    with pytest.raises(TypeError, match="expected a profile or its g view"):
        call(bad)


# the group actions keep the view they are given
ACTIONS = {"dilate": lambda f: dilate(f, 2.0), "shift": lambda f: shift(f, 1.0, 0.5)}


@pytest.mark.parametrize("action", ACTIONS.values(), ids=ACTIONS.keys())
def test_group_actions_keep_the_view_and_its_shift(action):
    g = g_transform(A)
    mu_out, g_out = action(A), action(g)
    assert type(mu_out) is type(A) and type(g_out) is type(g)
    assert (mu_out.family, mu_out.a, mu_out.b) == (g_out.family, g_out.a, g_out.b)


@pytest.mark.parametrize("action", ACTIONS.values(), ids=ACTIONS.keys())
@pytest.mark.parametrize("bad", NON_VIEWS, ids=["int", "family"])
def test_group_actions_reject_a_non_view_with_the_one_type_error(action, bad):
    with pytest.raises(TypeError, match="expected a profile or its g view"):
        action(bad)
