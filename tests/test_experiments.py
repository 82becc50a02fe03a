"""The experiments' plans: one plan call per run, one keyed error, one step
cap."""

import numpy as np
import pytest

from cwom import experiments
from cwom.experiments import InputError, MAX_STEPS, step_cap_problem

GAIN = dict(g0_12=1e4, v1=7e7, v2=7e7, vb=1e3, Gamma=2 * np.pi * 1e9, kappa2=0.0,
            omega1=2 * np.pi * 193.5e12, pump_power_W=1.0, n_points=128,
            target_efolds=2.5, direction=-1)
SWAP = dict(g12=0.0707, v2=2.0, vb=1.0, gamma2=0.02, gamma_b=0.03, n_points=256,
            span_decay_lengths=3.0)


@pytest.mark.parametrize("run, plan, kwargs", [
    ("run_two_branch_gain", "two_branch_gain_plan", GAIN),
    ("run_swap_profile", "swap_profile_plan", SWAP),
    ("run_forward_comb", "comb_plan", dict(n_points=32, periods=2.0)),
    ("array_convergence_study", "convergence_study_plan",
     dict(kind="link", sizes=(16, 32), T=0.05, n_ref=64)),
], ids=["gain", "swap", "comb", "array"])
def test_each_run_calls_its_plan_once(monkeypatch, run, plan, kwargs):
    calls, made = [], getattr(experiments, plan)

    def counted(*args, **kw):
        calls.append(args)
        return made(*args, **kw)

    monkeypatch.setattr(experiments, plan, counted)
    getattr(experiments, run)(**kwargs)
    assert len(calls) == 1


def test_swap_without_decay_refused_before_stepping(monkeypatch):
    # its span is decay_lengths over the mean of the two rates
    def stepper_not_reached(*args, **kwargs):
        raise AssertionError("the swap stepped")

    monkeypatch.setattr(experiments, "MultiBranchStepper", stepper_not_reached)
    with pytest.raises(InputError) as err:
        experiments.run_swap_profile(0.0707, 2.0, 1.0, 0.0, 0.0)
    assert err.value.problems == [("gamma2, gamma_b", "must not both be zero")]
    assert str(err.value) == "gamma2, gamma_b must not both be zero"


def test_input_error_keys_each_problem():
    with pytest.raises(InputError) as err:
        experiments.run_forward_comb(q_mode=0, n_orders=50)
    assert [arg for arg, _ in err.value.problems] == ["q_mode", "n_orders"]
    assert isinstance(err.value, ValueError)
    assert str(err.value).startswith("q_mode must have 1 <= |q_mode|")
    assert "; n_orders must be at most 49" in str(err.value)
    with pytest.raises(InputError) as err:
        experiments.net_gain_slope(0.0, 7e7, 7e7, 1e9, 0.0, 1e15, 1.0)
    assert err.value.problems[0][0] == "g0_12, kappa2"


def test_unkeyed_problem_reads_as_its_message():
    with pytest.raises(InputError) as err:
        experiments.swap_profile_plan(1e6, 2.0, 1.0, 0.02, 0.03)
    assert err.value.problems[0][0] is None
    assert str(err.value).startswith("the run is 1.618e+09 steps of dt = ")


@pytest.mark.parametrize("steps", [MAX_STEPS + 1.0, 1e300 * 1e300, np.nan])
def test_step_cap_refuses_counts_above_it_and_not_numbers(steps):
    problem = step_cap_problem("1.000e+00 s", steps, 0.5)
    assert problem == (f"1.000e+00 s is {steps:.3e} steps of dt = 5.000e-01 s, "
                       f"more than the cap of 1e+08 steps")


def test_step_cap_takes_counts_up_to_it():
    assert step_cap_problem("x", float(MAX_STEPS), 1.0) is None
    assert step_cap_problem("x", 1.0, 1.0) is None


def test_whole_number_sizes_are_taken_as_ints():
    sizes, *_ = experiments.convergence_study_plan("site", (16.0, 32.0), 32.0, 0.5,
                                                   0.05, 0.05, 64)
    assert sizes == (16, 32) and all(type(size) is int for size in sizes)
    with pytest.raises(InputError, match=r"^sizes must be whole numbers"):
        experiments.convergence_study_plan("site", (16.0, 32.5), 32.0, 0.5, 0.05,
                                           0.05, 64)
