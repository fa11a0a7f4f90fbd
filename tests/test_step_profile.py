"""``tools/step_profile.py`` wraps the functions of the training step and
the output writers by name; one in-process profile of a workload checks
that every phase and every writer it times is still reached, and its call
counts are positive and repeat from one run to the next."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import step_profile  # noqa: E402


def test_profile_times_every_phase_of_the_step():
    per_step_us, steps, bundle_ms, outputs_ms = step_profile.profile("mmd-align", 7)
    assert steps > 0
    for phase in ("draw", "forward", "penalty", "backward", "adam", "attribution"):
        assert per_step_us[phase] > 0, phase
    assert bundle_ms is None  # mmd-align probes nothing
    assert list(outputs_ms) == ["report", "accuracy", "traces", "checkpoints"]
    assert all(ms > 0 for ms in outputs_ms.values()), outputs_ms


def test_call_counts_repeat_from_the_second_run_on():
    _, second, third = (step_profile.count_calls("mmd-align", 7) for _ in range(3))
    steps, python, c_function = second
    assert steps > 0 and python > 0 and c_function > 0
    assert second == third, (second, third)
