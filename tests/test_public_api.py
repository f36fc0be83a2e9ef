"""The package's public names, pinned.

Adding or removing a public name changes this list, so every change to the
surface shows up in the diff of a test.
"""

import delayexp

PUBLIC_NAMES = [
    "BadInputError",
    "BlockCodebook",
    "CapacityResult",
    "CapacitySlopes",
    "Channel",
    "CurveCell",
    "CurveTable",
    "DelayErrorTable",
    "DelayexpError",
    "DomainError",
    "ExponentValue",
    "FitResult",
    "FlowCode",
    "FlowDecoder",
    "FlowMessage",
    "ParametricPoint",
    "SchemeConfig",
    "SchemeRunResult",
    "__version__",
    "achieved_exponent",
    "achieved_exponent_at_rate",
    "bec_feedback_exponent",
    "capacity",
    "capacity_detail",
    "capacity_slopes",
    "conditional_divergence",
    "convert",
    "crossover_rate",
    "e0_max",
    "emit_csv",
    "emit_plot_script",
    "fit_exponent",
    "focusing_bound",
    "fortified_run",
    "gallager_e0",
    "haroutunian_oracle",
    "is_symmetric",
    "list_random_coding",
    "load_channel",
    "make_bec",
    "make_bsc",
    "make_dmc",
    "mutual_information",
    "overhead_fraction",
    "random_coding",
    "simulate_bec_feedback",
    "sphere_packing",
    "sweep",
    "synthesized_run",
]


def test_all_is_the_pinned_list():
    assert sorted(delayexp.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in delayexp.__all__:
        getattr(delayexp, name)
