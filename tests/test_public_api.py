"""The package's public names, pinned.

Adding or removing a public name changes this list, so every change to the
surface shows up in the diff of a test.
"""

import os
import subprocess
import sys

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


def test_import_loads_no_submodule_and_names_resolve_to_their_homes():
    # A fresh `import delayexp` loads neither a submodule nor numpy; each name
    # then loads the module that defines it and is that module's object.
    script = (
        "import sys\n"
        "import delayexp\n"
        "print(sorted(m for m in sys.modules if m.startswith('delayexp.') or m == 'numpy'))\n"
        "for name in delayexp.__all__:\n"
        "    value = getattr(delayexp, name)\n"
        "    home = sys.modules[getattr(value, '__module__', 'delayexp')]\n"
        "    assert getattr(home, name) is value, name\n"
        "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "ok"]
