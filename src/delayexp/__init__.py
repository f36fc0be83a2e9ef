"""Fixed-delay reliability bounds and feedback coding simulators for DMCs."""

__version__ = "0.1.0"

import importlib

# Every public name, under the module that defines it. A name loads its module
# on first use (PEP 562), so `import delayexp` imports neither a submodule nor numpy.
_PUBLIC = {
    "channel": ("CapacityResult", "Channel", "capacity", "capacity_detail",
                "conditional_divergence", "is_symmetric", "load_channel", "make_bec", "make_bsc",
                "make_dmc", "mutual_information"),
    "curves": ("CurveCell", "CurveTable", "convert", "crossover_rate", "emit_csv",
               "emit_plot_script", "sweep"),
    "errors": ("BadInputError", "DelayexpError", "DomainError"),
    "exponents": ("CapacitySlopes", "ExponentValue", "ParametricPoint", "achieved_exponent",
                  "achieved_exponent_at_rate", "bec_feedback_exponent", "capacity_slopes",
                  "e0_max", "focusing_bound", "gallager_e0", "haroutunian_oracle",
                  "list_random_coding", "overhead_fraction", "random_coding", "sphere_packing"),
    "sim_anytime": ("BlockCodebook", "FlowCode", "FlowDecoder", "SchemeConfig",
                    "SchemeRunResult", "fortified_run", "synthesized_run"),
    "sim_queue": ("DelayErrorTable", "FitResult", "fit_exponent", "simulate_bec_feedback"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import a module of the table, or one of its public names, on first access."""
    module = name if name in _PUBLIC else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_PUBLIC, *_HOME})
