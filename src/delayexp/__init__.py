"""Fixed-delay reliability bounds and feedback coding simulators for DMCs."""

__version__ = "0.1.0"

import importlib

from .channel import (
    Channel,
    CapacityResult,
    make_dmc,
    make_bsc,
    make_bec,
    load_channel,
    capacity,
    capacity_detail,
    mutual_information,
    conditional_divergence,
    is_symmetric,
)
from .curves import (
    CurveCell,
    CurveTable,
    convert,
    crossover_rate,
    emit_csv,
    emit_plot_script,
    sweep,
)
from .errors import BadInputError, DelayexpError, DomainError
from .exponents import (
    CapacitySlopes,
    ExponentValue,
    ParametricPoint,
    achieved_exponent,
    achieved_exponent_at_rate,
    bec_feedback_exponent,
    capacity_slopes,
    e0_max,
    focusing_bound,
    gallager_e0,
    haroutunian_oracle,
    list_random_coding,
    overhead_fraction,
    random_coding,
    sphere_packing,
)

# The simulators load on first use, so the bound commands never compile them.
_LAZY = {
    "sim_anytime": ("BlockCodebook", "FlowCode", "FlowDecoder", "SchemeConfig",
                    "SchemeRunResult", "fortified_run", "synthesized_run"),
    "sim_queue": ("DelayErrorTable", "FitResult", "fit_exponent", "simulate_bec_feedback"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """Import a simulator module, or one of its public names, on first access (PEP 562)."""
    module = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})


__all__ = [
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
    "__version__",
]
