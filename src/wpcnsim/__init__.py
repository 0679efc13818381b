"""Deterministic simulator for drone-borne wireless recharge and readout
of battery-free hull sensors along an elliptical inspection path."""

__version__ = "0.1.0"

from wpcnsim import geometry, layout, mission, rf_link
from wpcnsim.config_io import CONFIG_KEYS, parse_config, parse_config_text, render_config
from wpcnsim.geometry import *
from wpcnsim.layout import *
from wpcnsim.mission import *
from wpcnsim.rf_link import *
from wpcnsim.sweep import *
from wpcnsim.sweep import __all__ as _sweep_all

__all__ = [
    *geometry.__all__,
    *layout.__all__,
    *mission.__all__,
    *rf_link.__all__,
    *_sweep_all,
    "CONFIG_KEYS",
    "parse_config",
    "parse_config_text",
    "render_config",
    "__version__",
]
