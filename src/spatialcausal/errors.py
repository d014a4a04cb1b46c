"""Exception hierarchy shared by all spatialcausal modules, the one parser of
the typed values in INI files, the domain of every numeric setting, keyed by
field name, with the one check against it, and the one cap on the arrays that
generator and model settings size."""

import configparser
import math
from numbers import Integral, Real


class SpatialCausalError(Exception):
    """Base class for all package errors."""

    code = "error"


class DimensionError(SpatialCausalError):
    """Operand shapes are incompatible with the requested operation."""

    code = "dimension_error"


class NumericError(SpatialCausalError):
    """A computation produced non-finite values or an unstable factorization."""

    code = "numeric_error"


class ContractError(SpatialCausalError):
    """An argument violates a documented precondition."""

    code = "contract_error"


class DataError(SpatialCausalError):
    """A dataset is unusable (missing outcomes, empty selection, bad geometry)."""

    code = "data_error"


class FormatError(SpatialCausalError):
    """A file on disk does not match its binary or textual format."""

    code = "format_error"


class ConfigError(SpatialCausalError):
    """An experiment configuration is malformed or inconsistent."""

    code = "config_error"


class OutOfMemoryError(SpatialCausalError):
    """A command's arrays do not fit in the memory the process may map."""

    code = "memory_error"


def parse_value(kind: str, raw: str, path: str):
    """INI value ``raw`` as ``kind``: int, float, bool, intlist, floatlist (comma
    separated) or str; raises ``ConfigError`` naming ``path`` if it does not parse."""
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind == "intlist":
            return tuple(int(x) for x in raw.split(","))
        if kind == "floatlist":
            return tuple(float(x) for x in raw.split(","))
        return raw
    except (ValueError, KeyError):
        raise ConfigError(f"{path}: cannot parse {raw!r} as {kind}") from None


def _whole(low: int, odd: bool = False):
    """The domain of whole numbers >= ``low``, odd ones only if ``odd``."""
    bound = ("odd and " if odd else "") + f">= {low}"
    return True, bound, lambda v: v >= low and (not odd or v % 2 == 1)


# field -> (whole number?, the bound as messages state it, its test); a real
# must also be finite, so NaN and inf never reach the test
DOMAINS = {
    **dict.fromkeys(("seed", "split_seed", "batch_size", "patience"), _whole(0)),
    **dict.fromkeys((
        "m", "x_dim", "rows", "cols", "n_units", "mlp_width", "mlp_depth",
        "cnn_channels", "cnn_depth", "unet_base", "unet_depth", "q", "epochs",
        "grid_size", "b_draws", "in_dim", "n_draws"),
        _whole(1)),
    "x_channels": _whole(2),
    "n": _whole(3),
    "d_s": _whole(1, odd=True),
    # engine geometry: conv2d's and pad2d's padding widths, and crop2d's
    # bounds, whose range crop2d checks against the map
    "padding": _whole(0),
    "crop_bound": (True, "a whole number", lambda v: True),
    **dict.fromkeys(("lr", "sigma_l", "resolution"), (False, "> 0", lambda v: v > 0)),
    # kernel reals are squared or cubed as Python floats, which raise on overflow
    **dict.fromkeys(("sigma", "lengthscale", "field_lengthscale"),
                    (False, "in (0, 1e100]", lambda v: 0 < v <= 1e100)),
    **dict.fromkeys(("noise", "noise_sigma"), (False, ">= 0", lambda v: v >= 0)),
    "momentum": (False, "in [0, 1)", lambda v: 0 <= v < 1),
    **dict.fromkeys(("beta", "origin_x", "origin_y"), (False, "finite", lambda v: True)),
}
# the most elements one array that a generator or model config sizes may hold
# (2 GiB of float64); fixed, so a config is accepted or rejected alike on every
# machine
MAX_ELEMENTS = 2 ** 28


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:       # an int too large for a float
        return False


def check(name: str, value, error, label: str | None = None):
    """``value`` if it lies in field ``name``'s domain; else raises ``error``
    with a message that starts with ``label`` (default: ``name``).  No domain
    holds a bool or a value that is not a real number."""
    whole, bound, test = DOMAINS[name]
    if isinstance(value, bool) or not isinstance(value, Integral if whole else Real):
        bound = "a whole number" if whole else "a real number"
        value = value if isinstance(value, Real) else repr(value)
    elif not whole and not _finite(value):
        bound = "finite"
    elif test(value):
        return value
    raise error(f"{label or name}: must be {bound}, got {value}")


def check_sizes(arrays, error, prefix: str = "") -> None:
    """Raises ``error`` for the first (key, array, element count) of ``arrays``
    whose count is over ``MAX_ELEMENTS``, with a message that starts with
    ``prefix + key``."""
    for key, array, count in arrays:
        if count > MAX_ELEMENTS:
            raise error(f"{prefix}{key}: {array} would hold {count} elements, "
                        f"over the cap of {MAX_ELEMENTS}")


def check_fields(obj, error) -> None:
    """``check`` on every field of dataclass ``obj`` that has a domain."""
    for name, value in vars(obj).items():
        if name in DOMAINS:
            check(name, value, error)
