"""Run configuration: figure defaults, key=value config files, and flag
overrides, in that precedence order."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .params import (
    BathParams,
    ParameterError,
    PhysicalConstants,
    SuperpositionSpec,
    make_superposition,
)


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def _floats(raw: str) -> tuple:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _setting(default, parse=float, key=None):
    """A RunConfig field with its config-file key (the field name unless
    given) and the parser of its raw value."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Complete resolved run configuration.

    x0_offsets are in units of sigma0, relative to the left packet center.
    temperatures and alphas are series lists for multi-panel figures.
    """

    framework: str = _setting("both", str)
    m: float = _setting(1.0)
    hbar: float = _setting(1.0)
    kB: float = _setting(1.0)
    gravity: float = _setting(-3.0)
    separation: float = _setting(50.0)
    sigma0: float = _setting(1.0)
    kick: float = _setting(0.1)
    gamma: float = _setting(0.001)
    temperatures: tuple = _setting((2.0,), _floats, "temperature")
    alphas: tuple = _setting((math.pi / 4,), _floats, "alpha")
    t_start: float = _setting(0.0)
    tmax: float = _setting(2.0)
    samples: int = _setting(201, int)
    x0_offsets: tuple = _setting((-2.0, 0.0, 2.0), _floats, "x0_offset")
    out: str = _setting(".", str)
    support_factor: float = _setting(5.0)

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if not isinstance(value, str) and not all(map(math.isfinite, values)):
                raise ConfigError("%s must be finite, got %r" % (file_key(f), value))
        if self.framework not in ("both", "schrodinger", "cl"):
            raise ConfigError("framework must be schrodinger, cl, or both")
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        if not (0.0 <= self.t_start < self.tmax):
            raise ConfigError("need 0 <= t_start < tmax")
        if self.gamma < 0.0:
            raise ConfigError("gamma must be nonnegative")
        if any(T <= 0.0 for T in self.temperatures):
            raise ConfigError("temperatures must be positive")
        if not self.temperatures or not self.alphas:
            raise ConfigError("temperature and alpha lists must be nonempty")
        if self.support_factor <= 0.0:
            raise ConfigError("support factor must be positive")
        try:
            self.constants()
            self.superposition(self.alphas[0])
            for T in self.temperatures:
                self.bath(T)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(m=self.m, hbar=self.hbar, kB=self.kB, g=self.gravity)

    def superposition(self, alpha: float) -> SuperpositionSpec:
        return make_superposition(
            L=self.separation, sigma0=self.sigma0, k=self.kick, alpha=alpha, hbar=self.hbar
        )

    def bath(self, T: float | None = None) -> BathParams:
        return BathParams(
            gamma=self.gamma,
            T=self.temperatures[0] if T is None else T,
            constants=self.constants(),
        )

    def header_lines(self) -> list:
        """'#'-prefixed echo of the resolved configuration, loadable as a
        config file after stripping the comment markers.  The output
        directory is omitted so identical physics gives identical bytes."""
        lines = []
        for key, value in sorted(self.as_file_dict().items()):
            if key == "out":
                continue
            lines.append("# %s=%s" % (key, value))
        return lines

    def as_file_dict(self) -> dict:
        def fmt(v):
            if isinstance(v, tuple):
                return ",".join(repr(float(x)) for x in v)
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return {file_key(f): fmt(getattr(self, f.name)) for f in fields(self)}


def file_key(f) -> str:
    """Config-file key of a RunConfig field; command-line flags use it as
    their argparse destination."""
    return f.metadata["key"] or f.name


_FIELD_BY_KEY = {file_key(f): f for f in fields(RunConfig)}


FIGURE_DEFAULTS = {
    "fig1": RunConfig(
        gamma=0.1,
        temperatures=(10.0,),
        alphas=(0.0,),
        x0_offsets=(-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0),
    ),
    "fig2": RunConfig(
        gamma=0.001,
        temperatures=(2.0,),
        alphas=(math.pi / 4,),
        x0_offsets=(-2.0, 0.0, 2.0),
    ),
    "fig3": RunConfig(
        gamma=0.001,
        temperatures=(2.0, 5.0),
        alphas=(0.0, math.pi / 4, math.pi / 2, math.pi),
    ),
    "fig4": RunConfig(
        gamma=0.005,
        temperatures=(2.0, 5.0, 15.0),
        alphas=(0.0, math.pi / 2),
    ),
}

def _convert(key: str, raw: str):
    f = _FIELD_BY_KEY[key]
    try:
        return f.name, f.metadata["parse"](raw)
    except ValueError as exc:
        raise ConfigError("bad value %r for key %r" % (raw, key)) from exc


def _uncomment(line: str) -> str | None:
    """CSV headers echo the config as '# key=value'; accept those as
    assignments, treat every other '#' line as a plain comment."""
    body = line.lstrip()[1:].strip()
    if "=" in body and body.split("=", 1)[0].strip() in _FIELD_BY_KEY:
        return body
    return None


def parse_config_text(text: str) -> dict:
    """key=value lines with '#' comments; returns a field-name -> value dict."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = _uncomment(stripped)
            if body is None:
                continue
        else:
            body = stripped.split("#", 1)[0].strip()
        if "=" not in body:
            raise ConfigError("line %d: expected key=value, got %r" % (lineno, line))
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_BY_KEY:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        name, value = _convert(key, raw)
        updates[name] = value
    return updates


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from exc
    return parse_config_text(text)


def resolve_config(figure: str | None, file_updates: dict, flag_updates: dict) -> RunConfig:
    """defaults < config file < flags."""
    base = FIGURE_DEFAULTS.get(figure, RunConfig()) if figure else RunConfig()
    valid = {f.name for f in fields(RunConfig)}
    for source in (file_updates, flag_updates):
        unknown = set(source) - valid
        if unknown:
            raise ConfigError("unknown config fields: %s" % ", ".join(sorted(unknown)))
    cfg = replace(base, **{**file_updates, **flag_updates})
    return cfg.validate()
