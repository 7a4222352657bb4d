"""Flat key-value configuration files for scan runs.

Format: INI-like sections, one section per run.  Values are arithmetic
expressions over numbers and `pi` (e.g. `pi/3`, `2*pi`), or inclusive
ranges `start:stop:step` of such expressions.  Unknown keys are errors;
diagnostics carry file line numbers.

    [demo]
    theta = pi/3
    phi = pi/2
    tau = pi/360 : pi - pi/360 : pi/360
    eta = 0.05 : 1.0 : 0.05
    bias = eta-1            # zero | eta-1 | x=<expr>
    axis_alpha = 0
    axis_beta = pi/2
    families = slgi,wlgi,elgi
    tolerance = 1e-10
    out = demo.csv
"""

from __future__ import annotations

import ast
import io
import locale
import math
import operator

import numpy as np

from .errors import ConfigError
from .scan import ScanConfig

_KEYS = {
    "theta", "phi", "tau", "eta", "bias", "axis_alpha", "axis_beta",
    "families", "tolerance", "out", "jobs",
}

MAX_RANGE_POINTS = 10**6  # per start:stop:step range

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def eval_expr(text: str, where: str = "") -> float:
    """Safely evaluate an arithmetic expression over numbers and pi.

    The result is a finite float; a parse error, an arithmetic error
    (division by zero, overflow) or a non-finite or complex result raises
    ConfigError naming `where`.
    """
    try:
        node = ast.parse(text.strip(), mode="eval").body
    # too-deep nesting surfaces as RecursionError or MemoryError, NUL bytes as ValueError
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"{where}: cannot parse value {text!r}") from exc

    def walk(n):
        if isinstance(n, ast.Constant) and isinstance(n.value, (int, float)):
            return float(n.value)
        if isinstance(n, ast.Name) and n.id == "pi":
            return math.pi
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.USub, ast.UAdd)):
            v = walk(n.operand)
            return -v if isinstance(n.op, ast.USub) else v
        if isinstance(n, ast.BinOp) and type(n.op) in _BINOPS:
            return _BINOPS[type(n.op)](walk(n.left), walk(n.right))
        raise ConfigError(f"{where}: unsupported expression {text!r}")

    try:
        value = walk(node)
    except (ArithmeticError, RecursionError) as exc:
        raise ConfigError(f"{where}: cannot evaluate {text!r} ({type(exc).__name__})") from exc
    if not isinstance(value, float) or not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not a finite real number")
    return value


def parse_bias(text: str, where: str = "", label: str = "bias") -> tuple[str, float]:
    """Bias mode and fixed x from 'zero', 'eta-1' or 'x=<expr>'.

    `where` locates the value (e.g. 'line 4') and `label` names it in
    diagnostics of the x expression.
    """
    text = text.strip()
    if text == "zero":
        return "zero", 0.0
    if text in ("eta-1", "eta - 1"):
        return "eta-1", 0.0
    if text.startswith("x="):
        return "fixed", eval_expr(text[2:], f"{where} ({label})" if where else label)
    message = "bias must be zero, eta-1 or x=<value>"
    raise ConfigError(f"{where}: {message}" if where else message)


def parse_grid(text: str, where: str = "") -> np.ndarray:
    """Single expression, or inclusive range start:stop:step of at most
    MAX_RANGE_POINTS points."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([eval_expr(parts[0], where)])
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected 'value' or 'start:stop:step', got {text!r}")
    start, stop, step = (eval_expr(p, where) for p in parts)
    if step <= 0:
        raise ConfigError(f"{where}: step must be positive")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ConfigError(f"{where}: range {text!r} has no finite number of steps")
    n = int(math.floor(span + 1e-9)) + 1
    if n < 1:
        raise ConfigError(f"{where}: empty range {text!r}")
    if n > MAX_RANGE_POINTS:
        raise ConfigError(f"{where}: range {text!r} has more than {MAX_RANGE_POINTS} points")
    return start + step * np.arange(n)


def _read_sections(path: str) -> dict[str, dict[str, tuple[int, str]]]:
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    current: str | None = None
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    # decoded and split as open(path).readlines() would, with universal newlines
    encoding = locale.getpreferredencoding(False)
    try:
        lines = io.StringIO(data.decode(encoding), newline=None).readlines()
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[:exc.start].decode(encoding, "replace"), newline=None)
        line = before.read().count("\n") + 1
        raise ConfigError(f"cannot read config {path!r}: line {line}: "
                          f"byte 0x{data[exc.start]:02x} is not valid {exc.encoding}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section {current!r}")
            sections[current] = {}
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section {current!r}")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = (lineno, value)
    if not sections:
        raise ConfigError(f"config {path!r} has no sections")
    return sections


# ScanConfig field -> the config key that sets it, where the names differ
_FIELD_KEYS = {"nsit_tol": "tolerance", "x_fixed": "bias", "bias_mode": "bias"}


def _build(section: str, kv: dict[str, tuple[int, str]]) -> ScanConfig:
    """ScanConfig from one section's keys; ScanConfig validates the values,
    and an error it raises for a key set here names that key's line."""
    def where(key: str) -> str:
        return f"line {kv[key][0]} ({section}.{key})"

    def grid(key: str, default: str) -> np.ndarray:
        if key in kv:
            return parse_grid(kv[key][1], where(key))
        return parse_grid(default, f"default {key}")

    fields = {
        "theta": grid("theta", "0"),
        "phi": grid("phi", "0"),
        "tau": grid("tau", "pi/360 : pi - pi/360 : pi/360"),
        "eta": grid("eta", "1"),
    }
    if "bias" in kv:
        lineno, text = kv["bias"]
        fields["bias_mode"], fields["x_fixed"] = parse_bias(text, f"line {lineno}",
                                                            f"{section}.bias")
    if "families" in kv:
        fields["families"] = tuple(f.strip() for f in kv["families"][1].split(",") if f.strip())
    for field in ("axis_alpha", "axis_beta", "nsit_tol"):
        key = _FIELD_KEYS.get(field, field)
        if key in kv:
            fields[field] = eval_expr(kv[key][1], where(key))
    if "jobs" in kv:
        try:
            fields["jobs"] = int(kv["jobs"][1])
        except ValueError as exc:
            raise ConfigError(f"{where('jobs')}: jobs must be an integer") from exc
    if "out" in kv:
        fields["out"] = kv["out"][1].strip()
    try:
        return ScanConfig(**fields)
    except ConfigError as exc:
        key = _FIELD_KEYS.get(exc.field, exc.field)
        if key not in kv:
            raise
        raise ConfigError(f"{where(key)}: {exc}") from exc


def load_configs(path: str) -> dict[str, ScanConfig]:
    """Parse a config file into one ScanConfig per section."""
    return {name: _build(name, kv) for name, kv in _read_sections(path).items()}
