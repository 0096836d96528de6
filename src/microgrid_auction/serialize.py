"""Deterministic JSON and CSV emission, and the auction outcome file.

Reports must be byte-identical across runs and platforms, so floats are
always printed with 17 significant digits and dictionaries are emitted in
insertion order. Seventeen digits read back to the same double but are not
always repr's shortest form: 0.1 prints as 0.10000000000000001. The stdlib
json module cannot customize float formatting, hence the small recursive
emitter here. outcome_payload and load_outcome write and read the outcome
JSON of the auction command.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

from .clearing import ClearingResult
from .engine import AuctionOutcome
from .market import MarketParams, Payoffs

if TYPE_CHECKING:
    from .fairness import RedistributionResult


def format_float(value: float) -> str:
    """Round-trip decimal for an IEEE double: 17 significant digits, or x.0
    for an integral value below 1e16."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value}")
    if value == int(value) and abs(value) < 1e16:
        return f"{value:.1f}"
    return format(value, ".17g")


def _emit(obj: Any, depth: int, out: list[str]) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.translate(_ESCAPES) + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f'{inner}"{key.translate(_ESCAPES)}": ')
            _emit(value, depth + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, value in enumerate(obj):
            out.append(inner)
            _emit(value, depth + 1, out)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_ESCAPES = {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\n"): "\\n",
    ord("\r"): "\\r",
    ord("\t"): "\\t",
}
for _c in range(0x20):
    _ESCAPES.setdefault(_c, f"\\u{_c:04x}")


def dumps(obj: Any) -> str:
    """Serialize to JSON with stable key order, 17-digit floats and a
    two-space indent."""
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(ch in text for ch in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def to_csv(header: list[str] | tuple[str, ...], rows: list[Any]) -> str:
    """Rows of sequences, one cell per header column, as deterministic CSV."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} vs header width {len(header)}")
        lines.append(",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def outcome_payload(
    outcome: AuctionOutcome, red: RedistributionResult | None = None
) -> dict[str, Any]:
    """The outcome as a JSON-ready dict, with the redistribution when given."""
    clearing = outcome.clearing
    payload: dict[str, Any] = {
        "converged": outcome.converged,
        "iterations": outcome.iterations,
        "mu": clearing.mu,
        "p": clearing.params.p,
        "bids": list(clearing.bids),
        "asks": list(clearing.asks),
        "avails": list(clearing.avails),
        "d": list(clearing.d),
        "s": list(clearing.s),
        "budget_active": list(clearing.buyer_budget_active),
        "kkt_residual": clearing.kkt_residual,
        "unit_prices": list(outcome.unit_prices),
        "payoffs": {
            "buyers": list(outcome.payoffs.buyer_payoffs),
            "sellers": list(outcome.payoffs.seller_payoffs),
            "mc_revenue": outcome.payoffs.mc_revenue,
        },
    }
    if red is not None:
        payload["redistribution"] = {
            "s_r": list(red.s_r),
            "c_r": red.c_r,
            "K": red.K,
            "kappa_F": red.kappa_F,
        }
    return payload


def _finite_number(text: str) -> float:
    # json reads NaN, Infinity and overflowing literals such as 1e999; the
    # auction command never writes them, so a file holding one did not come
    # from it.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


_JSON_TYPES = {bool: "boolean", int: "integer"}


def _exactly(name: str, value: Any, kind: type) -> Any:
    # type() rather than isinstance(): bool subclasses int, so true is no
    # iteration count. bool() itself would read "false" and 0.5 as True.
    if type(value) is not kind:
        raise ValueError(f"{name} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def read_number(name: str, value: Any) -> float:
    """value as a float if it is a JSON number, else ValueError naming the
    field. float() alone would read "0.25" and true as numbers."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _numbers(name: str, values: Any) -> tuple[float, ...]:
    return tuple(read_number(name, v) for v in values)


def _same_length(lists: dict[str, tuple[Any, ...]]) -> None:
    if len({len(values) for values in lists.values()}) > 1:
        counts = ", ".join(f"{len(values)} {name}" for name, values in lists.items())
        raise ValueError(f"per-agent lists disagree in length: {counts}")


def load_outcome(path: str) -> AuctionOutcome:
    """Rebuild an outcome from the JSON that outcome_payload writes.

    Raises ValueError naming the path when the file is not such an outcome,
    including when one side's per-agent lists disagree in length, a flag
    or the iteration count is not a JSON boolean or integer, or the count,
    the price or the residual is out of range (negative, or mu <= 0), or a
    number is a string or a boolean.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        # An auction never writes a negative count or residual, nor a price
        # at or below zero (mu is null only when nothing traded).
        iterations = _exactly("iterations", raw["iterations"], int)
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        mu = None if raw["mu"] is None else read_number("mu", raw["mu"])
        if mu is not None and not mu > 0:
            raise ValueError(f"mu must be positive or null, got {mu!r}")
        residual = read_number("kkt_residual", raw["kkt_residual"])
        if residual < 0:
            raise ValueError(f"kkt_residual must be >= 0, got {residual!r}")
        clearing = ClearingResult(
            d=_numbers("d", raw["d"]),
            s=_numbers("s", raw["s"]),
            mu=mu,
            buyer_budget_active=tuple(
                _exactly("budget_active", v, bool) for v in raw["budget_active"]
            ),
            bids=_numbers("bids", raw["bids"]),
            asks=_numbers("asks", raw["asks"]),
            avails=_numbers("avails", raw["avails"]),
            params=MarketParams(p=read_number("p", raw["p"])),
        )
        # The residual the file holds, in the cache a read would fill: it is
        # not computed again from the file's numbers.
        object.__setattr__(clearing, "kkt_residual", residual)
        outcome = AuctionOutcome(
            clearing=clearing,
            unit_prices=tuple(
                None if v is None else read_number("unit_prices", v) for v in raw["unit_prices"]
            ),
            payoffs=Payoffs(
                buyer_payoffs=_numbers("payoffs.buyers", raw["payoffs"]["buyers"]),
                seller_payoffs=_numbers("payoffs.sellers", raw["payoffs"]["sellers"]),
                mc_revenue=read_number("payoffs.mc_revenue", raw["payoffs"]["mc_revenue"]),
            ),
            iterations=iterations,
            converged=_exactly("converged", raw["converged"], bool),
            trace=(),
        )
        _same_length({
            "bids": clearing.bids,
            "d": clearing.d,
            "budget_active": clearing.buyer_budget_active,
            "unit_prices": outcome.unit_prices,
            "payoffs.buyers": outcome.payoffs.buyer_payoffs,
        })
        _same_length({
            "asks": clearing.asks,
            "avails": clearing.avails,
            "s": clearing.s,
            "payoffs.sellers": outcome.payoffs.seller_payoffs,
        })
        return outcome
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path} is not an outcome file: {exc}") from exc
