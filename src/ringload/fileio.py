"""Instance file format (UTF-8 JSON) and routing reports.

Instance document:

    {"n": int, "demands": [{"i": int, "j": int, "d": int, "cw": number?}, ...]}

"d" is an integer demand value; "cw" is the clockwise split amount, an
integer or half-integer (e.g. 3 or 1.5), read exactly from its decimal
text.  A number of more digits than int() reads (sys.get_int_max_str_digits(),
4300 by default) is a SchemaError.  Either every demand carries "cw"
or none does; in the latter case the document describes an instance
without a split routing.  An empty demand list carries the empty routing,
which is both split and unsplittable.  Unknown keys are ignored.

Routing report (produced, never parsed):

    {"dirs": ["cw"|"ccw", ...], "max_increase": "p/q", "loads": ["p/q", ...]}

All numeric report values are exact rational strings at any size; no
floating point appears in any output.  Every report's loads are rendered
by load_texts.  report_text renders any report the CLI emits in the
layout of json.dumps(report, indent=1), in one pass.

parse_instance reads the demands as columns (RingInstance.from_columns),
builds no record per demand and walks the entries only to name a fault;
write_instance writes from the columns.  A document's ring checks itself
once, on construction; its split is checked once, where it enters
(parse_instance, write_instance).  Errors keep one order: the first entry
with a missing or ill-typed field (its 'cw' included), then the count of
'cw' fields, then the ring (its size, then demand by demand), then the split.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quoted

from .errors import InstanceSyntaxError, SchemaError
from .model import RingInstance, SplitRouting, UnsplitRouting, validate_instance
from .scaled import SCALE, Scaled, from_int, int_text, rational_str, unscale


def _require_int(obj: dict, key: str, where: str) -> int:
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: field {key!r} must be an integer")
    return value


class _Decimal(tuple):
    """A JSON number with a '.' or an exponent: (mantissa, shift), exactly
    mantissa * 10**shift; a bare tuple, made without a Python-level __new__."""


def _decimal(text: str) -> _Decimal:
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    return _Decimal((int(whole + fraction), int(exponent or 0) - len(fraction)))


def _scaled_cw(value: object, d: int, pos: int) -> Scaled:
    """An entry's 'cw', scaled: an integer or a number exact on the half-integer
    grid, or an error; d is the entry's unscaled value."""
    if type(value) is int:  # json.loads makes no int subclass but bool
        return value * SCALE
    if not isinstance(value, _Decimal):
        raise SchemaError(f"demand #{pos}: field 'cw' must be a number")
    # Clamping the shift keeps the outcome without a power of ten as long
    # as the exponent: past d's digits an integer stays above d, and past
    # the mantissa's digits 2 * value stays a non-integer.  A shift in
    # [-2, 2] is inside the clamp whatever the digits.
    mantissa, shift = value
    if not -2 <= shift <= 2:
        shift = max(-len(str(mantissa)) - 1, min(shift, len(str(d)) + 1))
    if shift >= 0:
        return from_int(mantissa * 10**shift)
    if 2 * mantissa % 10**-shift == 0:
        return mantissa * SCALE // 10**-shift
    raise SchemaError(f"demand #{pos}: 'cw' must be an integer or half-integer")


def _first_fault(raw_demands: list) -> None:
    """Raise the first fault: entry by entry i, j, d and 'cw', then the 'cw' count."""
    for pos, entry in enumerate(raw_demands):
        where = f"demand #{pos}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        for key in ("i", "j", "d"):
            _require_int(entry, key, where)
        if "cw" in entry:
            _scaled_cw(entry["cw"], entry["d"], pos)
    raise SchemaError("either every demand carries 'cw' or none does")


def parse_instance(data: bytes | str) -> tuple[RingInstance, SplitRouting | None]:
    """Parse and validate an instance document; the split section is optional.

    The columns are read whole, and only they build the instance.  Where
    some i, j or d is not an integer, or only some entries carry 'cw', the
    entries are walked one by one only to name the first fault.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data, parse_float=_decimal)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InstanceSyntaxError(str(exc)) from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise InstanceSyntaxError("values nested too deeply to parse") from None
    except ValueError:  # int() refuses a number of more digits than this
        raise SchemaError(f"a number has more than {sys.get_int_max_str_digits()} digits") from None
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object")
    n = _require_int(doc, "n", "instance")
    raw_demands = doc.get("demands")
    if not isinstance(raw_demands, list):
        raise SchemaError("instance: field 'demands' must be a list")

    try:
        i = [entry["i"] for entry in raw_demands]
        j = [entry["j"] for entry in raw_demands]
        d = [entry["d"] for entry in raw_demands]
        cw = [entry["cw"] for entry in raw_demands if "cw" in entry]
        plain = {*map(type, i), *map(type, j), *map(type, d)} <= {int}
    except (KeyError, TypeError):
        plain = False
    if not (plain and len(cw) in (0, len(d))):
        _first_fault(raw_demands)
    cw = [_scaled_cw(amount, value, pos) for pos, (amount, value) in enumerate(zip(cw, d))]

    inst = RingInstance.from_columns(n, i, j, [value * SCALE for value in d])
    split = SplitRouting(tuple(cw)) if cw or not d else None
    if split is not None:
        validate_instance(inst, split)
    return inst, split


def _cw_text(scaled: Scaled) -> str:
    """Exact decimal text of an integer or half-integer amount, e.g. 3 or 1.5."""
    whole, rest = divmod(scaled, SCALE)
    return f"{int_text(whole)}.5" if 2 * rest == SCALE else int_text(unscale(scaled))


def write_instance(inst: RingInstance, split: SplitRouting | None = None) -> bytes:
    """Serialize in the layout of json.dumps(doc, indent=1); round-trips exactly.

    Written by hand so that a half-integer "cw" is exact text at any size.
    """
    if split is not None:
        validate_instance(inst, split)
    entries = []
    for pos, (i, j, d) in enumerate(zip(inst.i, inst.j, inst.d)):
        cw = "" if split is None else f',\n   "cw": {_cw_text(split.cw[pos])}'
        fields = f'"i": {i},\n   "j": {j},\n   "d": {int_text(unscale(d))}{cw}'
        entries.append(f"  {{\n   {fields}\n  }}")
    demands = "[\n" + ",\n".join(entries) + "\n ]" if entries else "[]"
    return f'{{\n "n": {inst.n},\n "demands": {demands}\n}}\n'.encode("utf-8")


def load_texts(loads: tuple[Scaled, ...]) -> list[str]:
    """The loads as exact rational strings, each distinct value rendered once."""
    texts = {load: rational_str(load) for load in set(loads)}
    return [texts[load] for load in loads]


def routing_report(
    dirs: UnsplitRouting, max_increase: Scaled, loads: tuple[Scaled, ...]
) -> dict:
    """Routing output document with exact rational strings."""
    return {
        "dirs": list(dirs.dirs),
        "max_increase": rational_str(max_increase),
        "loads": load_texts(loads),
    }


def report_text(report: object, indent: str = "") -> str:
    """The text of json.dumps(report, indent=1), built in one pass.

    Strings are quoted by the encoder json.dumps uses (ASCII only), a list
    of strings with one join; numbers, booleans and None go to json.dumps.
    indent is the nesting of the value's own line.
    """
    inner = indent + " "
    if isinstance(report, dict):
        brackets = "{}"
        items = [f"{_quoted(key)}: {report_text(value, inner)}" for key, value in report.items()]
    elif isinstance(report, (list, tuple)):
        brackets = "[]"
        if set(map(type, report)) <= {str}:
            items = list(map(_quoted, report))
        else:
            items = [report_text(value, inner) for value in report]
    elif isinstance(report, str):
        return _quoted(report)
    else:
        return json.dumps(report)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"
