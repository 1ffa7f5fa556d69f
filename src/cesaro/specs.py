"""The one grammar for spec strings (weights, norm tags, witnesses and ``nu``), and the one count rule.

A spec is ``name`` or ``name:<arg>``.  A table maps each allowed name to the
kind of its argument (``None`` for a name that takes none), and
:data:`ARGS` maps each kind to its parser.  An unknown name, a missing or
extra argument and an argument its parser refuses all raise the same
``ValueError``, which lists the accepted forms.
"""

from __future__ import annotations

from numbers import Integral


def count(value, least: int, message: str):
    """``value`` if it is an integer >= ``least`` (numpy integers are, bools are not), else ``ValueError(message)``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(message)
    return value


def _complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(text)
    return complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)


#: Argument kind -> parser (raises ValueError on text it refuses).
ARGS = {"int": int, "count": lambda s: count(int(s), 1, s), "float": float, "path": str, "re[,im]": _complex}

WEIGHTS = {"unit": None, "gamma": "float", "logpow": "int", "table": "path"}
NORM_TAGS = {"k": "int", "ksup": "int", "gamma": "float", "unit": None}
WITNESSES = {"f1": None, "g0": None, "logpow": "int", "random": "count"}


def forms(table: dict) -> str:
    """The accepted forms of a table, e.g. ``unit | gamma:<float>``."""
    return " | ".join(name if kind is None else f"{name}:<{kind}>" for name, kind in table.items())


def _refuse(what: str, text: str, expected: str) -> ValueError:
    return ValueError(f"bad {what} {text!r}; expected {expected}")


def parse_arg(what: str, text: str, kind: str):
    """Parse a bare argument of the given kind (``nu`` is a bare ``re[,im]``)."""
    try:
        return ARGS[kind](text.strip())
    except ValueError:
        raise _refuse(what, text, f"<{kind}>") from None


def parse(what: str, spec: str, table: dict) -> tuple[str, object]:
    """Split ``name[:<arg>]`` and parse the argument; returns ``(name, value)``.

    ``value`` is ``None`` for a name that takes no argument.
    """
    name, colon, arg = spec.strip().partition(":")
    kind = table.get(name, "")
    if kind is None and not colon:
        return name, None
    if kind and arg.strip():
        try:
            return name, ARGS[kind](arg.strip())
        except ValueError:
            pass
    raise _refuse(what, spec, forms(table))
