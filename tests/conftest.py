"""Fixtures shared by the test modules."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

from leapsim import files


def non_finite_path(value, path: str = "$") -> str | None:
    """The path of the first NaN or infinite float in a JSON payload, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = non_finite_path(item, f"{path}[{key!r}]")
        if found is not None:
            return found
    return None


@pytest.fixture
def finite_json(monkeypatch) -> list[Path]:
    """Make every ``write_json`` payload and ``write_columns`` header of
    the package fail on a NaN or an infinite float, which orjson would
    write as null.

    Returns the list of the paths written, so a test can see that its
    files went through the check."""
    written: list[Path] = []

    def checking(real):
        def checked(path, payload, *rest):
            bad = non_finite_path(payload)
            assert bad is None, f"{path}: {bad} is not finite"
            written.append(Path(path))
            real(path, payload, *rest)
        return checked

    for writer in ("write_json", "write_columns"):
        real = getattr(files, writer)
        for name, module in list(sys.modules.items()):
            in_package = name == "leapsim" or name.startswith("leapsim.")
            if in_package and getattr(module, writer, None) is real:
                monkeypatch.setattr(module, writer, checking(real))
    return written
