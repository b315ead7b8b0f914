"""Fixtures shared by the test modules."""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from leapsim import files


def non_finite_path(value, path: str = "$") -> str | None:
    """The path of the first NaN or infinite float in a JSON payload, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, np.ndarray):  # written by orjson as a list
        bad = np.argwhere(~np.isfinite(value)) if value.dtype.kind == "f" else ()
        return f"{path}{list(map(int, bad[0]))}" if len(bad) else None
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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail every test that leaves a child process behind, running or unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {left})")


_cpu_set = getattr(os, "sched_getaffinity", None)  # the real one, whatever a test patches


@pytest.fixture(autouse=True)
def no_cpu_set_changed():
    """Fail every test that leaves this process on another set of CPUs than
    it started on, and give the set back: a pin left behind would run every
    later test on fewer CPUs, and fail none of them."""
    if _cpu_set is None:
        yield
        return
    before = _cpu_set(0)
    yield
    after = _cpu_set(0)
    if after != before:
        os.sched_setaffinity(0, before)
        pytest.fail(f"the test left this process on CPUs {sorted(after)}, not {sorted(before)}")


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
