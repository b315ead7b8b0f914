"""Byte identity across commits: the golden matrix must reproduce its manifest."""

from __future__ import annotations

import json

from golden_matrix import MANIFEST, REGENERATE, build_manifest


def test_golden_matrix_reproduces_the_manifest(tmp_path, finite_json):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    fresh = build_manifest(tmp_path)
    # every JSON file and scenario header of the matrix went through the finiteness check
    assert sorted(p.relative_to(tmp_path).as_posix() for p in finite_json) == sorted(
        name for name in fresh["files"] if name.endswith((".json", ".bin"))
    )
    assert fresh["runs"] == recorded["runs"], (
        f"the golden runs changed; regenerate the manifest with `{REGENERATE}`"
    )
    if fresh["files"] == recorded["files"]:
        return
    old, new = recorded["files"], fresh["files"]
    moved = sorted(name for name in old.keys() & new.keys() if old[name] != new[name])
    lines = [
        f"moved: {moved}",
        f"missing: {sorted(old.keys() - new.keys())}",
        f"new: {sorted(new.keys() - old.keys())}",
    ]
    if fresh["env"] != recorded["env"]:
        lines.insert(0, (
            f"the environment differs from the recorded one ({fresh['env']} here, "
            f"{recorded['env']} recorded), so the bytes may move without a code change"
        ))
    lines.append(f"if the change is meant to move bytes, regenerate with `{REGENERATE}` "
                 "and name the moved files in CHANGES.md")
    raise AssertionError(
        "emitted files differ from tests/golden/manifest.json\n" + "\n".join(lines)
    )
