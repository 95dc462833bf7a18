"""Pinned outputs: `simulate` and `train` write the recorded bytes.

Criterion 9 compares two reruns of the same code; this test compares every
file under --out with a sha256 recorded in pinned_outputs.json, so a
refactor that changes an output byte fails here. Three configs are pinned:
configs/quickstart.json, LIST_SETTINGS, a small config that sets every
list-valued setting, and LIST_SETTINGS on the exact planner tier with a
distance-dependent move cost, so that the tier's scores, not only their
order, decide its picks. A change that means to alter the outputs
regenerates the pins with `PYTHONPATH=src python tests/test_pinned_outputs.py`
and says so in CHANGES.md; the script prints, per pinned tree, the files
whose digest changed, appeared or vanished.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from plumeseek.cli import main

HERE = Path(__file__).resolve().parent
PINS = HERE / "pinned_outputs.json"
COMMANDS = ("simulate", "train")

# a weights prior, a fixed source, an advected wind list, action costs,
# hidden widths and two seeds; integers where a float would echo differently
LIST_SETTINGS = {
    "grid": {"x_max": 4.0, "y_max": 4.0, "a_cells": 4, "b_cells": 4, "i_cells": 4, "j_cells": 4},
    "plume": {"kind": "advected-plume", "wind": [1, 0], "sigma0": 0.5, "spread_rate": 0.2},
    "prior": {"kind": "weights", "values": [1, 2, 0, 1, 0.5, 1, 1, 3, 1, 1, 0, 2, 1, 1, 1, 4]},
    "sim": {"n_agents": 2, "n_steps": 8, "source": {"placement": "fixed", "x": 1, "y": 2.5}},
    "rl": {
        "n_agents": 2,
        "horizon": 12,
        "hidden": [8, 6],
        "batch_size": 4,
        "replay_capacity": 64,
        "train_steps": 60,
        "target_sync": 10,
        "reward": {"action_costs": [0, 0.2, 0.1, 0.1, 0.3]},
    },
    "seeds": [0, 1],
}
CONFIGS = {
    "quickstart": lambda tmp: HERE.parent / "configs" / "quickstart.json",
    "list_settings": lambda tmp: _write(tmp / "list_settings.json", LIST_SETTINGS),
    "list_settings_exact": lambda tmp: _write(
        tmp / "list_settings_exact.json",
        {
            **LIST_SETTINGS,
            "planner": {"tier": "exact", "quad_nodes": 4},
            "cost": {"quad_coeff": 0.05},
        },
    ),
}


def _write(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload))
    return path


def tree_digest(root: Path) -> dict:
    """sha256 of every file under root, keyed by its path relative to root."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run_tree(tmp: Path, config: str, command: str) -> dict:
    out = tmp / f"{config}_{command}"
    cfg = CONFIGS[config](tmp)
    assert main([command, "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    return tree_digest(out)


def moved_files(pinned: dict, got: dict) -> dict:
    """{"changed", "appeared", "vanished": sorted file names} between two tree digests."""
    return {
        "changed": sorted(n for n in pinned.keys() & got.keys() if pinned[n] != got[n]),
        "appeared": sorted(got.keys() - pinned.keys()),
        "vanished": sorted(pinned.keys() - got.keys()),
    }


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_outputs_match_pinned_digests(tmp_path, config, command):
    pinned = json.loads(PINS.read_text())[f"{config} {command}"]
    got = run_tree(tmp_path, config, command)
    moved = {kind: names for kind, names in moved_files(pinned, got).items() if names}
    assert not moved, f"{config} {command}: these files differ from the pins: {moved}"


if __name__ == "__main__":
    import tempfile

    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        pins = {
            f"{config} {command}": run_tree(Path(tmp), config, command)
            for config in sorted(CONFIGS)
            for command in COMMANDS
        }
    for tree in sorted(old.keys() | pins.keys()):
        moved = moved_files(old.get(tree, {}), pins.get(tree, {}))
        report = "; ".join(f"{kind} {', '.join(names)}" for kind, names in moved.items() if names)
        print(f"{tree}: {report or 'unchanged'}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
