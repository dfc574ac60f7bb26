"""Run manifests: every CLI command records what ran and on which bytes.

The manifest digest covers the command, its arguments (seed included) and
the input file hashes (not the outputs, which would be circular since CSV
outputs embed the digest). Re-running a command with the manifest's
arguments must reproduce the output files byte-exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

ARTIFACT_VERSION = "0.1.0"


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    arguments: dict
    input_hashes: dict = field(default_factory=dict)
    output_paths: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    artifact_version: str = ARTIFACT_VERSION

    def add_input(self, name: str, path: str) -> None:
        self.input_hashes[name] = file_sha256(path)

    def digest(self) -> str:
        payload = {
            "command": self.command,
            "arguments": self.arguments,
            "inputs": self.input_hashes,
            "version": self.artifact_version,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "arguments": self.arguments,
            "input_hashes": self.input_hashes,
            "output_paths": self.output_paths,
            "wall_clock_seconds": self.wall_clock_seconds,
            "artifact_version": self.artifact_version,
            "digest": self.digest(),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


def write_csv(path: str, header: list[str], rows, manifest_digest: str) -> None:
    """CSV with a header row and a manifest-digest comment line."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# manifest={manifest_digest}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)
