"""Experiment-config serialization: JSON manifests for reproducibility.

A run is fully determined by its :class:`PipelineConfig` (every stochastic
stream derives from ``seed``), so persisting the config *is* persisting
the experiment. The manifest format adds a schema version and the library
version so stale manifests fail loudly instead of silently re-running
under different semantics.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, Union

from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError
from repro.faults.config import fault_config_from_dict
from repro.obs import observe_config_from_dict

#: Manifest schema version; bump on incompatible config changes.
#: Schema 2 dropped the five ARQ fields that every schema-1 manifest
#: carries.
SCHEMA_VERSION = 2


def config_to_dict(config: PipelineConfig) -> Dict[str, Any]:
    """A plain-JSON-serializable dict of the config.

    The nested :class:`repro.faults.FaultConfig` (when set) flattens to a
    plain dict via ``dataclasses.asdict``, so fault scenarios are part of
    the manifest — and of the runner's content-addressed cache key.
    """
    raw = dataclasses.asdict(config)
    # Tuples (wormhole endpoints) become lists in JSON; normalize here so
    # the round-trip comparison is exact.
    if raw.get("wormhole_endpoints") is not None:
        raw["wormhole_endpoints"] = [
            list(end) for end in raw["wormhole_endpoints"]
        ]
    return raw


def config_from_dict(data: Dict[str, Any]) -> PipelineConfig:
    """Rebuild a config; unknown keys are rejected (typo protection)."""
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown config keys: {sorted(unknown)} (schema drift?)"
        )
    payload = dict(data)
    if payload.get("wormhole_endpoints") is not None:
        payload["wormhole_endpoints"] = tuple(
            tuple(end) for end in payload["wormhole_endpoints"]
        )
    if isinstance(payload.get("faults"), dict):
        payload["faults"] = fault_config_from_dict(payload["faults"])
    if isinstance(payload.get("observe"), dict):
        payload["observe"] = observe_config_from_dict(payload["observe"])
    return PipelineConfig(**payload)


def save_manifest(
    config: PipelineConfig,
    path: Union[str, pathlib.Path],
    *,
    note: str = "",
) -> pathlib.Path:
    """Write a versioned manifest for ``config``."""
    from repro import __version__

    destination = pathlib.Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": SCHEMA_VERSION,
        "library_version": __version__,
        "note": note,
        "config": config_to_dict(config),
    }
    destination.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return destination


def load_manifest(path: Union[str, pathlib.Path]) -> PipelineConfig:
    """Read a manifest back into a config.

    Raises:
        ConfigurationError: wrong schema version, missing keys, or a
            config payload the current :class:`PipelineConfig` rejects.
    """
    source = pathlib.Path(path)
    if not source.is_file():
        raise ConfigurationError(f"manifest not found: {source}")
    try:
        manifest = json.loads(source.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"manifest is not valid JSON: {exc}") from exc
    if manifest.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"manifest schema {manifest.get('schema')!r} != "
            f"supported {SCHEMA_VERSION}"
        )
    if "config" not in manifest:
        raise ConfigurationError("manifest has no 'config' section")
    return config_from_dict(manifest["config"])
