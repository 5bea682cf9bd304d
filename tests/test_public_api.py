"""Snapshot test pinning the public API surface.

The supported surface -- ``repro``, :mod:`repro.api`, and the
observability modules -- is recorded in ``public_api_manifest.json``
next to this file.  Any addition, removal, or rename shows up as a diff
against the manifest, so surface changes are always a deliberate,
reviewed edit of that file rather than an accident.

To update after an intentional change::

    PYTHONPATH=src python tests/test_public_api.py --update
"""

import inspect
import json
from pathlib import Path

import repro
import repro.api
import repro.obs.export
import repro.obs.tracing
import repro.serving

MANIFEST_PATH = Path(__file__).parent / "public_api_manifest.json"


def _public_members(obj) -> list:
    """Sorted public attribute names, methods and properties alike."""
    return sorted(
        name
        for name in dir(obj)
        if not name.startswith("_")
    )


def current_surface() -> dict:
    """The live public surface, in manifest form."""
    return {
        "repro": sorted(repro.__all__),
        "repro.api": sorted(repro.api.__all__),
        "repro.api.RaqoSession": _public_members(repro.api.RaqoSession),
        "repro.api.RunResult": _public_members(repro.api.RunResult),
        "repro.obs.tracing": sorted(repro.obs.tracing.__all__),
        "repro.obs.export": sorted(repro.obs.export.__all__),
        "repro.serving": sorted(repro.serving.__all__),
        "repro.serving.OptimizerService": _public_members(
            repro.serving.OptimizerService
        ),
        "repro.serving.ServiceConfig": _public_members(
            repro.serving.ServiceConfig
        ),
        # Parameter names plus kind markers ("*name" = keyword-only),
        # not defaults: default *values* may evolve, the calling
        # convention may not.
        "repro.api.RaqoSession.__init__": [
            ("*" if param.kind is param.KEYWORD_ONLY else "")
            + param.name
            for param in inspect.signature(
                repro.api.RaqoSession.__init__
            ).parameters.values()
            if param.name != "self"
        ],
    }


def test_public_surface_matches_manifest():
    recorded = json.loads(MANIFEST_PATH.read_text())
    live = current_surface()
    assert live == recorded, (
        "public API surface drifted from tests/public_api_manifest.json; "
        "if the change is intentional, run "
        "`PYTHONPATH=src python tests/test_public_api.py --update`"
    )


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        MANIFEST_PATH.write_text(
            json.dumps(current_surface(), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {MANIFEST_PATH}")
    else:
        print(json.dumps(current_surface(), indent=2, sort_keys=True))
