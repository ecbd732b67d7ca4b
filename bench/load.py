"""Load a workload's input files through the program's own loaders.

This is the work every CLI command pays before its first answer, so it is
what ``setup_s`` times (in a fresh interpreter, see setup_probe.py) and what
the traced run records once before its passes.
"""

from __future__ import annotations

import json
from pathlib import Path


def _json(path: Path):
    return json.loads(path.read_text())


def load_inputs(zc, workload: str, work: Path, manifest: dict) -> dict:
    """Program objects for every input file of the workload."""
    if workload == "certify":
        items = []
        for item in manifest["items"]:
            items.append({
                "span": zc.NcGraph.from_json_dict(_json(work / item["span"])),
                "cert": zc.HaemersCertificate.from_json_dict(_json(work / item["cert"])),
                "tpmap": zc.TpMapCertificate.from_json_dict(_json(work / item["tpmap"])),
                "bad": zc.HaemersCertificate.from_json_dict(_json(work / item["bad"])),
            })
        unitary = zc.ExactMatrix.from_strings(_json(work / manifest["conjugate"][1]))
        return {"items": items, "unitary": unitary}
    if workload == "decide":
        return {
            name: zc.NcGraph.from_json_dict(_json(work / span["file"]))
            for name, span in manifest["spans"].items()
        }
    if workload == "bounds":
        graphs = {
            name: zc.Graph.from_text((work / g["file"]).read_text())
            for name, g in manifest["graphs"].items()
        }
        spans = [zc.NcGraph.from_json_dict(_json(work / c["file"])) for c in manifest["corners"]]
        spans.append(zc.NcGraph.from_json_dict(_json(work / manifest["pentagon"])))
        return {"graphs": graphs, "spans": spans}
    raise ValueError(f"unknown workload {workload!r}")
