"""Program serialization: JSON with full-precision decimal floats.

Matrices are stored dense, row-major, as nested arrays. Python's json
module emits the shortest decimal representation that round-trips each
float64 exactly, so parse -> emit -> parse is value-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .program import MultistageProgram, StageRealization

FORMAT = "multicut-program"
VERSION = 1


def program_to_dict(program: MultistageProgram) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "stage_count": program.stage_count,
        "x0": program.x0.tolist(),
        "stages": [
            {
                "realizations": [
                    {
                        "probability": r.probability,
                        "cost": r.cost.tolist(),
                        "eq_cur": r.eq_cur.tolist(),
                        "eq_prev": r.eq_prev.tolist(),
                        "rhs_eq": r.rhs_eq.tolist(),
                        "le_cur": r.le_cur.tolist(),
                        "le_prev": r.le_prev.tolist(),
                        "rhs_le": r.rhs_le.tolist(),
                    }
                    for r in dist
                ]
            }
            for dist in program.stages
        ],
    }


def program_from_dict(doc: dict) -> MultistageProgram:
    if doc.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    stages = []
    n_prev = len(doc["x0"])  # the previous stage's dimension, x0's for stage 1
    for sdoc in doc["stages"]:
        reals = []
        for rdoc in sdoc["realizations"]:
            n = len(rdoc["cost"])
            reals.append(StageRealization(
                eq_cur=np.array(rdoc["eq_cur"], dtype=float).reshape(-1, n),
                eq_prev=np.array(rdoc["eq_prev"], dtype=float).reshape(-1, n_prev),
                rhs_eq=np.array(rdoc["rhs_eq"], dtype=float),
                cost=np.array(rdoc["cost"], dtype=float),
                probability=float(rdoc["probability"]),
                le_cur=np.array(rdoc["le_cur"], dtype=float).reshape(-1, n),
                le_prev=np.array(rdoc["le_prev"], dtype=float).reshape(-1, n_prev),
                rhs_le=np.array(rdoc["rhs_le"], dtype=float),
            ))
        stages.append(reals)
        if sdoc["realizations"]:
            n_prev = len(sdoc["realizations"][0]["cost"])
    x0 = np.array(doc["x0"], dtype=float)
    program = MultistageProgram(x0=x0, stages=stages)
    if program.stage_count != doc["stage_count"]:
        raise ValueError("stage_count does not match the stage array")
    return program


def program_to_json(program: MultistageProgram, path: str | Path | None = None) -> str:
    text = json.dumps(program_to_dict(program), indent=1)
    if path is not None:
        Path(path).write_text(text)
    return text


def program_from_json(source: str | Path) -> MultistageProgram:
    """Parse JSON text (a string whose first non-blank character is '{') or
    read a file path."""
    text = str(source)
    if not text.lstrip().startswith("{"):
        text = Path(text).read_text()
    return program_from_dict(json.loads(text))
