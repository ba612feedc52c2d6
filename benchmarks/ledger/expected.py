"""Committed expected-answer digests, one file per (workload, seed).

A file holds, for every distinct operation in op order, the first 16
hex digits of the SHA-1 of the canonical answer and the answer's item
count.  It is written only by ``--regen-expected``, from the ``memo``
baseline interpreter — never from the ``natix`` engine the ledger
measures — and it is trusted only when the seed, the input sizes and
the exact query list match (a quick-size run, or a seed without a file,
asks the baseline at run time instead).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def _queries_digest(ops: Sequence) -> str:
    text = "\n".join(f"{op.key}\t{op.target}\t{op.query}" for op in ops)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def path_for(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}.seed{seed}.json"


def load(workload: str, seed: int, sizes: dict,
         ops: Sequence) -> Optional[dict]:
    """``{op key: (digest, items)}`` or ``None`` when nothing committed
    matches this exact input."""
    path = path_for(workload, seed)
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if (data["sizes"] != sizes
            or data["queries_sha1"] != _queries_digest(ops)):
        return None
    return {
        op.key: (digest, items)
        for op, (digest, items) in zip(ops, data["answers"])
    }


def save(workload: str, seed: int, sizes: dict, ops: Sequence,
         answers: dict) -> Path:
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = path_for(workload, seed)
    payload = {
        "workload": workload,
        "seed": seed,
        "source": "memo baseline interpreter",
        "sizes": sizes,
        "queries_sha1": _queries_digest(ops),
        "answers": [list(answers[op.key]) for op in ops],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    return path
