"""Oracle bootstrap: generate the frozen corpus manifest.

Run as ``python -m pihall.bootstrap``.  Every expected verdict in the
manifest comes from the exhaustive oracle; hand-written expectations are
forbidden by design, so this is the only writer of the data file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from . import zoo
from .arith import PiSet
from .config import DEFAULT_BUDGETS
from .hall import classify_ECD


SEED = 1


def build_manifest() -> dict:
    """Every corpus pair with its oracle flags at SEED."""
    entries = []
    for name, pi_key in zoo.CORPUS_PAIRS:
        G = zoo.build_named(name)
        pi = PiSet.parse(pi_key)
        rep = classify_ECD(G, pi, DEFAULT_BUDGETS, SEED)
        entries.append({
            "name": name,
            "builder": zoo.ZOO_NAMES[name],
            "degree": G.degree,
            "order": G.order(),
            "pi": pi_key,
            "expected": rep.flags(),
            "provenance": f"oracle-bootstrap seed={SEED}",
        })
    return {"schema_version": "1", "seed": SEED, "entries": entries}


def main(argv=None) -> int:
    out = Path(__file__).parent / "data" / "corpus_manifest.json"
    if argv and len(argv) > 1:
        out = Path(argv[1])
    manifest = build_manifest()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {len(manifest['entries'])} entries to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
