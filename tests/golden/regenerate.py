"""Rewrite the golden manifest from what the code under test prints and writes.

Run it by hand, and only for a change that means to alter an output;
then list each case whose record changed::

    PYTHONPATH=src python3 tests/golden/regenerate.py [--inputs]

It rewrites every record and the input hashes.  The manifest keeps one
record per case, which every supported Python prints alike.

``--inputs`` first rewrites the generated captures in ``inputs/``:
``perfbench/gen.py``'s ``gen_logs`` and ``gen_dense`` at seed 1, size
``"tiny"``.  The manifest pins every input's sha256, so a change in
numpy's stream shows as an input change, not as an output change.
"""

from __future__ import annotations

import importlib.util
import json
import sys

import corpus

if __name__ == "__main__":
    if sys.argv[1:] == ["--inputs"]:
        sys.path.insert(0, str(corpus.REPO / "perfbench"))
        import gen

        gen.gen_logs(corpus.HERE / "inputs", 1, "tiny")
        gen.gen_dense(corpus.HERE / "inputs", 1, "tiny")
    elif sys.argv[1:]:
        sys.exit(__doc__)
    if importlib.util.find_spec("numpy") is None:
        sys.exit("some cases draw: regenerating needs numpy")
    records = {name: corpus.run_case(steps)[0] for name, steps in corpus.ALL_CASES.items()}
    manifest = {"inputs": corpus.input_hashes(), "cases": records}
    with open(corpus.MANIFEST, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=1)
        fp.write("\n")
    print(f"ran {len(records)} cases; wrote {corpus.MANIFEST}")
