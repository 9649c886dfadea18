"""Rewrite the golden manifest from what the code under test prints and writes.

Run it by hand, and only for a change that means to alter an output;
then list each case whose record changed::

    PYTHONPATH=src python3.11 tests/golden/regenerate.py [--inputs]
    PYTHONPATH=src python3.10 tests/golden/regenerate.py

Under ``corpus.PRIMARY_PYTHON`` it rewrites every record and the input
hashes.  Under another Python it rewrites that version's
"differences": the records of the cases it can run (those that draw
only where numpy is installed) that differ from the primary ones.

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
    runnable = corpus.ALL_CASES if importlib.util.find_spec("numpy") else corpus.CASES
    records = {name: corpus.run_case(steps)[0] for name, steps in runnable.items()}
    if corpus.PYTHON == corpus.PRIMARY_PYTHON:
        if runnable is not corpus.ALL_CASES:
            sys.exit("the primary Python needs numpy to run every case")
        manifest = {"inputs": corpus.input_hashes(), "cases": records, "differences": {}}
    else:
        manifest = corpus.load_manifest()
        primary = manifest["cases"]
        manifest["differences"][corpus.PYTHON] = {
            name: record for name, record in records.items() if record != primary[name]
        }
    with open(corpus.MANIFEST, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=1)
        fp.write("\n")
    print(f"ran {len(records)} cases under Python {corpus.PYTHON}; wrote {corpus.MANIFEST}")
