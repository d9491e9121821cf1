"""Write the seed-42 reference outputs that perfbench/check.py compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at the reference seed, in a fresh interpreter with
the benchmark's thread settings (BLAS threads change the last digits), and
stores the sha256, header and columns of every CSV it writes under
perfbench/reference/.  Re-run it only when an output is meant to change.
"""

import json
import os
import shutil
import subprocess
import sys

import check
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(names) -> int:
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    out_dir = os.path.join(ROOT, ".perfbench-work", "reference")
    for w in names or list(workloads.WORKLOADS):
        shutil.rmtree(out_dir, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"), ROOT, w,
                        str(check.REFERENCE_SEED), out_dir, out_dir + ".json", "run"],
                       cwd=ROOT, env=dict(os.environ, **run.CHILD_THREADS), check=True,
                       stdout=subprocess.DEVNULL)
        with open(out_dir + ".json", encoding="utf-8") as fh:
            if json.load(fh)["rc"] != 0:
                raise SystemExit(f"{w}: cli.main failed")
        ref = {"seed": check.REFERENCE_SEED,
               "files": {name: check.reference_entry(os.path.join(out_dir, name))
                         for name in workloads.csv_files(w)}}
        with open(os.path.join(check.REFERENCE_DIR, f"{w}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
        print(f"{w}: " + ", ".join(f"{n} {e['sha256'][:12]}" for n, e in ref["files"].items()))
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
