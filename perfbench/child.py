"""One pipeline process, optionally traced.

    python3 perfbench/child.py [--spans FILE] cli ARG...      hypnopipe CLI, one command
    python3 perfbench/child.py [--spans FILE] steps FILE.json  several CLI commands in turn
    python3 perfbench/child.py [--spans FILE] cohort IN_DIR OUT_DIR [--columns N]

With ``--spans`` every public function of the hypnopipe layers is wrapped
before the work starts, and the spans go to FILE as JSON when it ends.  The
hypnopipe package is taken from PYTHONPATH, as the runner sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

import tracer


def cohort_fit(in_dir: str, out_dir: str, columns: int | None = None) -> None:
    """Features for every night, then RFE, a GP fit, its scores and their ROC.

    ``columns`` keeps only the first feature columns for RFE and the GP.
    """
    import gen
    from hypnopipe import diagnosis

    probs = np.load(os.path.join(in_dir, "probs.npy"))
    labels = np.load(os.path.join(in_dir, "labels.npy"))
    X = gen.feature_matrix(probs)
    Xs = X[:, :columns] if columns else X
    sel = diagnosis.rfe(Xs, labels)
    cols = sel.selected if len(sel.selected) else np.arange(Xs.shape[1])
    y = np.where(labels > 0, 1.0, -1.0)
    model = diagnosis.gp_fit(Xs[:, cols], y)
    scores, _ = diagnosis.gp_predict(model, Xs[:, cols])
    roc = diagnosis.evaluate(scores, labels > 0)

    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "features.npy"), X)
    model.save(out_dir)
    with open(os.path.join(out_dir, "selection.json"), "w") as f:
        json.dump({"selected": cols.tolist(), "frequency": sel.frequency.tolist()}, f)
    with open(os.path.join(out_dir, "scores.csv"), "w") as f:
        f.write("score,label\n")
        f.writelines(f"{float(s)!r},{int(t)}\n" for s, t in zip(scores, labels))
    with open(os.path.join(out_dir, "evaluation.json"), "w") as f:
        json.dump({k: roc[k] for k in ("auc", "sensitivity", "specificity")}, f)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="child.py")
    p.add_argument("--spans")
    p.add_argument("kind", choices=("cli", "steps", "cohort"))
    p.add_argument("rest", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import hypnopipe.cli                                       # imports every layer
    import_s = time.perf_counter() - t0
    trace = tracer.Tracer() if args.spans else None
    if trace:
        trace.install()
    try:
        if args.kind == "cli":
            code = hypnopipe.cli.main(args.rest)
        elif args.kind == "steps":
            with open(args.rest[0]) as f:
                steps = json.load(f)
            code = 0
            for step in steps:
                code = hypnopipe.cli.main(step)
                if code:
                    break
        else:
            c = argparse.ArgumentParser(prog="child.py cohort")
            c.add_argument("in_dir")
            c.add_argument("out_dir")
            c.add_argument("--columns", type=int)
            ca = c.parse_args(args.rest)
            cohort_fit(ca.in_dir, ca.out_dir, ca.columns)
            code = 0
    finally:
        if trace:
            trace.restore()
            with open(args.spans, "w") as f:
                json.dump({"import_s": import_s,
                           "spans": [s.to_list() for s in trace.spans]}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
