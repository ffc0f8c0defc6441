"""Record the reference answers for the benchmark's random inputs.

    python3 bench/reference.py            # rewrite bench/reference.json

For every reference-checked input (random dense matrices, random direct
sums, balanced arrowheads with zeroed pairs) this stores the (k, method) that
`classify_any` returns, cross-checked once against `verify`.  Inputs whose
answer the search does not confirm stay in the benchmark and are listed under
"disagreements"; the benchmark checks later commits against the recorded
answer either way.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import commit_id, environment, import_package, pin_threads  # noqa: E402


def main() -> int:
    pin_threads()
    nl = import_package()
    import workloads

    answers, disagreements = {}, []
    t_start = time.perf_counter()
    for key, (a, kwargs) in workloads.reference_inputs(nl).items():
        res = nl.classify_any(a, **kwargs)
        rep = nl.verify(a, res.k)
        answers[key] = {
            "k": res.k,
            "method": res.method,
            "verify": {"match": rep.match, "status": rep.status, "search_k": rep.oracle.k_lower,
                       "escalations": rep.escalations},
        }
        if not rep.match:
            disagreements.append({"input": key, "k": res.k, "method": res.method, "search_k": rep.oracle.k_lower,
                                  "status": rep.status})
        print(f"{key:18s} k={res.k} {res.method:16s} verify={rep.status}", flush=True)
    doc = {
        "commit": commit_id(),
        "environment": environment(),
        "seconds": round(time.perf_counter() - t_start, 1),
        "reference_seed": workloads.REFERENCE_SEED,
        "disagreements": disagreements,
        "answers": answers,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{len(answers)} answers, {len(disagreements)} disagreements -> {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
