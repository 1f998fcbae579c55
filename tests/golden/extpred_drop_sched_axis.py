#!/usr/bin/env python3
"""Check an ext_predictors artifact against one that still had a
scheduler axis.

Usage: extpred_drop_sched_axis.py OLD.json NEW.json

OLD is ext_predictors_results.json from a build whose grid swept
predictor x result buses x scheduler (event|scan) x registers, with
experiment names ending in "-event" or "-scan".  NEW is the same
artifact from a build with one scheduler and no scheduler axis.

The script keeps OLD's "-event" experiments, strips that suffix from
their names, and requires the result to equal NEW member for member,
in order.  Numbers are compared as their literal text, so a change in
number formatting fails too.  The extpred/ line of
ci_scale2_optional.sha256 was regenerated only after this printed OK
for the two artifacts at DRSIM_SCALE=2.
"""

import hashlib
import json
import sys

SUFFIX = "-event"


def load(path):
    with open(path, "rb") as f:
        raw = f.read()
    doc = json.loads(raw, object_pairs_hook=list, parse_float=str,
                     parse_int=str)
    return raw, doc


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old_raw, old = load(sys.argv[1])
    new_raw, new = load(sys.argv[2])

    filtered = []
    for key, value in old:
        if key == "experiments":
            kept = []
            for exp in value:
                members = dict(exp)
                if not members["name"].endswith(SUFFIX):
                    continue
                kept.append([(k, v[:-len(SUFFIX)] if k == "name" else v)
                             for k, v in exp])
            value = kept
        filtered.append((key, value))

    old_n = len(dict(old)["experiments"])
    kept_n = len(dict(filtered)["experiments"])
    new_n = len(dict(new)["experiments"])
    print(f"old: {old_n} experiments, sha256 "
          f"{hashlib.sha256(old_raw).hexdigest()}")
    print(f"old filtered to *{SUFFIX}: {kept_n} experiments")
    print(f"new: {new_n} experiments, sha256 "
          f"{hashlib.sha256(new_raw).hexdigest()}")
    if filtered != new:
        sys.exit("MISMATCH: new artifact differs from the filtered old one")
    print("OK: new artifact equals the old one filtered to the "
          f"*{SUFFIX} experiments with the suffix stripped")


if __name__ == "__main__":
    main()
