"""Output checks applied to every benchmark operation.

Each check reads an operation's output directory and raises CheckFailed on
the first violation. ``check_outputs`` runs whichever content checks the
files present call for and returns the sha256 of every file, so the caller
can require identical artifacts when the same input runs again. Hashes are
never compared across commits: a later commit may add or change artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re

#: tolerance on |sum of a CLR row|; rows of magnitude ~10 sum to ~1e-14
CLR_SUM_TOL = 1e-9
#: relative slack when comparing consecutive merge distances
MERGE_RTOL = 1e-12

_ERROR_RECORD = re.compile(r"^[A-Z][A-Za-z0-9_]*:", re.MULTILINE)


class CheckFailed(Exception):
    pass


def input_ids(csv_text: str) -> list[str]:
    """Entity ids, in row order, of an indicator table CSV."""
    rows = csv.reader(csv_text.splitlines())
    next(rows)
    return [row[0] for row in rows]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_process(code: int, stderr: str) -> None:
    if code != 0:
        raise CheckFailed(f"exit code {code}: {stderr.strip()[-300:]}")
    match = _ERROR_RECORD.search(stderr)
    if match:
        line = stderr[match.start():].splitlines()[0]
        raise CheckFailed(f"error record on stderr: {line[:300]}")


def check_manifest(directory: str, digests: dict[str, str]) -> None:
    with open(os.path.join(directory, "manifest.json"), "rb") as handle:
        manifest = json.loads(handle.read())
    for entry in manifest["files"]:
        name = entry["name"]
        if name not in digests:
            raise CheckFailed(f"manifest lists missing file {name}")
        if digests[name] != entry["sha256"]:
            raise CheckFailed(f"manifest sha256 of {name} does not match the file")
        if os.path.getsize(os.path.join(directory, name)) != entry["bytes"]:
            raise CheckFailed(f"manifest size of {name} does not match the file")


def check_clr(path: str, n: int) -> None:
    rows = 0
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            values = [float(x) for x in line.rstrip("\n").split(",")[1:]]
            if abs(sum(values)) > CLR_SUM_TOL:
                raise CheckFailed(f"clr row {rows + 1} sums to {sum(values)!r}")
            rows += 1
    if rows != n:
        raise CheckFailed(f"clr.csv has {rows} rows for {n} entities")


def check_merges(path: str, n: int) -> None:
    with open(path, "rb") as handle:
        merges = json.loads(handle.read())["merges"]
    if len(merges) != n - 1:
        raise CheckFailed(f"{len(merges)} merges for {n} entities")
    distances = [m["distance"] for m in merges]
    for k in range(1, len(distances)):
        prev = distances[k - 1]
        if distances[k] < prev - MERGE_RTOL * abs(prev):
            raise CheckFailed(f"merge {k} distance decreases: {prev!r} -> {distances[k]!r}")


def check_ranking(path: str, ids: list[str]) -> None:
    seen = []
    previous = float("inf")
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for rank, line in enumerate(handle, start=1):
            eid, score, _, printed_rank = line.rstrip("\n").split(",")
            score = float(score)
            if score > previous or int(printed_rank) != rank:
                raise CheckFailed(f"{os.path.basename(path)} out of order at rank {rank}")
            previous = score
            seen.append(eid)
    if sorted(seen) != sorted(ids):
        raise CheckFailed(f"{os.path.basename(path)} does not cover the {len(ids)} ids")


def check_outputs(directory: str, ids: list[str]) -> dict[str, str]:
    """Run the content checks the directory's files call for; return digests."""
    names = sorted(os.listdir(directory))
    digests = {name: _sha256(os.path.join(directory, name)) for name in names}
    if "manifest.json" in digests:
        check_manifest(directory, digests)
    if "clr.csv" in digests:
        check_clr(os.path.join(directory, "clr.csv"), len(ids))
    if "merges.json" in digests:
        check_merges(os.path.join(directory, "merges.json"), len(ids))
    for name in names:
        if name.startswith("rankings_") and name.endswith(".csv"):
            check_ranking(os.path.join(directory, name), ids)
    return digests


def check_repeat(seen: dict, key, digests: dict[str, str]) -> None:
    """Require the same artifacts as the first operation with the same key."""
    first = seen.setdefault(key, digests)
    if first != digests:
        changed = sorted(n for n in set(first) | set(digests) if first.get(n) != digests.get(n))
        raise CheckFailed(f"artifacts differ on rerun of {key!r}: {changed}")
