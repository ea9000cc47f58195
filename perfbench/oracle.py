"""Independent alarm oracle and the checks that compare detection output to it.

The oracle is written from the detection contract alone and reads the raw
files itself: it imports nothing from ``chainwatch``.  It is an exact-equality
chain matcher.  Per exploit there is a cursor over the exploit's template
calls; a non-white-listed call equal to the template under the cursor advances
it, completing the chain records an ``(offset, exploit_id)`` alarm and rewinds
the cursor to the start.  Any other call leaves the cursor where it is.

The engine matches by cosine similarity of encoded calls instead, so the two
agree exactly only while no call encodes to cosine >= the engine's threshold
against a template it is not equal to.  ``max_foreign_cosine`` measures that
condition on a workload's own inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Equality key of one call: inputs and outputs are multisets, so order is ignored.
CallKey = tuple


def call_key(record: dict) -> CallKey:
    return (
        record["api_name"],
        record["category"],
        record["scope"],
        record["package"],
        tuple(sorted(record["inputs"])),
        tuple(sorted(record["outputs"])),
    )


def read_chains(fp_path: Path) -> dict[int, tuple[CallKey, ...]]:
    """Exploit id -> ordered template keys, from a fingerprint file."""
    chains: dict[int, list[CallKey]] = {}
    current = None
    for line in Path(fp_path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if "exploit_id" in obj:
            current = chains.setdefault(obj["exploit_id"], [])
        else:
            obj.pop("role", None)
            current.append(call_key(obj))
    return {eid: tuple(keys) for eid, keys in chains.items()}


def read_whitelist(path: Path) -> frozenset[str]:
    names = (line.strip() for line in Path(path).read_text().splitlines())
    return frozenset(n for n in names if n and not n.startswith("#"))


class ChainOracle:
    def __init__(self, chains: dict[int, tuple[CallKey, ...]], skip_names: frozenset[str]):
        self.chains = chains
        self.skip_names = skip_names
        # Template key -> exploits whose chain holds it, so a scan touches only
        # the cursors a call can possibly move.
        self._holders: dict[CallKey, list[int]] = {}
        for eid, keys in chains.items():
            for key in set(keys):
                self._holders.setdefault(key, []).append(eid)

    def scan(self, keys: list[CallKey]) -> list[tuple[int, int]]:
        """Alarms ``(offset, exploit_id)`` for one trace, from fresh cursors."""
        cursor = dict.fromkeys(self.chains, 0)
        alarms = []
        for offset, key in enumerate(keys):
            if key[0] in self.skip_names:
                continue
            for eid in self._holders.get(key, ()):
                chain = self.chains[eid]
                if chain[cursor[eid]] == key:
                    cursor[eid] += 1
                    if cursor[eid] == len(chain):
                        alarms.append((offset, eid))
                        cursor[eid] = 0
        return sorted(alarms)


def keys_of_text(text: str) -> list[CallKey]:
    return [call_key(json.loads(line)) for line in text.splitlines() if line.strip()]


def max_foreign_cosine(
    vectors: dict[CallKey, np.ndarray], templates: set[CallKey]
) -> float:
    """Largest cosine between a template and any other call that is not equal to it.

    ``vectors`` maps every distinct non-white-listed call of the inputs, and
    every template, to its encoding.
    """
    keys = list(vectors)
    mat = np.stack([vectors[k] for k in keys])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    cols = [i for i, k in enumerate(keys) if k in templates]
    sims = mat @ mat[cols].T
    for j, i in enumerate(cols):
        sims[i, j] = -1.0
    return float(sims.max())


def failed_segments(engine, oracle, truth) -> list[bool]:
    """Per operation: did the engine's alarms differ from the oracle's or the truth's?

    Each argument is a list with one entry per operation: the set of alarms
    that fell into it.  ``truth`` entries are compared with the engine's
    alarms through ``truth_matches``.
    """
    return [e != o or not truth_matches(e, t) for e, o, t in zip(engine, oracle, truth)]


def truth_matches(alarms, truth) -> bool:
    """Ground truth is the exploit ids whose chains complete, without offsets."""
    return sorted(eid for _, eid in alarms) == sorted(truth)


def self_test(oracle_alarms: list, truth: list) -> None:
    """The checks must count a dropped alarm and a shifted offset as failures."""
    op = next(i for i, alarms in enumerate(oracle_alarms) if alarms)
    dropped = list(oracle_alarms)
    dropped[op] = oracle_alarms[op][1:]
    shifted = list(oracle_alarms)
    offset, eid = oracle_alarms[op][0]
    shifted[op] = [(offset + 1, eid), *oracle_alarms[op][1:]]
    for name, fake in (("dropped alarm", dropped), ("shifted offset", shifted)):
        if sum(failed_segments(fake, oracle_alarms, truth)) != 1:
            raise SystemExit(f"self-test: the checker did not count a {name} as a failure")
    if sum(failed_segments(oracle_alarms, oracle_alarms, truth)) != 0:
        raise SystemExit("self-test: the oracle disagrees with the ground truth")
