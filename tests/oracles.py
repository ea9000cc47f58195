"""Independent reference implementations the tests compare against.

Everything here is written from the behavioral contracts alone and avoids the
production code paths: the chain matcher works on raw call equality instead of
encoded vectors, the graph oracle enumerates simple paths with networkx, the
reference encoder concatenates the documented blocks one by one, and the
scalar helpers use plain Python arithmetic.  The reference monitor step takes
``cosine()`` from here, the program's formula written out on its own, so it
checks the step's bookkeeping, its precomputed norms and its similarity bits.
The gradient check takes central differences of the program's own loss, so it
checks the analytic backward pass against the forward one.  The reference
training step writes its forward pass out of place and its loss as the
two-log formula, so it checks the step's forward pass, loss and relu masks to
the bit; the reference training loop adds full-set losses from one forward
over every row and out-of-place updates.
"""

from __future__ import annotations

import math
from collections import Counter

import networkx as nx
import numpy as np

from chainwatch.sdg import FLOW_LABELS, Sdg, VulnQuery, template_matches
from chainwatch.encoder import tokenize_api_name
from chainwatch.mlp import MlpModel, bce_loss, forward, init_model, loss_and_grads
from chainwatch.trace import InstructionCall
from chainwatch.vocab import CATEGORIES, SCOPES


class NaiveChainMatcher:
    """Per-exploit pointer scan over exact call equality.

    Every exploit is checked on every fed call.  A call equal to the exploit's
    next expected template advances it; completing the chain records an
    (exploit_id, offset) alarm and rewinds to the start.
    """

    def __init__(self, chains: dict[int, list[InstructionCall]]):
        self.chains = {e: list(c) for e, c in chains.items()}
        self.position = {e: 0 for e in chains}
        self.alarms: list[tuple[int, int]] = []

    def feed(self, call: InstructionCall, offset: int) -> None:
        for e in sorted(self.chains):
            if call == self.chains[e][self.position[e]]:
                self.position[e] += 1
                if self.position[e] == len(self.chains[e]):
                    self.alarms.append((e, offset))
                    self.position[e] = 0

    def run(self, calls, skip_names=frozenset()) -> list[tuple[int, int]]:
        for offset, call in enumerate(calls):
            if call.api_name in skip_names:
                continue
            self.feed(call, offset)
        return self.alarms


def cosine(a, b) -> float:
    """Cosine similarity of two equal-length vectors; a zero norm maps to 0.0.

    The quotient of one dot product by the two norms, clamped to [-1, 1]: the
    arithmetic of ``StateTable.step``, so the two agree to the bit.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"cosine expects equal-length vectors, got {a.shape} and {b.shape}")
    norm_a, norm_b = float(np.sqrt(a @ a)), float(np.sqrt(b @ b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return min(1.0, max(-1.0, float(a @ b) / (norm_a * norm_b)))


def reference_step(db, cursors, candidates, x, trace_offset, threshold):
    """One monitor step as the contract states it, with ``cosine()`` per candidate.

    ``cursors`` maps exploit id -> index of its next template and is updated in
    place.  Each candidate, once and in ascending id order, is compared with
    its next template row of ``template_vectors``, both norms taken afresh; a
    similarity at or above ``threshold`` advances it, or on the last template
    alarms and rewinds it to 0.  Returns one ``(kind name, exploit id, cwe id,
    offset, similarity)`` tuple per candidate.
    """
    out = []
    for eid in sorted(set(candidates)):
        fp = db[eid]
        i = cursors[eid]
        sim = cosine(x, fp.template_vectors[i])
        if sim < threshold:
            kind = "NO_MATCH"
        elif i == len(fp.templates) - 1:
            cursors[eid] = 0
            kind = "ALARM"
        else:
            cursors[eid] = i + 1
            kind = "ADVANCED"
        out.append((kind, eid, fp.cwe_id, trace_offset, sim))
    return out


def brute_force_flows(sdg: Sdg, query: VulnQuery):
    """All qualifying flows by exhaustive simple-path enumeration.

    Returns {(source_node, sink_node): set of minimal emitted sequences},
    where a sequence is the tuple of instructions on statement nodes along a
    path over data/call/param_in/param_out edges, and minimality is by number
    of instruction-carrying statement nodes.  Only usable on small graphs.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(sdg.nodes)
    for src, dst, label in sdg.edges:
        if label in FLOW_LABELS:
            graph.add_edge(src, dst)

    sources = [
        nid for nid, node in sdg.nodes.items()
        if any(template_matches(node.call, t) for t in query.sources)
    ]
    sinks = [
        nid for nid, node in sdg.nodes.items()
        if any(template_matches(node.call, t) for t in query.sinks)
    ]

    def emitted(path):
        return tuple(
            sdg.nodes[n].call
            for n in path
            if sdg.nodes[n].kind == "statement" and sdg.nodes[n].call is not None
        )

    flows = {}
    for s in sources:
        for k in sinks:
            if s == k or not graph.has_node(s) or not graph.has_node(k):
                continue
            sequences = [emitted(p) for p in nx.all_simple_paths(graph, s, k)]
            sequences = [seq for seq in sequences if seq]
            if not sequences:
                continue
            best = min(len(seq) for seq in sequences)
            flows[(s, k)] = {seq for seq in sequences if len(seq) == best}
    return flows


def scalar_metrics(tp: int, fp: int, tn: int, fn: int) -> dict[str, float]:
    """Accuracy/precision/recall/F1 from first principles, zero-safe."""
    total = tp + fp + tn + fn
    acc = (tp + tn) / total if total else 0.0
    prec = tp / (tp + fp) if (tp + fp) else 0.0
    rec = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * prec * rec / (prec + rec) if (prec + rec) else 0.0
    return {"accuracy": acc, "precision": prec, "recall": rec, "f1": f1}


def reference_confusion(predicted, actual, labels: int) -> list[tuple[int, int, int, int]]:
    """Per-label ``(tp, fp, tn, fn)``, recounted one (row, label) element at a time."""
    counts = [[0, 0, 0, 0] for _ in range(labels)]
    for row_p, row_a in zip(predicted, actual):
        for label, (p, a) in enumerate(zip(row_p, row_a)):
            if p and a:
                counts[label][0] += 1
            elif p:
                counts[label][1] += 1
            elif a:
                counts[label][3] += 1
            else:
                counts[label][2] += 1
    return [tuple(c) for c in counts]


def reference_loss_and_grads(model: MlpModel, x: np.ndarray, t: np.ndarray):
    """``loss_and_grads`` with its forward pass written out of place, keeping
    the pre-activations ``z1`` and ``z2`` and taking the relu masks from them."""
    n = x.shape[0]
    z1 = x @ model.w1.T + model.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ model.w2.T + model.b2
    h2 = np.maximum(z2, 0.0)
    y = reference_sigmoid(h2 @ model.w3.T + model.b3)
    dz3 = (y - t) / (n * t.shape[1])
    dz2 = (dz3 @ model.w3) * (z2 > 0.0)
    dz1 = (dz2 @ model.w2) * (z1 > 0.0)
    grads = {
        "w1": dz1.T @ x, "b1": dz1.sum(axis=0),
        "w2": dz2.T @ h1, "b2": dz2.sum(axis=0),
        "w3": dz3.T @ h2, "b3": dz3.sum(axis=0),
    }
    return reference_bce_loss(y, t), grads


def reference_bce_loss(y: np.ndarray, t: np.ndarray) -> float:
    """Mean binary cross-entropy as the two-log formula over every element,
    with probabilities clamped to [1e-7, 1 - 1e-7]."""
    y = np.clip(y, 1e-7, 1.0 - 1e-7)
    return float(-np.mean(t * np.log(y) + (1.0 - t) * np.log(1.0 - y)))


def reference_logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The logits as the ``x @ w.T`` chain, one out-of-place expression per
    layer, for one row of shape (151,) or a batch of shape (n, 151)."""
    h1 = np.maximum(x @ model.w1.T + model.b1, 0.0)
    h2 = np.maximum(h1 @ model.w2.T + model.b2, 0.0)
    return h2 @ model.w3.T + model.b3


def _reference_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return reference_sigmoid(reference_logits(model, x))


def reference_train(x: np.ndarray, t: np.ndarray, config):
    """``mlp.train`` as a plain loop: ``(model, initial loss, epoch losses,
    final loss)``.  Each full-set loss comes from one forward over every row,
    each step from :func:`reference_loss_and_grads`, and each update is the
    out-of-place ``w - lr * grad``."""
    model = init_model(config.seed)
    rng = np.random.default_rng(config.seed)
    initial_loss = reference_bce_loss(_reference_forward(model, x), t)
    epoch_losses = []
    n = x.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = reference_loss_and_grads(model, x[idx], t[idx])
            batch_losses.append(loss)
            for name, grad in grads.items():
                setattr(model, name, getattr(model, name) - config.learning_rate * grad)
        epoch_losses.append(float(np.mean(batch_losses)))
    final_loss = reference_bce_loss(_reference_forward(model, x), t)
    return model, initial_loss, epoch_losses, final_loss


def straight_line_forward(x, w1, b1, w2, b2, w3, b3):
    """The three-layer forward pass as explicit Python loops and math.exp."""
    h1 = []
    for i in range(len(b1)):
        s = b1[i]
        for j in range(len(x)):
            s += w1[i][j] * x[j]
        h1.append(s if s > 0 else 0.0)
    h2 = []
    for i in range(len(b2)):
        s = b2[i]
        for j in range(len(h1)):
            s += w2[i][j] * h1[j]
        h2.append(s if s > 0 else 0.0)
    y = []
    for i in range(len(b3)):
        s = b3[i]
        for j in range(len(h2)):
            s += w3[i][j] * h2[j]
        y.append(1.0 / (1.0 + math.exp(-s)))
    return y


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic in the masked form: ``1 / (1 + exp(-z))`` gathered over
    ``z >= 0`` and ``exp(z) / (1 + exp(z))`` over the rest, scattered back."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_encode(call: InstructionCall, table, vocabs) -> np.ndarray:
    """The 151-component vector as the layout documents it, block by block.

    Name: the embeddings of the first seven name tokens, concatenated and
    zero-padded to 70.  Then one-hot category (9), scope (2) and package (22),
    then the multiplicity of each I/O type among the inputs (24) and among the
    outputs (24).  ``table`` maps a token to its 10-vector.
    """
    tokens = tokenize_api_name(call.api_name)[:7]
    name = np.zeros(70)
    for i, token in enumerate(tokens):
        name[10 * i : 10 * (i + 1)] = table.lookup(token)

    def one_hot(index, size):
        out = np.zeros(size)
        out[index] = 1.0
        return out

    def counts(items):
        out = np.zeros(len(vocabs.io_types))
        for item, n in Counter(items).items():
            out[vocabs.io_types.index(item)] = float(n)
        return out

    return np.concatenate([
        name,
        one_hot(CATEGORIES.index(call.category), len(CATEGORIES)),
        one_hot(SCOPES.index(call.scope), len(SCOPES)),
        one_hot(vocabs.packages.index(call.package), len(vocabs.packages)),
        counts(call.inputs),
        counts(call.outputs),
    ])


def grad_check(
    model: MlpModel,
    x: np.ndarray,
    t: np.ndarray,
    eps: float = 1e-5,
    samples_per_tensor: int = 20,
    seed: int = 0,
    grad_fn=None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples ``samples_per_tensor`` coordinates from each of the six parameter
    tensors (120 total by default).  Relative error uses a 1e-6 floor so that
    coordinates with vanishing true gradient do not amplify round-off noise.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    if grad_fn is None:
        grad_fn = lambda m: loss_and_grads(m, x, t)[1]
    grads = grad_fn(model)
    rng = np.random.default_rng(seed)
    work = MlpModel(*(arr.copy() for _, arr in model.tensors()), seed=model.seed)
    worst = 0.0
    for name, arr in work.tensors():
        flat = arr.reshape(-1)
        count = min(samples_per_tensor, flat.size)
        for j in rng.choice(flat.size, size=count, replace=False):
            orig = flat[j]
            flat[j] = orig + eps
            loss_plus = bce_loss(forward(work, x), t)
            flat[j] = orig - eps
            loss_minus = bce_loss(forward(work, x), t)
            flat[j] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            analytic = grads[name].reshape(-1)[j]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, err)
    return worst
