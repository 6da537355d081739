"""Inputs, timed operations and output checks of each workload.

Every call into ``dendro`` goes through a module attribute
(``anodyne.segal_certificate``, not a name imported from it), so that the
traced run's wrappers see the benchmark's own calls too.

A workload is three steps: ``setup`` builds the inputs (timed as part of
``setup_s``), ``run`` performs the operations (``wall_s``), ``check``
verifies the outputs afterwards, untimed and untraced.
"""

from __future__ import annotations

import hashlib
import json
import random

from dendro import anodyne, certify, complexes, faces, pushout, shuffles, trees

import oracle
from inputs import (
    CATALOG,
    LINEAR,
    LINEAR_VERTICES,
    PP_INNER,
    PP_STABLE,
    inner_label,
    segal_label,
    stable_label,
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def key_set(items) -> set:
    return {(tuple(sorted(i["edges"])), tuple(sorted(i["caps"]))) for i in items}


class Op:
    """One timed operation and what the checks need to know about it."""

    __slots__ = ("label", "kind", "args", "text", "cert", "accepted", "expect", "known_fault", "error")

    def __init__(self, label, kind, args, expect=None, known_fault=False):
        self.label = label
        self.kind = kind  # segal, pp-stable, pp-inner, or a verify case
        self.args = args
        self.expect = expect
        self.known_fault = known_fault
        # cert: the Certificate a producer made, or the class tag verify read
        self.text = self.cert = self.accepted = self.error = None


# ---------------------------------------------------------------------------
# Producers
# ---------------------------------------------------------------------------


def _segal_ops(dsls) -> list[Op]:
    return [Op(segal_label(d), "segal", (d, trees.parse_tree(d))) for d in dsls]


def _pp_ops() -> list[Op]:
    ops = []
    for s, t in PP_STABLE:
        ops.append(Op(stable_label(s, t), "pp-stable", (s, t, trees.parse_tree(s), trees.parse_tree(t))))
    for s, e, t in PP_INNER:
        ops.append(
            Op(inner_label(s, e, t), "pp-inner", (s, e, t, trees.parse_tree(s), trees.parse_tree(t)))
        )
    return ops


def _catalog_dsls() -> tuple[list[str], int]:
    catalog = list(trees.tree_catalog(*CATALOG))
    dsls = [trees.render_tree(pt) for pt in catalog if pt.tree.num_vertices() >= 2]
    return dsls, len(catalog)


def produce(op: Op) -> None:
    try:
        if op.kind == "segal":
            cert = anodyne.segal_certificate(op.args[1])
        elif op.kind == "pp-stable":
            cert = pushout.certify_pp_stable(op.args[2], op.args[3])
        else:
            cert = pushout.certify_pp_inner(op.args[3], op.args[1], op.args[4])
        op.cert = cert
        op.text = cert.dumps()
    except Exception as exc:  # an exception is a failed operation, reported by name
        op.error = f"{type(exc).__name__}: {exc}"


def check_producer(op: Op) -> list[str]:
    """Independent and property checks of one produced certificate."""
    if op.error:
        return [op.error]
    errs = []
    cert = op.cert
    data = json.loads(op.text)
    steps = data["steps"]
    reloaded = anodyne.Certificate.loads(op.text)
    verdict = certify.replay_certificate(reloaded)
    if not verdict.accepted:
        errs.append(f"genuine certificate rejected: {verdict.reason}")
    if op.kind in ("segal", "pp-inner"):
        if data["class"] != "operadic":
            errs.append(f"class {data['class']!r}, expected 'operadic'")
        if any(s["omit"]["kind"] != "inner" for s in steps):
            errs.append("a step is not inner")
    if op.kind == "segal":
        dsl, pt = op.args
        keys = faces.all_valid_face_keys(pt.tree)
        v, e = oracle.vertices_and_edges(dsl)
        if 2 * len(steps) != len(keys) - v - e:
            errs.append(f"2*{len(steps)} steps != {len(keys)} faces - {v} vertices - {e} edges")
        if key_set(data["base"]) != oracle.corolla_keys(dsl):
            errs.append("base is not the set of vertex corollas")
        if dsl == LINEAR:
            n = LINEAR_VERTICES
            if len(keys) != 2 ** (n + 1) - 1 or len(steps) != 2**n - n - 1:
                errs.append(f"linear tree: {len(keys)} faces, {len(steps)} steps")
    else:
        s_pt, t_pt = op.args[-2], op.args[-1]
        brute = shuffles.brute_force_shuffles(s_pt, t_pt)
        if len(cert.ambient.poset) != len(brute):
            errs.append(f"{len(cert.ambient.poset)} shuffles, brute force finds {len(brute)}")
        union = set()
        for sh in brute:
            union |= faces.all_valid_face_keys(sh.tree.tree)
        if set(cert.ambient.universe) != union:
            errs.append("tensor universe differs from the union over brute-force shuffles")
        if len(cert.base.members) + 2 * len(steps) != len(union):
            errs.append(
                f"|base| {len(cert.base.members)} + 2*{len(steps)} steps != |universe| {len(union)}"
            )
    return errs


# ---------------------------------------------------------------------------
# Verify: genuine certificates, seeded mutants, forged twins
# ---------------------------------------------------------------------------


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _with_steps(data: dict, steps: list) -> str:
    return _dump(dict(data, steps=steps))


def verify_ops(corpus: list[dict], seed: int) -> list[Op]:
    """Per certificate: the genuine text; a dropped step at a seeded position
    i and a duplicated step at n-1-i; adjacent swaps at k and n-2-k; the
    forged twin.  Mirrored positions keep the replay work of a round nearly
    independent of the seed."""
    rng = random.Random(seed)
    ops = []
    for entry in corpus:
        label, text = entry["label"], entry["text"]
        data = json.loads(text)
        steps = data["steps"]
        n = len(steps)
        ops.append(Op(label, "genuine", (entry["kind"], text), expect=True))
        i = rng.randrange(n)
        ops.append(Op(f"{label} drop {i}", "drop", (None, _with_steps(data, steps[:i] + steps[i + 1 :])), expect=False))
        j = n - 1 - i
        ops.append(Op(f"{label} dup {j}", "dup", (None, _with_steps(data, steps[: j + 1] + steps[j:])), expect=False))
        if n >= 2:
            k = rng.randrange(n - 1)
            for at in (k, n - 2 - k):
                swapped = list(steps)
                swapped[at], swapped[at + 1] = swapped[at + 1], swapped[at]
                expect = entry["independent"][at] == "1"
                ops.append(Op(f"{label} swap {at}", "swap", (None, _with_steps(data, swapped)), expect=expect))
        ops.append(Op(f"{label} forged", "forged", (None, entry["forged"]), expect=False, known_fault=True))
    return ops


def replay(op: Op) -> None:
    try:
        cert = anodyne.Certificate.loads(op.args[1])
        op.accepted = certify.replay_certificate(cert).accepted
        op.cert = cert.class_tag
    except Exception as exc:
        op.error = f"{type(exc).__name__}: {exc}"


def check_verify(op: Op) -> tuple[list[str], bool]:
    """Errors, and whether the op is a failure of the known forged-twin fault."""
    if op.error:
        return [op.error], False
    if op.accepted != op.expect:
        if op.known_fault:
            return [], True
        return [f"{op.label}: accepted={op.accepted}, expected {op.expect}"], False
    if op.kind == "genuine" and op.args[0] in ("segal", "pp-inner") and op.cert != "operadic":
        return [f"{op.label}: class {op.cert!r}, expected 'operadic'"], False
    return [], False


# ---------------------------------------------------------------------------
# Corpus for the verify workload
# ---------------------------------------------------------------------------


def _forged(op: Op, data: dict) -> str:
    """Same ambient, base = the maximal faces of the full complex, no steps,
    and the class an empty step list implies."""
    if op.kind == "segal":
        base = [oracle.full_face_key(op.args[0])]
    else:
        s_pt, t_pt = op.args[-2], op.args[-1]
        base = []
        for sh in shuffles.brute_force_shuffles(s_pt, t_pt):
            tr = sh.tree.tree
            base.append((tuple(sorted(tr.edges)), tuple(sorted(tr.stump_outputs))))
    base = [{"edges": list(e), "caps": list(c)} for e, c in sorted(base)]
    return _dump(dict(data, base=base, steps=[], **{"class": "operadic"}))


def _independent(text: str) -> str:
    """'1' at k when step k+1 needs neither face step k adds, so the two may
    be swapped; worked out from the step faces alone."""
    cert = anodyne.Certificate.loads(text)
    universe = complexes._universe_of(cert.ambient)
    added, needed = [], []
    for st in cert.steps:
        face = universe[st.face]
        efs = faces.all_elementary_faces(face)
        omit = next(ef for ef in efs if (ef.kind, ef.at) == (st.omit_kind, st.omit_at))
        added.append({face.key, omit.domain.key})
        need = {ef.domain.key for ef in efs if ef is not omit}
        need |= {ef.domain.key for ef in faces.all_elementary_faces(omit.domain)}
        needed.append(need)
    return "".join("0" if added[k] & needed[k + 1] else "1" for k in range(len(added) - 1))


def build_corpus() -> list[dict]:
    """Run the three producer workloads and keep every certificate."""
    dsls, _ = _catalog_dsls()
    ops = _segal_ops([LINEAR]) + _segal_ops(dsls) + _pp_ops()
    corpus = []
    for op in ops:
        produce(op)
        if op.error:
            raise RuntimeError(f"{op.label}: {op.error}")
        data = json.loads(op.text)
        corpus.append(
            {
                "label": op.label,
                "kind": op.kind,
                "text": op.text,
                "forged": _forged(op, data),
                "independent": _independent(op.text),
            }
        )
    return corpus


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, corpus_path: str | None):
        self.name = name
        self.seed = seed
        self.corpus_path = corpus_path
        self.ops: list[Op] = []
        self.catalog_size: int | None = None

    def setup(self) -> None:
        if self.name == "segal-linear":
            self.ops = _segal_ops([LINEAR])
        elif self.name == "segal-catalog":
            dsls, self.catalog_size = _catalog_dsls()
            self.ops = _segal_ops(dsls)
        elif self.name == "pp":
            self.ops = _pp_ops()
        elif self.name == "verify":
            with open(self.corpus_path, encoding="utf-8") as fh:
                corpus = json.load(fh)["corpus"]
            self.ops = verify_ops(corpus, self.seed)
        else:
            raise ValueError(f"unknown workload {self.name!r}")

    def run(self) -> None:
        step = replay if self.name == "verify" else produce
        for op in self.ops:
            step(op)

    def check(self, full: bool) -> dict:
        """Failed operations, known faults, errors and output digests.

        Without ``full`` a producer's outputs are only digested: a run checks
        them in full in one round, and every other round must match its
        digests.  Verdicts of the verify workload are always checked.
        """
        failed = known = 0
        errors = []
        if full and self.catalog_size is not None:
            expected = oracle.catalog_count(*CATALOG)
            if self.catalog_size != expected:
                errors.append(f"tree_catalog{CATALOG} has {self.catalog_size} trees, expected {expected}")
                failed += 1
        digests = {}
        for op in self.ops:
            if self.name == "verify":
                errs, fault = check_verify(op)
                known += fault
                digests[op.label] = "1" if op.accepted else "0"
            else:
                errs, fault = (check_producer(op) if full else [op.error] if op.error else []), False
                if op.text is not None:
                    digests[op.label] = sha(op.text)
            if errs or fault:
                failed += 1
            errors.extend(f"{op.label}: {e}" for e in errs)
        combined = sha("\n".join(f"{k} {v}" for k, v in digests.items()))
        keep = digests if self.name != "verify" else {}
        return {
            "attempted": len(self.ops),
            "failed": failed,
            "known_faults": known,
            "errors": errors[:20],
            "error_count": len(errors),
            "digest": combined,
            "digests": keep,
        }
