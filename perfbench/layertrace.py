"""Spans and counters at the layer boundaries of ``dendro``, from outside it.

``install`` replaces each listed public function or method by a wrapper
wherever a ``dendro`` module holds a reference to it, so calls between
modules go through the wrapper.  A wrapper records one span per call (name,
start, end, parent span) in flat arrays kept in memory; ``Tracer.dump``
writes them out and ``Tracer.summary`` turns them into per-layer totals,
self times and counts.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

from dendro import anodyne, certify, complexes, faces, order, pushout, shuffles, trees


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 unless nested in a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._active: dict[int, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        # trees that are inputs or shuffles; any other poset build is over a face
        self.root_trees: set = set()

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(0 if self._active[nid] else 1)
        self._active[nid] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[sid]] -= 1

    def spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind(self, orig, wrapper) -> None:
        """Point every ``dendro`` module-level reference to ``orig`` at
        ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dendro" or modname.startswith("dendro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _patch(self, cls, attr: str, value) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def install(self) -> None:
        counts = self.counts
        roots = self.root_trees

        def wrap(fn, name, after=None):
            self._rebind(fn, self.spanned(name, fn, after))

        # trees
        orig_catalog = trees.tree_catalog

        @functools.wraps(orig_catalog)
        def catalog(*args, **kwargs):
            sid = self.begin("trees.catalog")
            try:
                for pt in orig_catalog(*args, **kwargs):
                    roots.add(pt.tree)
                    yield pt
            finally:
                self.finish(sid)

        self._rebind(orig_catalog, catalog)
        wrap(trees.parse_tree, "trees.parse", lambda a, pt: roots.add(pt.tree))

        # faces
        wrap(faces.enumerate_sub, "faces.enumerate_sub")
        wrap(faces.all_elementary_faces, "faces.elementary_faces")
        poset_init = faces.SubPoset.__init__

        def sub_init(poset, ambient):
            poset_init(poset, ambient)
            counts["sub_builds"] += 1
            counts["sub_faces"] += len(poset.faces)
            if ambient not in roots:
                counts["sub_builds_face"] += 1

        self._patch(faces.SubPoset, "__init__", sub_init)
        face_init = faces.Face.__init__

        def face_new(face, *args, **kwargs):
            counts["face_objects"] += 1
            face_init(face, *args, **kwargs)

        self._patch(faces.Face, "__init__", face_new)

        # order
        wrap(order.compare_face_maps, "order.compare")

        # complexes: the universe is reached through _universe_of for every
        # ambient and through the property for tensors; one name for both so
        # a nested call is not counted twice
        wrap(complexes._universe_of, "complexes.universe")
        prop = complexes.TensorAmbient.universe
        self._patch(
            complexes.TensorAmbient,
            "universe",
            property(self.spanned("complexes.universe", prop.fget)),
        )
        wrap(complexes.closure, "complexes.closure")
        self._patch(
            complexes.FaceComplex,
            "maximal_members",
            self.spanned("complexes.maximal_members", complexes.FaceComplex.maximal_members),
        )

        # shuffles
        def shuffles_out(args, poset):
            counts["shuffles"] += len(poset)
            for sh in poset:
                roots.add(sh.tree.tree)

        wrap(shuffles.enumerate_shuffles, "shuffles.enumerate", shuffles_out)

        # anodyne
        def es_out(args, _):
            counts["members"] += len(args[0].members)

        self._patch(
            anodyne.ExtensionSet,
            "__init__",
            self.spanned("anodyne.extension_set", anodyne.ExtensionSet.__init__, es_out),
        )
        wrap(anodyne.check_axioms, "anodyne.check_axioms")
        wrap(anodyne.canonical_extensions, "anodyne.canonical")
        wrap(anodyne.filtration_steps, "anodyne.filtration_steps")

        def cert_out(cert, text):
            counts["steps"] += len(cert.steps)
            counts["cert_bytes"] += len(text.encode())

        self._patch(
            anodyne.Certificate,
            "dumps",
            self.spanned(
                "anodyne.dumps", anodyne.Certificate.dumps, lambda a, text: cert_out(a[0], text)
            ),
        )
        self._patch(
            anodyne.Certificate,
            "loads",
            staticmethod(
                self.spanned(
                    "anodyne.loads",
                    anodyne.Certificate.loads,
                    lambda a, cert: cert_out(cert, a[0]),
                )
            ),
        )

        # pushout
        for method, name in (
            ("base_complex", "pushout.base_complex"),
            ("local_base", "pushout.local_base"),
        ):
            self._patch(
                pushout.PPContext, method, self.spanned(name, getattr(pushout.PPContext, method))
            )
        wrap(pushout.black_root_extension_set, "pushout.extension_set")
        wrap(pushout.white_root_extension_set, "pushout.extension_set")

        # certify
        def replay_out(args, _):
            counts["replay_steps"] += len(args[0].steps)

        wrap(certify.replay_certificate, "certify.replay", replay_out)

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["outer", "b"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)

    def summary(self) -> dict:
        """Per span name: calls, total (outermost spans only) and self time."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        inner = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                inner[p] += dur[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - inner[i]
            if self.outer[i]:
                rec["total_s"] += dur[i]
        return out


def layer_metrics(tracer: Tracer, spans: dict) -> dict:
    """The per-layer metrics of one traced run, by name, from its counters
    and the ``Tracer.summary`` of its spans."""
    counts = tracer.counts

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    sub_calls = calls("faces.enumerate_sub")
    return {
        "trees.catalog_s": total("trees.catalog"),
        "trees.parse_s": total("trees.parse"),
        "faces.enumerate_sub_s": total("faces.enumerate_sub"),
        "faces.sub_calls": sub_calls,
        "faces.sub_builds": counts["sub_builds"],
        "faces.sub_hit_ratio": (sub_calls - counts["sub_builds"]) / sub_calls if sub_calls else 0.0,
        "faces.sub_builds_face": counts["sub_builds_face"],
        "faces.sub_faces": counts["sub_faces"],
        "faces.face_objects": counts["face_objects"],
        "faces.elementary_faces_s": total("faces.elementary_faces"),
        "faces.elementary_faces_calls": calls("faces.elementary_faces"),
        "order.compare_s": total("order.compare"),
        "complexes.universe_s": total("complexes.universe"),
        "complexes.closure_s": total("complexes.closure"),
        "complexes.maximal_members_s": total("complexes.maximal_members"),
        "shuffles.enumerate_s": total("shuffles.enumerate"),
        "shuffles.count": counts["shuffles"],
        "anodyne.extension_set_s": total("anodyne.extension_set"),
        "anodyne.extension_sets": calls("anodyne.extension_set"),
        "anodyne.members": counts["members"],
        "anodyne.check_axioms_s": total("anodyne.check_axioms"),
        "anodyne.canonical_s": total("anodyne.canonical"),
        "anodyne.descent_s": spans.get("anodyne.filtration_steps", {}).get("self_s", 0.0),
        "anodyne.steps": counts["steps"],
        "anodyne.cert_bytes": counts["cert_bytes"],
        "anodyne.dumps_s": total("anodyne.dumps"),
        "anodyne.loads_s": total("anodyne.loads"),
        "pushout.base_complex_s": total("pushout.base_complex"),
        "pushout.local_base_s": total("pushout.local_base"),
        "pushout.extension_set_s": total("pushout.extension_set"),
        "certify.replay_s": total("certify.replay"),
        "certify.replays": calls("certify.replay"),
        "certify.replay_steps": counts["replay_steps"],
        "trace.spans": len(tracer.start),
    }
