"""Command-line front end.

Exit codes: 0 success or certificate accepted, 1 verification failed,
2 parse, usage or malformed-certificate error or an unreadable file,
3 precondition violation (inadmissible pair, missing edge or vertex, or a
``faces``, ``shuffles``, ``dot --s`` or producer input over the size bound
that ``verify`` checks).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dot
from .anodyne import segal_certificate
from .certify import Certificate, replay_certificate
from .complexes import MalformedCertificateError, bounded_tensor, bounded_tree, key_to_json
from .faces import FaceError, enumerate_sub
from .order import edge_order
from .pushout import InadmissiblePairError, certify_pp_inner, certify_pp_stable
from .trees import TreeError, TreeParseError, classify, parse_tree, render_tree


def _write(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _dump(data, out: str | None) -> None:
    _write(json.dumps(data, indent=2, sort_keys=True), out)


def cmd_parse(args) -> int:
    pt = parse_tree(args.t)
    info = classify(pt.tree)
    _dump(
        {
            "canonical": render_tree(pt),
            "edges": sorted(pt.tree.edges),
            "leaves": sorted(pt.tree.leaves),
            "stumps": sorted(pt.tree.stump_outputs),
            "inner": sorted(info.inner_edges),
            "is_open": info.is_open,
            "is_linear": info.is_linear,
            "is_corolla": info.is_corolla,
            "edge_order": edge_order(pt).sorted(pt.tree.edges),
        },
        args.out,
    )
    return 0


def cmd_faces(args) -> int:
    pt = parse_tree(args.t)
    sub = enumerate_sub(bounded_tree(pt.tree))
    if args.format == "dot":
        _write("\n".join(dot.face_dot(f, name=f"face{i}") for i, f in enumerate(sub)), args.out)
        return 0
    _dump(
        {
            "tree": render_tree(pt),
            "count": len(sub),
            "faces": [key_to_json(f.key) for f in sub],
        },
        args.out,
    )
    return 0


def _write_shuffles_dot(poset, args) -> None:
    """The percolation poset with ``--poset``, else one graph per shuffle."""
    if args.poset:
        _write(dot.poset_dot(poset), args.out)
    else:
        graphs = (dot.shuffle_dot(sh, name=f"R{i + 1}") for i, sh in enumerate(poset))
        _write("\n".join(graphs), args.out)


def cmd_shuffles(args) -> int:
    s, t = parse_tree(args.s), parse_tree(args.t)
    poset = bounded_tensor(s, t).poset
    if args.count:
        _write(str(len(poset)), args.out)
        return 0
    if args.format == "dot":
        _write_shuffles_dot(poset, args)
        return 0
    data = {
        "count": len(poset),
        "shuffles": [list(sh.key) for sh in poset],
    }
    if args.poset:
        data["covers"] = [list(c) for c in poset.covers]
    _dump(data, args.out)
    return 0


def cmd_segal_cert(args) -> int:
    pt = parse_tree(args.t)
    cert = segal_certificate(pt)
    _write(cert.dumps(), args.out)
    return 0


def cmd_pp_stable(args) -> int:
    cert = certify_pp_stable(parse_tree(args.s), parse_tree(args.t))
    _write(cert.dumps(), args.out)
    return 0


def cmd_pp_inner(args) -> int:
    cert = certify_pp_inner(parse_tree(args.s), args.e, parse_tree(args.t))
    _write(cert.dumps(), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.cert == "-":
        text = sys.stdin.read()
    else:
        with open(args.cert, encoding="utf-8") as fh:
            text = fh.read()
    cert = Certificate.loads(text)
    verdict = replay_certificate(cert)
    if verdict.accepted:
        sys.stdout.write("accepted\n")
        return 0
    at = "" if verdict.step_index is None else f" at step {verdict.step_index}"
    sys.stderr.write(f"rejected{at}: {verdict.reason}\n")
    return 1


def cmd_dot(args) -> int:
    if args.s:
        _write_shuffles_dot(bounded_tensor(parse_tree(args.s), parse_tree(args.t)).poset, args)
    else:
        _write(dot.tree_dot(parse_tree(args.t)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendro",
        description="Tree-face combinatorics and anodyne-extension certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output path or '-' for stdout")
        return p

    p = add("parse", cmd_parse, help="parse a tree and report its structure")
    p.add_argument("--t", required=True, help="tree DSL")

    p = add("faces", cmd_faces, help="enumerate all faces of a tree")
    p.add_argument("--t", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = add("shuffles", cmd_shuffles, help="enumerate the shuffles of a tensor")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--poset", action="store_true", help="include the cover relation")
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = add("segal-cert", cmd_segal_cert, help="certificate for the Segal core inclusion")
    p.add_argument("--t", required=True)

    p = add("pp-stable", cmd_pp_stable, help="stable pushout-product certificate")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)

    p = add("pp-inner", cmd_pp_inner, help="inner pushout-product certificate")
    p.add_argument("--s", required=True)
    p.add_argument("--e", required=True, help="inner edge of S")
    p.add_argument("--t", required=True)

    p = add("verify", cmd_verify, help="replay a certificate")
    p.add_argument("cert", help="certificate path or '-' for stdin")

    p = add("dot", cmd_dot, help="DOT output for a tree or the shuffles of a pair")
    p.add_argument("--t", required=True)
    p.add_argument("--s", default=None)
    p.add_argument("--poset", action="store_true")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except TreeParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except InadmissiblePairError as exc:
        sys.stderr.write(f"inadmissible input: {exc}\n")
        return 3
    except (TreeError, FaceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (json.JSONDecodeError, UnicodeDecodeError, MalformedCertificateError) as exc:
        sys.stderr.write(f"malformed certificate: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
