"""Seeded fuzzing of ``dendro verify``: every input ends in an exit code.

Two kinds of input go through ``cli.run(["verify", path])``:

* mutants of genuine certificate JSON, each made by one to three edits;
  an edit walks down from the top of the document to a random value and
  deletes a key or an item there, or puts an odd value in its place;
* synthetic certificates over tree and tensor ambients drawn from a fixed
  list of DSL strings, some of them invalid, with random face keys in the
  base and random steps.

Each must exit 0 (accepted), 1 (rejected) or 2 (malformed), with nothing
raised and no traceback.  Rejection is not asserted: an edit may leave a
certificate that still replays, and a base that already holds the full
complex is accepted with no steps.  Both kinds of input must reach the
replay (exit 1) as well as the reader (exit 2).
"""

import json
import random

import pytest

from dendro.anodyne import segal_certificate
from dendro.cli import run
from dendro.pushout import certify_pp_inner, certify_pp_stable
from dendro.trees import parse_tree

ODD_VALUES = [
    None, True, False, 0, -1, 7, 1.5, "", "zz", "a[b", "a[b[c]]", "inner", "bottom",
    [], {}, [7], [0, 1, 1], ["a"], {"edges": ["zz"], "caps": []},
    {"edges": ["a"], "caps": ["a"]}, {"kind": "top", "at": "a"},
]

TREES = ["a", "a[b]", "a[b[c]]", "a[b c[]]", "r[c[] d e[a b] f]", "a[]", "a[b", "a[a]", "", "a[b]]"]

PAIRS = [("s0[s1]", "t0[t1]"), ("s0[s1 s2]", "t0[t1]"), ("s0[]", "t0[t1]"), ("s0[s1", "t0")]

KINDS = ["inner", "top", "bottom", "middle"]


def _genuine() -> list[str]:
    return [
        segal_certificate(parse_tree("a[b[c]]")).dumps(),
        segal_certificate(parse_tree("r[c[] d e[a b] f]")).dumps(),
        certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1]")).dumps(),
        certify_pp_inner(parse_tree("s0[s1[s2]]"), "s1", parse_tree("t0[t1]")).dumps(),
    ]


def _edit(data, rng: random.Random):
    """One edit of ``data`` in place (or a replacement of the whole value,
    which is returned)."""
    parent, slot = None, None
    node = data
    while isinstance(node, (dict, list)) and node and rng.random() < 0.7:
        slot = rng.choice(sorted(node)) if isinstance(node, dict) else rng.randrange(len(node))
        parent, node = node, node[slot]
    if parent is None:
        return rng.choice(ODD_VALUES) if rng.random() < 0.2 else data
    if rng.random() < 0.4:
        del parent[slot]
    else:
        parent[slot] = json.loads(json.dumps(rng.choice(ODD_VALUES)))
    return data


def _mutant(text: str, rng: random.Random) -> str:
    data = json.loads(text)
    for _ in range(rng.randint(1, 3)):
        data = _edit(data, rng)
    return json.dumps(data)


def _random_key(edges: list[str], rng: random.Random) -> dict:
    chosen = rng.sample(edges, rng.randint(0, len(edges))) if edges else []
    if rng.random() < 0.1:
        chosen.append("zz")
    caps = [e for e in chosen if rng.random() < 0.2]
    return {"edges": chosen, "caps": caps}


def _synthetic(rng: random.Random) -> str:
    if rng.random() < 0.5:
        text = rng.choice(TREES)
        ambient = {"type": "tree", "tree": text}
        edges = sorted(set(text.replace("[", " ").replace("]", " ").split()))
    else:
        s, t = rng.choice(PAIRS)
        ambient = {"type": "tensor", "s": s, "t": t}
        names = [set(x.replace("[", " ").replace("]", " ").split()) for x in (s, t)]
        edges = sorted(f"{a},{b}" for a in names[0] for b in names[1])
    steps = [
        {
            "face": _random_key(edges, rng),
            "omit": {"kind": rng.choice(KINDS), "at": rng.choice(edges or ["zz"])},
            "batch": [rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)],
        }
        for _ in range(rng.randint(0, 4))
    ]
    base = [_random_key(edges, rng) for _ in range(rng.randint(0, 3))]
    cls = rng.choice(["operadic", "covariant", "stable", "odd"])
    return json.dumps({"ambient": ambient, "base": base, "class": cls, "steps": steps})


def _verify_all(texts, tmp_path, capsys) -> dict[int, int]:
    path = tmp_path / "cert.json"
    codes: dict[int, int] = {}
    for text in texts:
        path.write_text(text)
        code = run(["verify", str(path)])
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), (code, err, text)
        assert "Traceback" not in err, text
        codes[code] = codes.get(code, 0) + 1
    return codes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_survives_edited_certificates(tmp_path, capsys, seed):
    rng = random.Random(seed)
    genuine = _genuine()
    codes = _verify_all((_mutant(rng.choice(genuine), rng) for _ in range(100)), tmp_path, capsys)
    assert {1, 2} <= set(codes)


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_survives_synthetic_certificates(tmp_path, capsys, seed):
    rng = random.Random(seed)
    codes = _verify_all((_synthetic(rng) for _ in range(100)), tmp_path, capsys)
    assert {1, 2} <= set(codes)
