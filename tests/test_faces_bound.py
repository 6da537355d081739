"""``dendro faces`` reads the one size rule: a tree with more than
``MAX_FACES`` faces exits 3 before any face poset is built, in either
output format, as ``segal-cert`` does on the same tree."""

import pytest

from dendro import faces
from dendro.cli import run
from dendro.complexes import MAX_FACES

LINEAR_15 = "".join(f"x{i}[" for i in range(15)) + "x15" + "]" * 15  # 65,535 faces


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_an_over_bound_tree_exits_3_before_any_poset(fmt, tmp_path, capsys, monkeypatch):
    builds = []
    init = faces.SubPoset.__init__

    def counted(poset, ambient):
        builds.append(ambient)
        init(poset, ambient)

    monkeypatch.setattr(faces, "_sub_cache", {})
    monkeypatch.setattr(faces.SubPoset, "__init__", counted)
    out = tmp_path / "faces.out"
    code = run(["faces", "--t", LINEAR_15, "--format", fmt, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: the ambient tree has more than {MAX_FACES} faces\n"
    assert builds == []
    assert not out.exists()
