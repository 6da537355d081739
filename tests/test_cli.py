import json

import pytest

from dendro.anodyne import Certificate
from dendro.cli import run


def capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


class TestParse:
    def test_parse_reports_order(self, capsys):
        assert run(["parse", "--t", "r[c[] d e[a b] f]"]) == 0
        out, _ = capture(capsys)
        data = json.loads(out)
        assert data["edge_order"] == ["r", "c", "d", "e", "a", "b", "f"]
        assert data["stumps"] == ["c"]

    def test_parse_error_exit_2(self, capsys):
        assert run(["parse", "--t", "r[a !]"]) == 2

    def test_usage_error_exit_2(self, capsys):
        assert run(["parse"]) == 2


class TestFaces:
    def test_corolla_has_four(self, capsys):
        assert run(["faces", "--t", "r[x y]"]) == 0
        out, _ = capture(capsys)
        assert json.loads(out)["count"] == 4

    def test_dot_output(self, capsys):
        assert run(["faces", "--t", "a[b]", "--format", "dot"]) == 0
        out, _ = capture(capsys)
        assert "graph" in out


class TestShuffles:
    def test_count(self, capsys):
        assert run(["shuffles", "--s", "a[b]", "--t", "c[d]", "--count"]) == 0
        out, _ = capture(capsys)
        assert out.strip() == "2"

    def test_poset_json(self, capsys):
        assert run(["shuffles", "--s", "a[b]", "--t", "c[d]", "--poset"]) == 0
        out, _ = capture(capsys)
        data = json.loads(out)
        assert data["count"] == 2
        assert data["covers"] == [[0, 1]]

    def test_dot_poset(self, capsys):
        assert run(["shuffles", "--s", "a[b]", "--t", "c[d]", "--format", "dot", "--poset"]) == 0
        out, _ = capture(capsys)
        assert "digraph" in out


class TestCertificates:
    def test_segal_then_verify(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        assert run(["segal-cert", "--t", "a[b[c]]", "--out", str(path)]) == 0
        assert run(["verify", str(path)]) == 0
        out, _ = capture(capsys)
        assert "accepted" in out

    def test_pp_stable_then_verify(self, capsys, tmp_path):
        path = tmp_path / "pp.json"
        assert run(["pp-stable", "--s", "s0[s1 s2]", "--t", "t0[t1]", "--out", str(path)]) == 0
        assert run(["verify", str(path)]) == 0

    def test_pp_inner_then_verify(self, capsys, tmp_path):
        path = tmp_path / "ppi.json"
        assert (
            run(["pp-inner", "--s", "s0[s1[s2]]", "--e", "s1", "--t", "t0[t1 t2]", "--out", str(path)])
            == 0
        )
        assert run(["verify", str(path)]) == 0

    def test_tampered_certificate_exit_1(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(["segal-cert", "--t", "a[b[c]]", "--out", str(path)])
        capture(capsys)
        data = json.loads(path.read_text())
        data["steps"] = []
        path.write_text(json.dumps(data))
        assert run(["verify", str(path)]) == 1
        _, err = capture(capsys)
        assert "rejected" in err

    def test_inadmissible_exit_3(self, capsys):
        assert run(["pp-stable", "--s", "s0[]", "--t", "t0[t1]"]) == 3
        _, err = capture(capsys)
        assert "inadmissible" in err

    def test_pp_inner_bad_edge_exit_3(self, capsys):
        assert run(["pp-inner", "--s", "a[b]", "--e", "b", "--t", "t0[t1]"]) == 3

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["verify", str(path)]) == 2

    def test_deterministic_output(self, capsys):
        assert run(["segal-cert", "--t", "r[c[] d e[a b] f]"]) == 0
        a, _ = capture(capsys)
        assert run(["segal-cert", "--t", "r[c[] d e[a b] f]"]) == 0
        b, _ = capture(capsys)
        assert a == b


class TestDot:
    def test_tree_dot(self, capsys):
        assert run(["dot", "--t", "r[c[] d e[a b] f]"]) == 0
        out, _ = capture(capsys)
        assert "graph" in out and '"c"' in out

    def test_shuffle_dot_has_colours(self, capsys):
        assert run(["dot", "--t", "c[d]", "--s", "a[b]"]) == 0
        out, _ = capture(capsys)
        assert "fillcolor=white" in out and "fillcolor=black" in out


class TestMalformedCertificates:
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda data: data.pop("steps"),
            lambda data: data["steps"][0].update(omit=5),
            lambda data: data.update(base="x"),
            lambda data: data["ambient"].update(type="blah"),
            lambda data: data["steps"][0].update(batch=[True]),
        ],
        ids=["no-steps", "omit-int", "base-str", "ambient-type-unknown", "batch-bool"],
    )
    def test_bad_shape_exit_2(self, capsys, tmp_path, mangle):
        path = tmp_path / "cert.json"
        assert run(["segal-cert", "--t", "a[b[c]]", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        mangle(data)
        path.write_text(json.dumps(data))
        capture(capsys)
        assert run(["verify", str(path)]) == 2
        _, err = capture(capsys)
        assert err.startswith("malformed certificate:")


class TestDeepTrees:
    @pytest.mark.parametrize("depth", [1200, 5000])
    def test_parse_and_render_deep_linear_tree(self, capsys, depth):
        from dendro.trees import parse_tree, render_tree

        text = "".join(f"x{i}[" for i in range(depth)) + "y" + "]" * depth
        assert render_tree(parse_tree(text)) == text
        assert run(["parse", "--t", text]) == 0
        out, _ = capture(capsys)
        assert json.loads(out)["canonical"] == text


class TestFacesOutsideTheAmbient:
    """A face outside the ambient is a rejection (exit 1), whether it is
    given in the base or as a step."""

    FOREIGN = {"edges": ["zz"], "caps": []}

    def verify_mangled(self, capsys, tmp_path, mangle):
        path = tmp_path / "cert.json"
        assert run(["segal-cert", "--t", "a[b[c]]", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        mangle(data)
        path.write_text(json.dumps(data))
        capture(capsys)
        code = run(["verify", str(path)])
        return code, capture(capsys)[1]

    def test_base_face_rejected(self, capsys, tmp_path):
        code, err = self.verify_mangled(
            capsys, tmp_path, lambda data: data["base"].append(self.FOREIGN)
        )
        assert code == 1
        assert err == "rejected: base contains keys outside the ambient\n"

    def test_step_face_rejected(self, capsys, tmp_path):
        step = {"face": self.FOREIGN, "omit": {"kind": "inner", "at": "b"}, "batch": [0, 1, 1]}
        code, err = self.verify_mangled(
            capsys, tmp_path, lambda data: data["steps"].insert(0, step)
        )
        assert code == 1
        assert err.startswith("rejected at step 0: step face (('zz',), ()) is not an ambient face")

    def test_base_face_survives_a_dump(self, capsys, tmp_path):
        def round_trip(data):
            data["base"].append(self.FOREIGN)
            dumped = json.loads(Certificate.loads(json.dumps(data)).dumps())
            assert self.FOREIGN in dumped["base"]
            data.clear()
            data.update(dumped)

        code, err = self.verify_mangled(capsys, tmp_path, round_trip)
        assert code == 1
        assert err == "rejected: base contains keys outside the ambient\n"
