"""Scene files, reports, and the command line."""

import json
from fractions import Fraction

import pytest
import sympy

from folindex.cli import main
from folindex.errors import SceneParseError
from folindex.pencil import bifurcation_formula_check
from folindex.resolve import derive_resolution
from folindex.scenes import (decode_value, derived_scene, dump_scene,
                             encode_value, parse_scene, polynomial_scene)

SCENES = "scenes"


def tower_doc(**overrides):
    doc = {
        "kind": "combinatorial",
        "name": "tower",
        "blowups": [[], [1], [1, 2]],
        "invariant": [0, 0, 1],
        "branches": [{"name": "h", "s": [0, 0, 1]},
                     {"name": "f", "s": [1, 1, 0]}],
    }
    doc.update(overrides)
    return doc


class TestValues:
    def test_round_trips(self):
        for v in (0, 7, -3, Fraction(-1, 3), Fraction(22, 7)):
            assert decode_value(encode_value(v)) == v

    def test_integral_fraction_collapses(self):
        assert encode_value(Fraction(8, 2)) == 4

    def test_algebraic(self):
        enc = {"minpoly": "t^2 - 2", "root": 1}
        val = decode_value(enc)
        assert (val**2).equals(2) and val > 0
        assert decode_value(encode_value(val)) == val

    def test_rejects_booleans(self):
        with pytest.raises(SceneParseError):
            decode_value(True)

    def test_rejects_bad_rational(self):
        with pytest.raises(SceneParseError):
            decode_value("3/0")
        with pytest.raises(SceneParseError):
            decode_value("pi")

    def test_rejects_two_variable_minpoly(self):
        with pytest.raises(SceneParseError):
            decode_value({"minpoly": "t*s - 2", "root": 0})

    @pytest.mark.parametrize("root", [-1, "1", 2, True, 1.0])
    def test_rejects_bad_root_index(self, root):
        with pytest.raises(SceneParseError, match=r"root must be an integer "
                                                  r"in 0\.\.1"):
            decode_value({"minpoly": "t^2 - 2", "root": root})

    @pytest.mark.parametrize("minpoly", ["1/t", "exp(t)", "t^(1/2)",
                                         "t^2 - I", "t^2 - sqrt(2)",
                                         "t^2 - pi", "t^2-2)", 5])
    def test_rejects_malformed_minpoly(self, minpoly):
        with pytest.raises(SceneParseError, match="minpoly"):
            decode_value({"minpoly": minpoly, "root": 0})

    @pytest.mark.parametrize("minpoly,root,encoded", [
        ("t^2 - 2", 1, {"minpoly": "t^2 - 2", "root": 1}),
        ("x^3 - 2", 0, {"minpoly": "t^3 - 2", "root": 0}),
        ("t^2/2 + 1/3", 1, {"minpoly": "3*t^2 + 2", "root": 1}),
        ("t^2 - 2.5", 0, {"minpoly": "2*t^2 - 5", "root": 0}),
        ("t^2 - 1", 1, 1), ("t - 1/2", 0, "1/2")])
    def test_valid_minpoly_round_trips(self, minpoly, root, encoded):
        value = decode_value({"minpoly": minpoly, "root": root})
        assert encode_value(value) == encoded
        assert decode_value(encoded) == value


class TestSceneParsing:
    def test_combinatorial(self):
        scene = parse_scene(json.dumps(tower_doc()))
        assert scene.a.rows[0] == (-3, 0, 1)
        assert scene.marking.iota == (0, 0, 1)
        assert scene.branches["h"].s == (0, 0, 1)

    def test_default_marking_is_invariant(self):
        doc = tower_doc()
        del doc["invariant"]
        scene = parse_scene(json.dumps(doc))
        assert scene.marking.iota == (1, 1, 1)

    def test_bad_kind(self):
        with pytest.raises(SceneParseError, match="kind"):
            parse_scene(json.dumps({"kind": "mystery"}))

    def test_duplicate_branch_name(self):
        doc = tower_doc(branches=[{"name": "h", "s": [0, 0, 1]},
                                  {"name": "h", "s": [1, 1, 0]}])
        with pytest.raises(SceneParseError, match="duplicate"):
            parse_scene(json.dumps(doc))

    def test_unknown_balanced_name(self):
        with pytest.raises(SceneParseError, match="unknown branch"):
            parse_scene(json.dumps(tower_doc(balanced=["nope"])))

    def test_wrong_vector_length(self):
        doc = tower_doc(branches=[{"name": "h", "s": [0, 0]}])
        with pytest.raises(SceneParseError, match="nonnegative"):
            parse_scene(json.dumps(doc))

    def test_reduced_point_needs_location(self):
        doc = tower_doc(reduced_points=[{"cs": -1}])
        with pytest.raises(SceneParseError, match="reduced_points"):
            parse_scene(json.dumps(doc))

    def test_pencil_needs_stanza(self):
        doc = tower_doc(kind="pencil")
        with pytest.raises(SceneParseError, match="pencil"):
            parse_scene(json.dumps(doc))

    def test_pencil_generators_must_attach_alike(self):
        doc = tower_doc(kind="pencil")
        doc["pencil"] = {"generators": ["f", "h"], "mu_generic": 1,
                         "i0": 5, "fibers": []}
        with pytest.raises(SceneParseError, match="same attachment"):
            parse_scene(json.dumps(doc))

    def test_polynomial_requires_f(self):
        with pytest.raises(SceneParseError, match="'f'"):
            parse_scene(json.dumps({"kind": "polynomial"}))

    def test_fixture_scenes_parse(self):
        import pathlib
        for path in sorted(pathlib.Path(SCENES).glob("*.json")):
            scene = parse_scene(path.read_text(), source=str(path))
            assert scene.kind in ("combinatorial", "polynomial", "pencil")


class TestReplayIdentity:
    def test_pencil_replay_matches_derivation(self):
        res = derive_resolution({"f": "x*y + y^2 + x^3", "g": "x*y"},
                                mode="pencil")
        doc = derived_scene(res, name="replay")
        scene = parse_scene(dump_scene(doc))
        model = scene.pencil_model
        direct = bifurcation_formula_check(res.pencil)
        replay = bifurcation_formula_check(model)
        assert replay.mu_pair == direct.mu_pair == 12
        assert replay.mu_fg == direct.mu_fg == 11
        assert model.i0 == res.pencil.i0
        assert model.mu_generic == res.pencil.mu_generic
        assert {f.name: f.mu for f in model.bifurcation_fibers} == \
            {f.name: f.mu for f in res.pencil.bifurcation_fibers}

    def test_curve_replay_matches_derivation(self):
        res = derive_resolution({"c": "y^2 - x^3"})
        doc = derived_scene(res, name="replay")
        scene = parse_scene(dump_scene(doc))
        assert scene.program.to_lists() == res.program.to_lists()
        assert scene.branches["c"].s == res.s_vectors["c"]

    def test_polynomial_scene_builder_round_trips(self):
        doc = polynomial_scene("y^2 - x^3", "x*y", seed=3)
        scene = parse_scene(json.dumps(doc))
        assert scene.seed == 3
        assert scene.as_pencil
        assert scene.germs["f"].order() == 2


class TestCli:
    def test_invariants_text(self, capsys):
        assert main(["invariants", "--scene", f"{SCENES}/radial.json"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "mu(foliation)" in out

    def test_invariants_json_deterministic(self, capsys):
        assert main(["invariants", "--scene", f"{SCENES}/radial.json",
                     "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["invariants", "--scene", f"{SCENES}/radial.json",
                     "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["result"] == "pass"
        assert payload["scene"] == "radial"

    def test_pencil_scene(self, capsys):
        path = f"{SCENES}/node-cusp-pencil.json"
        assert main(["pencil", "--scene", path]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out

    def test_pencil_polynomial_with_oracle(self, capsys):
        path = f"{SCENES}/node-cusp-germs.json"
        assert main(["pencil", "--scene", path, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "independent (resultant)" in out

    @pytest.mark.parametrize("name", ["cusp-curve", "node-cusp-germs",
                                      "triple-tangent-pencil",
                                      "special-generator"])
    def test_polynomial_reports_ignore_the_seed(self, name, tmp_path,
                                                capsys):
        path = f"{SCENES}/{name}.json"
        if name == "special-generator":
            # f is the cuspidal member, so a detector member stands in for it
            path = str(tmp_path / f"{name}.json")
            dump_scene(polynomial_scene("y^2 - x^3", "x*y", pencil=True),
                       path)
        with open(path) as handle:
            command = ("pencil" if json.load(handle).get("pencil")
                       else "invariants")
        reports = []
        for seed in ("0", "1", "2"):
            assert main([command, "--scene", path, "--oracle", "--format",
                         "json", "--seed", seed]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report.pop("seed") == int(seed)
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]

    def test_exit_code_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"kind\": \"nope\"}")
        assert main(["invariants", "--scene", str(bad)]) == 2
        pencil = f"{SCENES}/node-cusp-pencil.json"
        assert main(["invariants", "--scene", pencil]) == 2
        assert "run the pencil command" in capsys.readouterr().err

    def test_exit_code_negative_root_index(self, tmp_path, capsys):
        doc = json.loads(open(f"{SCENES}/cusp-hamiltonian.json").read())
        doc["reduced_points"][0]["eigenratio"] = {"minpoly": "t^2 - 2",
                                                   "root": -1}
        path = tmp_path / "root.json"
        path.write_text(json.dumps(doc))
        assert main(["invariants", "--scene", str(path)]) == 2
        captured = capsys.readouterr()
        assert "reduced_points[0].eigenratio: root must be" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("f, g, reason", [
        ("y^2", "x", "pencil generator 'f' is not reduced"),
        ("y^2 + 2*x^2", "-2*x*y", "is non-reduced; out of scope"),
        ("x*y", "x^2 + x*y^3", "the pencil generators share a branch"),
        ("x^2 + 2*y^2 + x^3", "x*y + y^3",
         "a special member sits at an algebraic parameter"),
    ])
    def test_exit_code_unsupported_pencil(self, tmp_path, capsys, f, g,
                                          reason):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"kind": "polynomial", "name": "edge",
                                    "f": f, "g": g, "pencil": True}))
        assert main(["pencil", "--scene", str(path)]) == 3
        captured = capsys.readouterr()
        assert reason in captured.err
        assert captured.out == ""

    def test_exit_code_malformed_minpoly(self, tmp_path, capsys):
        doc = json.loads(open(f"{SCENES}/cusp-hamiltonian.json").read())
        doc["reduced_points"][0]["eigenratio"] = {"minpoly": "t^2 - sqrt(2)",
                                                   "root": 0}
        path = tmp_path / "minpoly.json"
        path.write_text(json.dumps(doc))
        assert main(["invariants", "--scene", str(path)]) == 2
        captured = capsys.readouterr()
        assert "minpoly needs rational coefficients" in captured.err
        assert captured.out == ""

    def test_exit_code_unsupported(self, tmp_path, capsys):
        doc = {"kind": "polynomial", "f": "(y^2 - 2*x^2)^2 - x^5",
               "max_extension_degree": 1}
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(doc))
        assert main(["invariants", "--scene", str(path)]) == 3

    @pytest.mark.parametrize("key, value, reason", [
        ("max_extension_degree", "abc", "'max_extension_degree' must be"),
        ("max_extension_degree", None, "'max_extension_degree' must be"),
        ("max_extension_degree", True, "'max_extension_degree' must be"),
        ("max_extension_degree", 1.5, "'max_extension_degree' must be"),
        ("max_extension_degree", -1, "'max_extension_degree' must be"),
        ("pencil", "no", "'pencil' must be true or false"),
        ("seed", "7", "'seed' must be an integer"),
        ("seed", 1.5, "'seed' must be an integer"),
    ])
    def test_exit_code_malformed_setting(self, tmp_path, capsys, key, value,
                                         reason):
        doc = {"kind": "polynomial", "f": "y^2 - x^3", "g": "x*y",
               key: value}
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(doc))
        assert main(["invariants", "--scene", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert reason in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cli_rejects_extension_budget_below_one(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["invariants", "--scene", f"{SCENES}/cusp-curve.json",
                  "--max-ext-degree", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"--max-ext-degree: must be at least 1, not {value}" in \
            captured.err
        assert captured.out == ""

    def test_exit_code_violated_expectation(self, tmp_path, capsys):
        doc = json.loads(open(f"{SCENES}/radial.json").read())
        doc["expected"]["mu(foliation)"] = 99
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(doc))
        assert main(["invariants", "--scene", str(path)]) == 1
        out = capsys.readouterr().out
        assert "result: FAIL" in out

    def test_resolve_emits_replayable_scene(self, tmp_path, capsys):
        out_path = tmp_path / "derived.json"
        assert main(["resolve", "--scene", f"{SCENES}/node-cusp-germs.json",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["pencil", "--scene", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out

    def test_resolve_json_lists_branches(self, capsys):
        assert main(["resolve", "--scene", f"{SCENES}/cusp-curve.json",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (branch,) = payload["branches"]
        assert branch["characteristic_exponents"] == [2, 3]
        assert payload["scene"]["blowups"] == [[], [1], [1, 2]]

    def test_verify_command(self, capsys):
        assert main(["verify", "--count", "10", "--max-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "decomposition" in out

    @pytest.mark.parametrize("argv", [["--max-n", "0"], ["--max-n", "-2"],
                                      ["--count", "-1"]])
    def test_verify_rejects_bad_sizes(self, argv, capsys):
        assert main(["verify", "--count", "3", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert captured.out == ""

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        assert main(["invariants", "--scene", f"{SCENES}/radial.json",
                     "--dot", str(dot)]) == 0
        assert "graph dual" in dot.read_text()
