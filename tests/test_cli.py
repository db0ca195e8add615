import json
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from smalg.cli import main
from smalg import jsonio
from smalg.cocycle import TransitiveMap
from smalg.jordan import CentralIdempotent, JordanSpec
from smalg.quasiorder import closure


def golden(name):
    return str(resources.files("smalg").joinpath("golden", name))


@pytest.fixture
def spec_file(tmp_path, two_blocks6):
    spec = JordanSpec(two_blocks6, np.eye(6, dtype=complex),
                      TransitiveMap.constant_one(two_blocks6),
                      CentralIdempotent((1, 1, 1, 0, 0, 0)))
    path = tmp_path / "spec.json"
    path.write_text(jsonio.dump_json(jsonio.jordan_spec_to_dict(spec)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_fan_verdict_no(self, capsys):
        code, out = run(capsys, "analyze", golden("fan_2x2.json"))
        assert code == 0
        report = json.loads(out)
        assert report["all_preservers_jordan"] == "NO"
        assert report["condition_i"] == {"holds": False, "witness": [1, 3]}
        assert report["rank_one_dense"] is False
        assert report["two_free"] is True

    def test_cocycle7_verdict_yes(self, capsys):
        code, out = run(capsys, "analyze", golden("nontrivial_cocycle_7.json"))
        assert code == 0
        report = json.loads(out)
        assert report["all_preservers_jordan"] == "YES"
        assert report["classes"] == [[1, 2, 3, 4, 5, 6, 7]]

    def test_diagonal_vacuous_yes(self, capsys, tmp_path):
        path = tmp_path / "d3.json"
        path.write_text(json.dumps({"n": 3, "pairs": [[1, 1], [2, 2], [3, 3]]}))
        code, out = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["all_preservers_jordan"] == "YES"

    def test_closure_additions_reported(self, capsys, tmp_path):
        path = tmp_path / "open.json"
        path.write_text(json.dumps({"n": 3, "pairs": [[1, 2], [2, 3]]}))
        code, out = run(capsys, "analyze", str(path))
        assert code == 0
        assert [1, 3] in json.loads(out)["added_by_closure"]

    def test_pretty_mode_prints_verdict_line(self, capsys):
        code, out = run(capsys, "analyze", golden("fan_2x2.json"), "--pretty")
        assert code == 0
        assert out.rstrip().endswith("all preservers Jordan: NO")

    def test_byte_identical_across_runs(self, capsys):
        _, first = run(capsys, "analyze", golden("fan_2x2.json"))
        _, second = run(capsys, "analyze", golden("fan_2x2.json"))
        assert first == second

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path)])
        assert exc.value.code == 1


class TestEmbed:
    def test_unit_table(self, capsys, spec_file):
        code, out = run(capsys, "embed", spec_file)
        assert code == 0
        table = json.loads(out)
        units = {tuple(entry["unit"]): entry["image"] for entry in table["units"]}
        # block-2 units land transposed
        img = jsonio.matrix_from_dict(units[(4, 5)])
        assert img[4, 3] == 1 and img[3, 4] == 0


class TestVerify:
    def test_embedding_passes(self, capsys, spec_file):
        code, out = run(capsys, "verify", "--spec", spec_file, "--samples", "100")
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_counterexample_kind_fails_additivity(self, capsys):
        code, out = run(capsys, "verify", "--kind", "counterexample",
                        "--quasiorder", golden("fan_2x2.json"), "--samples", "100")
        assert code == 2
        props = json.loads(out)["properties"]
        assert props["additivity"]["ok"] is False
        assert props["spectrum"]["ok"] is True

    def test_det_twist_on_full_8_stays_finite(self, capsys, tmp_path):
        # det(diag(1..8)) = 40320 lies far past where exp(det X) overflows
        path = tmp_path / "full8.json"
        path.write_text(json.dumps({"n": 8, "pairs": [[i, j] for i in range(1, 9)
                                                      for j in range(1, 9)]}))
        code = main(["verify", "--kind", "det_twist", "--quasiorder", str(path),
                     "--samples", "100"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        props = json.loads(captured.out)["properties"]
        assert props["spectrum"]["ok"] and props["injectivity"]["ok"]
        assert props["commutativity"]["ok"] is False

    @pytest.mark.parametrize("kind", ["identity", "transpose"])
    def test_builtin_isomorphisms_pass(self, capsys, kind):
        # the fan is not symmetric, but the transpose keeps every graded property
        code, out = run(capsys, "verify", "--kind", kind, "--quasiorder", golden("fan_2x2.json"),
                        "--samples", "50")
        report = json.loads(out)
        assert code == 0 and report["all_pass"] is True and report["label"] == kind

    def test_missing_args_usage(self, capsys):
        code = main(["verify"])
        assert code == 1

    def test_determinism_given_seed(self, capsys):
        _, a = run(capsys, "verify", "--kind", "scaling",
                   "--quasiorder", golden("fan_2x2.json"), "--samples", "60", "--seed", "5")
        _, b = run(capsys, "verify", "--kind", "scaling",
                   "--quasiorder", golden("fan_2x2.json"), "--samples", "60", "--seed", "5")
        assert a == b


class TestCounterexample:
    def test_fan_as_expected(self, capsys):
        code, out = run(capsys, "counterexample", golden("fan_2x2.json"),
                        "--samples", "100")
        assert code == 0
        report = json.loads(out)
        assert report["witness"] == [1, 3] and report["case"] == 2
        assert report["as_expected"] is True

    def test_good_pattern_has_none(self, capsys):
        code = main(["counterexample", golden("nontrivial_cocycle_7.json")])
        assert code == 2


class TestParser:
    def test_options_do_not_leak_between_calls(self, capsys):
        # the parser is built once per process; each call parses afresh
        fan = golden("fan_2x2.json")
        _, out = run(capsys, "counterexample", fan, "--samples", "5", "--pretty")
        assert json.loads(out)["report"]["samples"] == 5 and "\n  " in out
        code, out = run(capsys, "counterexample", fan)
        assert code == 0
        assert json.loads(out)["report"]["samples"] == 1000 and out.count("\n") == 1


class TestRecover:
    def test_round_trip(self, capsys, spec_file):
        code, out = run(capsys, "recover", "--spec", spec_file)
        assert code == 0
        report = json.loads(out)
        assert report["recovered"]["idempotent_diag"] == [1, 1, 1, 0, 0, 0]
        assert report["max_unit_error"] <= 1e-8

    def test_criterion_failing_spec_fails_with_one_line(self, capsys, tmp_path, fan4):
        spec = JordanSpec(fan4, np.eye(4, dtype=complex), TransitiveMap.constant_one(fan4),
                          CentralIdempotent((1, 1, 1, 1)))
        path = tmp_path / "fan_spec.json"
        path.write_text(jsonio.dump_json(jsonio.jordan_spec_to_dict(spec)))
        code = main(["recover", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: quasi-order fails the neighborhood criterion at (1, 3)\n"


class TestSelftest:
    def test_passes_and_prints_lines(self, capsys):
        import time

        t0 = time.time()
        code, out = run(capsys, "selftest")
        assert code == 0
        assert out.count("[PASS]") == 5 and "[FAIL]" not in out
        assert time.time() - t0 < 60.0
        # each check's line ends with its wall time
        lines = [line for line in out.splitlines() if line.startswith("[PASS]")]
        assert all(re.search(r" \(\d+\.\d ms\)$", line) for line in lines)

    def test_perturbed_golden_fails_with_diff(self, capsys, tmp_path, monkeypatch):
        # copy the golden tree, drop one pair from the fan pattern, repoint the loader
        import shutil
        import smalg.cli as cli

        src = resources.files("smalg").joinpath("golden")
        dst = tmp_path / "golden"
        shutil.copytree(str(src), dst)
        fan = json.loads((dst / "fan_2x2.json").read_text())
        fan["pairs"] = [p for p in fan["pairs"] if p != [2, 4]]
        (dst / "fan_2x2.json").write_text(json.dumps(fan))
        monkeypatch.setattr(cli, "_golden", lambda name: dst / name)
        code, out = run(capsys, "selftest")
        assert code == 2
        assert "[FAIL]" in out and "fan" in out


def usage_error(capsys, *argv):
    """Run a command that must fail with exit 1 and one `error:` line on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert len(err.splitlines()) == 1 and "error:" in err and "Traceback" not in err
    return err


class TestBadInput:
    @pytest.mark.parametrize("flags", [
        ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--tol", "-1e-8"],
        ["--samples", "0"], ["--samples", "-5"],
    ])
    def test_verify_rejects_vacuous_settings(self, capsys, flags):
        usage_error(capsys, "verify", "--kind", "scaling",
                    "--quasiorder", golden("fan_2x2.json"), *flags)

    def test_unknown_kind(self, capsys):
        assert main(["verify", "--kind", "bogus", "--quasiorder", golden("fan_2x2.json")]) == 1
        assert capsys.readouterr().err == "error: unknown map kind 'bogus'\n"

    def test_recover_rejects_negative_tol(self, capsys, spec_file):
        usage_error(capsys, "recover", "--spec", spec_file, "--tol", "-1")

    def test_counterexample_rejects_zero_samples(self, capsys):
        usage_error(capsys, "counterexample", golden("fan_2x2.json"), "--samples", "0")

    @pytest.mark.parametrize("verb", ["verify", "counterexample", "recover"])
    def test_rejects_negative_seed(self, capsys, spec_file, verb):
        args = {"verify": ["--kind", "identity", "--quasiorder", golden("fan_2x2.json")],
                "counterexample": [golden("fan_2x2.json")],
                "recover": ["--spec", spec_file]}[verb]
        assert "seed must be >= 0" in usage_error(capsys, verb, *args, "--seed", "-1")

    @pytest.fixture
    def noncentral_spec(self, tmp_path, spec_file):
        blob = json.loads(Path(spec_file).read_text())
        blob["idempotent_diag"] = [1, 0, 0, 0, 0, 0]
        path = tmp_path / "noncentral.json"
        path.write_text(json.dumps(blob))
        return str(path)

    @pytest.mark.parametrize("verb", [["embed"], ["recover", "--spec"], ["verify", "--spec"]])
    def test_noncentral_spec(self, capsys, noncentral_spec, verb):
        assert "central" in usage_error(capsys, *verb, noncentral_spec)

    @pytest.mark.parametrize("content", [
        '{"n": 3, "pairs": [[1, 2.7]]}', '{"n": true, "pairs": []}', '{"n": 1e300, "pairs": []}',
    ])
    def test_analyze_rejects_non_integers(self, capsys, tmp_path, content):
        path = tmp_path / "q.json"
        path.write_text(content)
        assert "must be an integer" in usage_error(capsys, "analyze", str(path))

    def test_embed_rejects_fractional_idempotent_bit(self, capsys, tmp_path, spec_file):
        blob = json.loads(Path(spec_file).read_text())
        blob["idempotent_diag"][3] = 0.6
        path = tmp_path / "bit.json"
        path.write_text(json.dumps(blob))
        assert "must be an integer" in usage_error(capsys, "embed", str(path))

    @pytest.mark.parametrize("content, expected", [
        pytest.param(None, "No such file", id="None"),
        pytest.param("{not json", "Expecting property name", id="{not json"),
        pytest.param('{"quasiorder": {"n": 2}}', ": missing key 'pairs'",
                     id='{"quasiorder": {"n": 2}}'),
    ])
    def test_missing_or_malformed_spec(self, capsys, tmp_path, content, expected):
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        assert expected in usage_error(capsys, "embed", str(path))
        assert expected in usage_error(capsys, "recover", "--spec", str(path))

    def test_quasiorder_missing_key_named(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"n": 2}')
        assert ": missing key 'pairs'" in usage_error(capsys, "analyze", str(path))

    def test_selftest_takes_no_options(self, capsys):
        assert "unrecognized arguments: --pretty" in usage_error(capsys, "selftest", "--pretty")

    @pytest.mark.parametrize("verb", [["embed"], ["recover", "--spec"], ["verify", "--spec"]])
    @pytest.mark.parametrize("key, value, expected", [
        pytest.param("transitive_map", "NaN", "finite and nonzero, got (nan+0j)", id="g NaN"),
        pytest.param("transitive_map", "Infinity", "finite and nonzero, got (inf+0j)",
                     id="g Infinity"),
        pytest.param("s_matrix", "NaN", "S has a non-finite entry (nan+0j) at (1,1)",
                     id="S NaN"),
    ])
    def test_non_finite_spec(self, capsys, tmp_path, spec_file, verb, key, value, expected):
        # JSON's NaN and Infinity tokens load as floats
        blob = json.loads(Path(spec_file).read_text())
        if key == "transitive_map":
            blob[key]["pairs"][0][2] = [float(value), 0.0]
        else:
            blob[key]["entries"][0][0] = [float(value), 0.0]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(blob))
        assert value in path.read_text()
        assert expected in usage_error(capsys, *verb, str(path))
