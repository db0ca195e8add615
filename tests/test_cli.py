import json
import re
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from smalg.cli import main
from smalg import jsonio
from smalg.cocycle import TransitiveMap
from smalg.jordan import CentralIdempotent, JordanSpec
from smalg.quasiorder import QuasiOrder, closure

from lemmas import upper_triangular


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

    @pytest.mark.parametrize("flags", [[], ["--pretty"]])
    def test_overflowing_image_is_an_error(self, capsys, tmp_path, flags):
        # a valid spec whose image of E_12, 1.7e308 S E_12 S^-1, overflows:
        # nothing is printed, rather than Infinity and NaN tokens
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "quasiorder": {"n": 2, "pairs": [[1, 1], [1, 2], [2, 2]]},
            "s_matrix": {"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                             [[0.0, 0.0], [0.25, 0.0]]]},
            "transitive_map": {"pairs": [[1, 2, [1.7e308, 0.0]]]},
            "idempotent_diag": [1, 1],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: phi(E_{1,2}) is not finite\n"


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

    @pytest.mark.parametrize("bit", [1, 0])
    def test_criterion_failing_spec_recovers(self, capsys, tmp_path, fan4, bit):
        # the fan fails the neighborhood criterion at (1, 3), yet its Jordan
        # embeddings have the (S, g, P) form all the same
        spec = JordanSpec(fan4, np.eye(4, dtype=complex), TransitiveMap.constant_one(fan4),
                          CentralIdempotent((bit,) * 4))
        path = tmp_path / "fan_spec.json"
        path.write_text(jsonio.dump_json(jsonio.jordan_spec_to_dict(spec)))
        code = main(["recover", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        report = json.loads(captured.out)
        assert report["recovered"]["idempotent_diag"] == [bit] * 4
        kept, flipped = (fan4, QuasiOrder.diagonal(4))[::1 if bit else -1]
        assert report["rho_m"] == jsonio.quasiorder_to_dict(kept)
        assert report["rho_a"] == jsonio.quasiorder_to_dict(flipped)
        assert report["max_unit_error"] == report["max_sample_error"] == 0.0


def zero_second_row(doc):
    """Zero row 2 of the fan's rank-one matrix: E_13 + E_14 is in the rank-one closure."""
    doc["entries"][1] = [[0.0, 0.0]] * 4


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

    @pytest.mark.parametrize("name, perturb, check, diff", [
        pytest.param("fan_2x2.json", lambda d: d["pairs"].append([3, 4]), "fan pattern",
                     "criterion verdict (True, None), expected (False, (1,3))", id="fan_2x2"),
        pytest.param("fan_2x2_rank_one.json", zero_second_row, "fan pattern",
                     "rank-one closure membership: got True, expected False",
                     id="fan_2x2_rank_one"),
        # a check that raises is reported as the exception, not a crash
        pytest.param("fan_2x2_rank_one.json", lambda d: d.update(n="4"), "fan pattern",
                     """exception: ValueError("n must be an integer, got '4'")""",
                     id="fan_2x2_rank_one-string-n"),
        pytest.param("nontrivial_cocycle_7.json", lambda d: d["pairs"].remove([4, 5]),
                     "7x7 pattern", "criterion should hold, got witness (2, 4)",
                     id="nontrivial_cocycle_7"),
        pytest.param("nontrivial_cocycle_7.json", lambda d: d["pairs"].remove([1, 3]),
                     "7x7 pattern", "pattern mismatch: missing pairs [(1, 3)], extra pairs []",
                     id="nontrivial_cocycle_7-drop-1-3"),
        pytest.param("two_blocks_3x3.json", lambda d: d["pairs"].append([1, 4]),
                     "two-block algebra",
                     "closure added [(1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), "
                     "(3, 6)], expected the file to be closed", id="two_blocks_3x3"),
        pytest.param("symmetric_pair_3.json", lambda d: d["pairs"].remove([2, 1]),
                     "symmetric pair", "counterexample shape (2, 1, 2), expected (1, 1, 2)",
                     id="symmetric_pair_3"),
    ])
    def test_perturbed_golden_fails_with_diff(self, capsys, tmp_path, monkeypatch,
                                              name, perturb, check, diff):
        # copy the golden tree, perturb one file, repoint the loader: the
        # check reading that file reports its own diff, every other check passes
        import shutil
        import smalg.cli as cli

        src = resources.files("smalg").joinpath("golden")
        dst = tmp_path / "golden"
        shutil.copytree(str(src), dst)
        doc = json.loads((dst / name).read_text())
        perturb(doc)
        (dst / name).write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "_golden", lambda name: dst / name)
        code, out = run(capsys, "selftest")
        assert code == 2
        lines = out.splitlines()
        for label, _ in cli._selftest_checks():
            status = "FAIL" if label.startswith(check) else "PASS"
            [at] = [k for k, line in enumerate(lines) if line.startswith(f"[{status}] {label} (")]
            if status == "FAIL":
                assert lines[at + 1] == f"       {diff}"
        assert lines[-1].startswith("selftest: 1 failure(s) in ")

    def test_symmetric_pair_needs_injectivity(self, capsys, monkeypatch):
        # the paper's preservers are injective: a report whose injectivity
        # fails is not the expected counterexample, whatever additivity says
        # the selftest imports verify_preserver from its layer when it runs
        from smalg import preservers
        from smalg.preservers import PropertyVerdict

        inner = preservers.verify_preserver

        def noninjective(*args, **kwargs):
            report = inner(*args, **kwargs)
            report.injectivity = PropertyVerdict(checked=1, witnesses=[("forced",)])
            return report

        monkeypatch.setattr(preservers, "verify_preserver", noninjective)
        code, out = run(capsys, "selftest")
        assert code == 2
        lines = out.splitlines()
        [at] = [k for k, line in enumerate(lines)
                if line.startswith("[FAIL] symmetric pair: block twist breaks additivity (")]
        assert lines[at + 1].startswith("       unexpected report: ")
        assert out.count("[FAIL]") == 1 and lines[-1].startswith("selftest: 1 failure(s) in ")


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

    @pytest.mark.parametrize("extra", ["kind", "quasiorder", "both"])
    def test_verify_rejects_spec_with_the_other_form(self, capsys, spec_file, extra):
        # the spec would pass and the scaling control fail: neither is graded
        kind, quasiorder = ["--kind", "scaling"], ["--quasiorder", golden("fan_2x2.json")]
        argv = kind * (extra != "quasiorder") + quasiorder * (extra != "kind")
        code = main(["verify", "--spec", spec_file, *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: provide --spec FILE or --kind NAME --quasiorder FILE\n"

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

    @pytest.mark.parametrize("verb", [["embed"], ["recover", "--spec"], ["verify", "--spec"]])
    def test_unclosed_spec_order(self, capsys, tmp_path, verb):
        t3 = upper_triangular(3)
        blob = json.loads(jsonio.dump_json(jsonio.jordan_spec_to_dict(JordanSpec(
            t3, np.eye(3, dtype=complex), TransitiveMap.constant_one(t3),
            CentralIdempotent((1, 1, 1))))))
        blob["quasiorder"]["pairs"].remove([1, 3])
        path = tmp_path / "unclosed.json"
        path.write_text(json.dumps(blob))
        assert usage_error(capsys, *verb, str(path)) == (
            f"error: cannot load spec from {path}: spec quasi-order is not closed; "
            "missing pairs [(1, 3)]\n")

    @pytest.mark.parametrize("verb", [["embed"], ["recover", "--spec"], ["verify", "--spec"]])
    def test_duplicate_transitive_map_pair(self, capsys, tmp_path, spec_file, verb):
        # the second value would silently replace the first
        blob = json.loads(Path(spec_file).read_text())
        pairs = blob["transitive_map"]["pairs"]
        pairs.append([*pairs[0][:2], [2.0, 0.0]])
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(blob))
        assert usage_error(capsys, *verb, str(path)) == (
            f"error: cannot load spec from {path}: transitive map lists pair (1,2) twice\n")

    @pytest.mark.parametrize("content, expected", [
        pytest.param(content, expected, id=content) for content, expected in [
            ('{"n": 3, "pairs": [[1, 2.7]]}', "pairs must be pairs of integers, got [1, 2.7]"),
            ('{"n": true, "pairs": []}', "n must be an integer, got True"),
            ('{"n": 1e300, "pairs": []}', "n must be an integer, got 1e+300")]
    ])
    def test_analyze_rejects_non_integers(self, capsys, tmp_path, content, expected):
        path = tmp_path / "q.json"
        path.write_text(content)
        assert usage_error(capsys, "analyze", str(path)).endswith(f": {expected}\n")

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
        pytest.param("s_matrix", "true",
                     "matrix entry must be a pair of numbers, got [True, 0.0]", id="S true"),
        pytest.param("transitive_map", "false",
                     "transitive map value must be a pair of numbers, got [False, 0.0]",
                     id="g false"),
    ])
    def test_non_finite_spec(self, capsys, tmp_path, spec_file, verb, key, value, expected):
        # JSON's NaN and Infinity tokens load as floats, true and false as bools
        blob = json.loads(Path(spec_file).read_text())
        if key == "transitive_map":
            blob[key]["pairs"][0][2] = [json.loads(value), 0.0]
        else:
            blob[key]["entries"][0][0] = [json.loads(value), 0.0]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(blob))
        assert value in path.read_text()
        assert expected in usage_error(capsys, *verb, str(path))
