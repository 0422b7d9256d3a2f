import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from rbn import cli
from rbn.cli import main

# stdout and exit code of each example in the README's "Command line"
# section, byte for byte
README_EXAMPLES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "readme_cli.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_parse_error(capsys, *argv):
    """Exit code, stdout and stderr of an argument vector the parser refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["cohom", "--surface", "dp7", "--divisor", "3L-E1"],
        ["cohom", "--surface", "blp2:k=4:collinear=1,2,3,4", "--divisor", "2L-E1-E2-E3-E4"],
        ["wbn", "--surface", "dp7", "--character", "r=3;c1=2L;chi=0"],
        ["wbn", "--surface", "F1", "--sweep", "--bound", "0"],
        ["goodsum", "--surface", "dp7", "--rank", "3", "--c1", "2L"],
        ["oracle", "h0", "--surface", "blp2:k=2", "--divisor", "L"],
        ["oracle", "cohom", "--surface", "blp2:k=2", "--divisor", "L"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_trials_below_one_refused(capsys, argv, trials):
    # whichever route would answer, a trial count below 1 is an input error
    code, out, err = run_parse_error(capsys, *argv, "--trials", trials)
    assert (code, out) == (2, "") and "--trials: must be at least 1" in err
    # the usage line is the subcommand's, not the top-level one
    assert err.startswith(f"usage: rbn {argv[0]} ")


# a collinear class that no certified route decides
COLLINEAR_ORACLE_CLASS = ("blp2:k=4:collinear=1,2,3,4", "--divisor", "2L-E1-E2-E3-E4")


def _forbid_the_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("rbn cohom reached the oracle on a certified class")

    monkeypatch.setattr("rbn.cohomology.blowup_cohomology_oracle", no_oracle)


class TestCohom:
    def test_hirzebruch_text(self, capsys):
        code, out, _ = run(capsys, "cohom", "--surface", "F2", "--divisor", "2E+F")
        assert code == 0 and out == "h0=2 h1=2 h2=0\n"

    def test_blowup_oracle_backed(self, capsys):
        code, out, _ = run(capsys, "cohom", "--surface", "blp2:k=2", "--divisor", "2L-E1-E2")
        assert code == 0 and out == "h0=4 h1=0 h2=0\n"

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "cohom", "--surface", "F2", "--divisor", "2E+F", "--json")
        assert code == 0 and json.loads(out) == {"h0": 2, "h1": 2, "h2": 0}

    def test_deep_hirzebruch_class(self, capsys):
        code, out, _ = run(capsys, "cohom", "--surface", "F1", "--divisor", "3000E+5F")
        assert code == 0 and out == "h0=21 h1=4483515 h2=0\n"

    def test_blowup_hirzebruch_refused(self, capsys):
        code, _, err = run(capsys, "cohom", "--surface", "blF2:k=1", "--divisor", "F")
        assert code == 2 and "error:" in err

    def test_collinear_index_zero_refused(self, capsys):
        # collinear indices count the points from 1
        code, out, err = run(capsys, "cohom", "--surface", "blp2:k=3:collinear=0,1", "--divisor", "L-E1-E2")
        assert (code, out) == (2, "") and "error:" in err

    # bytes the oracle printed for these classes before certified vectors
    # (exact on general points, rule-derived elsewhere) came first
    @pytest.mark.parametrize(
        "surface, divisor, expected",
        [
            ("blp2:k=5", "3L-2E1-E2-E3-E4-E5", "h0=3 h1=0 h2=0\n"),
            ("blp2:k=5", "4L-2E1-2E2-2E3-2E4-2E5", "h0=1 h1=1 h2=0\n"),
            ("blp2:k=5", "-4L+E1", "h0=0 h1=0 h2=3\n"),
            ("blp2:k=4:collinear=1,2,3,4", "2L-E1-E2", "h0=4 h1=0 h2=0\n"),
            ("blp2:k=9", "3L-E1-E2-E3-E4", "h0=6 h1=0 h2=0\n"),
        ],
    )
    def test_certified_vectors_skip_the_oracle(self, capsys, monkeypatch, surface, divisor, expected):
        _forbid_the_oracle(monkeypatch)
        code, out, _ = run(capsys, "cohom", "--surface", surface, f"--divisor={divisor}")
        assert (code, out) == (0, expected)

    def test_collinear_points_keep_the_oracle(self, capsys):
        code, out, _ = run(capsys, "cohom", "--surface", *COLLINEAR_ORACLE_CLASS)
        assert (code, out) == (0, "h0=3 h1=1 h2=0\n")

    def test_the_oracle_patch_reaches_rbn_cohom(self, capsys, monkeypatch):
        # under the patch above the class that needs the oracle is an internal error
        _forbid_the_oracle(monkeypatch)
        code, out, err = run(capsys, "cohom", "--surface", *COLLINEAR_ORACLE_CLASS)
        assert (code, out) == (3, "") and "reached the oracle" in err

    def test_repeated_collinear_field_refused(self, capsys):
        # the last field won: this printed h0=1 h1=1 h2=0 and exited 0
        code, out, err = run(
            capsys, "cohom", "--surface", "blp2:k=4:collinear=1,2,3:collinear=2,3,4", "--divisor", "L-E2-E3-E4"
        )
        assert (code, out) == (2, "")
        assert err == "error: option 'collinear' given twice (at 'collinear=2,3,4')\n"

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(D, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("rbn.cli.line_bundle_cohomology", broken)
        code, out, err = run(capsys, "cohom", "--surface", "F2", "--divisor", "2E+F")
        assert (code, out) == (3, "")
        assert err.startswith("Traceback") and err.endswith("internal error: RuntimeError: boom\n")


class TestChi:
    def test_divisor(self, capsys):
        code, out, _ = run(capsys, "chi", "--surface", "F2", "--divisor", "2E+F")
        assert code == 0 and out == "0\n"

    def test_character(self, capsys):
        code, out, _ = run(
            capsys, "chi", "--surface", "dp7", "--character", "r=3;c1=2L;ch2=-6"
        )
        assert code == 0 and out == "0\n"

    @pytest.mark.parametrize(
        "character, key",
        [("r=2;c1=E;chi=0;ch3=5", "unknown key 'ch3'"), ("r=2;r=3;c1=E;chi=0", "key 'r' given twice")],
        ids=["unknown", "repeated"],
    )
    def test_character_key_refused(self, capsys, character, key):
        # an unknown key was ignored and a repeated one silently overwritten
        code, out, err = run(capsys, "chi", "--surface", "F0", "--character", character)
        assert (code, out) == (2, "") and key in err


class TestWbn:
    def test_holds_json(self, capsys):
        code, out, _ = run(
            capsys, "wbn", "--surface", "dp7", "--character", "r=3;c1=2L;ch2=-6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Holds"
        assert sorted(payload["witness"]["summands"]) == ["E1+E2", "L-E1", "L-E2"]
        assert payload["witness"]["modifications"] == 5

    def test_fails_with_bound(self, capsys):
        code, out, _ = run(
            capsys, "wbn", "--surface", "F1", "--character", "r=2;c1=2E-F;chi=0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Fails"
        assert payload["obstruction"]["h0_lower_bound"] == 1

    def test_rank_one_negative_chi_is_empty(self, capsys):
        code, out, _ = run(capsys, "wbn", "--surface", "F1", "--character", "r=1;c1=-3E;chi=0")
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "EmptyModuli" and payload["bogomolov_delta"] == "-5"
        assert "obstruction" not in payload

    def test_rank_one_needs_chi_zero(self, capsys):
        code, out, err = run(capsys, "wbn", "--surface", "F1", "--character", "r=1;c1=E+2F;chi=3")
        assert (code, out) == (2, "") and "chi(v) = 0" in err

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run(capsys, "wbn", "--surface", "dp6", "--character", "r=2;c1=E1;chi=0")
        assert code == 1 and json.loads(out)["status"] == "Unknown"

    def test_text_mode_carries_same_information(self, capsys):
        _, json_out, _ = run(
            capsys, "wbn", "--surface", "F1", "--character", "r=2;c1=2E-F;chi=0"
        )
        _, text_out, _ = run(
            capsys, "wbn", "--surface", "F1", "--character", "r=2;c1=2E-F;chi=0", "--text"
        )
        payload = json.loads(json_out)
        fields = dict(line.split("=", 1) for line in text_out.strip().splitlines())
        assert fields["status"] == payload["status"]
        assert json.loads(fields["obstruction"]) == payload["obstruction"]

    def test_resolution_note_prints_the_slope(self, capsys):
        # the hypotheses are integer tests; the note prints delta = l/r
        code, out, _ = run(
            capsys, "wbn", "--surface", "blp2:k=2", "--character", "r=2;c1=-L;chi=0", "--text"
        )
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert code == 1 and fields["status"] == "Unknown"
        assert "resolution route: hypothesis delta >= 0 fails: delta = -1/2" in json.loads(
            fields["notes"]
        )

    def test_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys, "wbn", "--surface", "F1", "--sweep", "--rank", "2", "--bound", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,l,status,h0_lower_bound,delta"
        assert len(lines) == 1 + 5 * 5
        statuses = {line.split(",")[2] for line in lines[1:]}
        assert statuses <= {"Holds", "Fails", "EmptyModuli"}

    def test_sweep_bound(self, capsys):
        # a negative bound printed a bare header and exited 0; bound 0 sweeps (0, 0)
        code, out, err = run(capsys, "wbn", "--surface", "F0", "--sweep", "--bound", "-1")
        assert (code, out) == (2, "") and "--bound" in err
        code, out, _ = run(capsys, "wbn", "--surface", "F0", "--sweep", "--bound", "0")
        assert (code, out) == (0, "k,l,status,h0_lower_bound,delta\n0,0,Holds,,1\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--character", "r=2;c1=E;chi=0", "--rank", "7"], "apply to --sweep only"),
            (["--character", "r=2;c1=E;chi=0", "--bound", "-3", "--text"], "apply to --sweep only"),
            (["--sweep", "--character", "r=2;c1=E;chi=0", "--bound", "0"], "not allowed with argument"),
            (["--rank", "3"], "one of the arguments --character --sweep is required"),
        ],
    )
    def test_flags_of_the_other_mode_refused(self, capsys, flags, message):
        # the first three printed the rank-2 verdict or the sweep and exited 0
        code, out, err = run_parse_error(capsys, "wbn", "--surface", "F0", *flags)
        assert (code, out) == (2, "") and message in err
        assert err.startswith("usage: rbn wbn ")

    def test_sweep_defaults_unchanged(self, capsys):
        # --rank 2 and --bound 4 are the defaults of --sweep
        _, default, _ = run(capsys, "wbn", "--surface", "F1", "--sweep")
        _, explicit, _ = run(capsys, "wbn", "--surface", "F1", "--sweep", "--rank", "2", "--bound", "4")
        assert default == explicit and len(default.splitlines()) == 1 + 17 * 17


class TestResolveGoodsumOracleCurves:
    def test_resolve(self, capsys):
        code, out, _ = run(
            capsys, "resolve", "--surface", "blp2:k=2", "--character", "r=2;c1=2L-E1-E2;chi=0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["left"] == {"-2L": 2}
        assert payload["right"] == {"-L": 2, "-E1": 1, "-E2": 1}

    def test_resolve_normalizes_hirzebruch_input(self, capsys):
        # -3E-4F violates k/r >= -1, so the Serre dual -E is resolved instead
        code, out, _ = run(
            capsys, "resolve", "--surface", "F0", "--character", "r=2;c1=-3E-4F;chi=0"
        )
        assert code == 0
        assert json.loads(out)["cokernel"]["c1"] == "-E"

    def test_resolve_hypothesis_error(self, capsys):
        code, _, err = run(
            capsys, "resolve", "--surface", "blp2:k=2", "--character", "r=2;c1=2L+E1;chi=0"
        )
        assert code == 2 and "alpha_1" in err

    def test_resolve_hypothesis_error_prints_slopes(self, capsys):
        code, out, err = run(
            capsys, "resolve", "--surface", "blF2:k=1", "--character", "r=2;c1=E-2F-E1;chi=0"
        )
        assert (code, out) == (2, "")
        assert err.strip().endswith(
            "hypothesis beta - sum alpha_i + 1 >= max((e-1)alpha, e alpha) fails: -1/2 < 1"
        )

    @pytest.mark.parametrize(
        "surface, character",
        [
            ("F1", "r=2;c1=E+F;chi=0"),
            ("blp2:k=2", "r=2;c1=2L-E1-E2;chi=0"),
            ("blF2:k=1", "r=2;c1=E+3F-E1;chi=0"),
        ],
    )
    def test_resolve_unverified_report_exits_3_under_optimize(self, surface, character):
        # the report's bookkeeping check is a raise, not an assert
        script = textwrap.dedent(
            f"""
            import sys
            from rbn import cli, resolutions
            resolutions.ResolutionReport.bookkeeping_ok = lambda self: False
            sys.exit(cli.main(["resolve", "--surface", "{surface}", "--character", "{character}"]))
            """
        )
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (out.returncode, out.stdout) == (3, "")
        assert "internal error: VerificationError: emitted resolution failed verification" in out.stderr

    def test_goodsum(self, capsys):
        code, out, _ = run(capsys, "goodsum", "--surface", "dp7", "--rank", "3", "--c1", "2L")
        assert code == 0
        payload = json.loads(out)
        assert payload["surface"] == "dp7" and payload["N"] == "3L-E1-E2"
        assert sorted(payload["summands"]) == ["E1+E2", "L-E1", "L-E2"]

    @pytest.mark.parametrize(
        "counts",
        ["((coords, r),)", "((coords, 1),)"],  # r copies of c1; the right c1 at rank 1
        ids=["c1", "rank"],
    )
    def test_goodsum_wrong_decomposition_exits_3_under_optimize(self, counts):
        # the c1 and rank check is a raise, not an assert: is_good_sum does
        # not check c1, so the wrong sum would otherwise be printed
        script = textwrap.dedent(
            f"""
            import sys
            from rbn import cli, goodsums
            goodsums._decompose = lambda k, coords, r: {counts}
            sys.exit(cli.main(["goodsum", "--surface", "dp7", "--rank", "3", "--c1", "2L"]))
            """
        )
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (out.returncode, out.stdout) == (3, "")
        assert "internal error: RuntimeError: decomposition of 2L at rank 3 lost its first Chern" in out.stderr

    def test_goodsum_rejects_non_nef(self, capsys):
        code, _, err = run(capsys, "goodsum", "--surface", "dp7", "--rank", "2", "--c1", "E1")
        assert code == 2 and "not nef" in err

    def test_oracle_h0(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle",
            "h0",
            "--surface",
            "blp2:k=4:collinear=1,2,3,4",
            "--divisor",
            "L-E1-E2-E3-E4",
            "--seed",
            "7",
            "--trials",
            "3",
        )
        assert code == 0 and out == "1\n"

    def test_oracle_cohom_and_prime_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle",
            "cohom",
            "--surface",
            "blp2:k=5",
            "--divisor",
            "4L-2E1-2E2-2E3-2E4-2E5",
            "--prime",
            "100003",
        )
        assert code == 0 and out == "h0=1 h1=1 h2=0\n"

    def test_oracle_bad_prime(self, capsys):
        code, _, err = run(
            capsys, "oracle", "h0", "--surface", "blp2:k=2", "--divisor", "L", "--prime", "10"
        )
        assert code == 2 and "error:" in err

    def test_oracle_prime_cap(self, capsys):
        # 2147483659 is the first prime above 2^31, and the modulus stays below 2^31
        argv = ["oracle", "cohom", "--surface", "blp2:k=5", "--divisor", "4L-2E1-2E2-2E3-2E4-2E5"]
        code, out, err = run(capsys, *argv, "--prime", "2147483659")
        assert (code, out) == (2, "") and err == "error: oracle modulus 2147483659 is not below 2^31\n"
        code, out, _ = run(capsys, *argv, "--prime", "2147483647")
        assert (code, out) == (0, "h0=1 h1=1 h2=0\n")

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_oracle_malformed_prime_variable(self, capsys, monkeypatch, value):
        # a bad value in the environment is an input error, not a bug
        monkeypatch.setenv("RBN_ORACLE_PRIME", value)
        code, out, err = run(
            capsys, "oracle", "h0", "--surface", "blp2:k=4:collinear=1,2,3,4", "--divisor", "L-E1-E2-E3-E4"
        )
        assert (code, out) == (2, "")
        assert err == f"error: RBN_ORACLE_PRIME={value!r} is not an integer\n"

    def test_curves(self, capsys):
        code, out, _ = run(capsys, "curves", "--surface", "dp4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16
        assert lines[0] == "E1" and "2L-E1-E2-E3-E4-E5" in lines


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["wbn", "--surface", "dp5", "--character", "r=4;c1=3L-E1-E2-E3-E4;chi=0"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        argv = [
            "oracle", "h0", "--surface", "blp2:k=5",
            "--divisor", "5L-2E1-2E2-E3-E4-E5", "--seed", "11",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        # a collinear class that no certified route decides, so both runs sample the oracle
        argv = ["cohom", "--surface", "blp2:k=6:collinear=1,2,3", "--divisor", "14L-5E1-3E2-4E3-7E4-7E5-6E6"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second == "h0=12 h1=0 h2=0\n"

    def test_parse_error_shows_fragment(self, capsys):
        code, _, err = run(capsys, "cohom", "--surface", "F2", "--divisor", "2E+3Q")
        assert code == 2 and "3Q" in err
        code, _, err = run(capsys, "cohom", "--surface", "G2", "--divisor", "E")
        assert code == 2 and "G2" in err


class TestReadmeExamples:
    @pytest.mark.parametrize("example", README_EXAMPLES, ids=[e["argv"][0] for e in README_EXAMPLES])
    def test_stdout_and_exit_code(self, capsys, example):
        code, out, _ = run(capsys, *example["argv"])
        assert (code, out) == (example["exit"], example["stdout"])


# stdout and exit code of `rbn wbn` on rank-one characters, one per
# cohomology route: exact, rules, oracle, rules on a blown-up F_e, and Unknown
RANK_ONE_EXAMPLES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "rank_one_cli.json").read_text()
)


class TestRankOneGolden:
    @pytest.mark.parametrize(
        "example", RANK_ONE_EXAMPLES, ids=[f"{e['argv'][2]}:{e['argv'][4]}" for e in RANK_ONE_EXAMPLES]
    )
    def test_stdout_and_exit_code(self, capsys, example):
        code, out, _ = run(capsys, *example["argv"])
        assert (code, out) == (example["exit"], example["stdout"])
