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

    def test_divisor_with_a_leading_minus(self, capsys):
        # attached with "=": argparse reads a separate "-E-F" as an option
        code, out, _ = run(capsys, "cohom", "--surface", "F0", "--divisor=-E-F")
        assert (code, out) == (0, "h0=0 h1=0 h2=0\n")

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
        "surface, character, stdout",
        [
            (
                "F0",
                "r=2;c1=-2E-2F;chi=0",
                '{"collection": ["-E-F", "-E", "-F", "0"], "direct_sum": {"-E-F": 2}, "form": "direct-sum", '
                '"cokernel": {"r": 2, "c1": "-2E-2F", "chi": 0}}',
            ),
            (  # not normalized: the Serre dual -E-3F is resolved
                "F2",
                "r=3;c1=-5E-9F;chi=0",
                '{"collection": ["-E-3F", "-E-2F", "-F", "0"], "left": {"-E-3F": 1}, '
                '"right": {"-E-2F": 2, "-F": 2}, "form": "generic", "cokernel": {"r": 3, "c1": "-E-3F", "chi": 0}}',
            ),
            (
                "blp2:k=2",
                "r=2;c1=2L-2E1-2E2;chi=0",
                '{"collection": ["-2L", "-L", "-E1", "-E2", "0"], "left": {"-L": 2}, '
                '"right": {"-E1": 2, "-E2": 2}, "form": "eqsecond", "cokernel": {"r": 2, "c1": "2L-2E1-2E2", "chi": 0}}',
            ),
            (
                "blF2:k=1",
                "r=2;c1=E+3F-E1;chi=0",
                '{"collection": ["-E-3F", "-E-2F", "-F", "-E1", "0"], "left": {"-E-3F": 3}, '
                '"right": {"-E-2F": 2, "-F": 2, "-E1": 1}, "form": "generic", '
                '"cokernel": {"r": 2, "c1": "E+3F-E1", "chi": 0}}',
            ),
        ],
        ids=["F0-direct-sum", "F2-dualized", "blp2-eqsecond", "blF2"],
    )
    def test_resolve_stdout_on_each_closed_form(self, capsys, surface, character, stdout):
        assert run(capsys, "resolve", "--surface", surface, "--character", character) == (0, stdout + "\n", "")

    @pytest.mark.parametrize(
        "surface, character",
        [("F0", "r=1;c1=E;chi=0"), ("blp2:k=2", "r=1;c1=L-E1;chi=0"), ("blF2:k=1", "r=1;c1=F;chi=0")],
    )
    def test_resolve_refuses_rank_one_alike_on_every_family(self, capsys, surface, character):
        code, out, err = run(capsys, "resolve", "--surface", surface, "--character", character)
        assert (code, out, err) == (2, "", "error: rank must be at least 2\n")

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

    def test_goodsum_on_either_spelling(self, capsys):
        # blp2:k=2 is the surface dp7: the same summands, under its own name
        _, dp7, _ = run(capsys, "goodsum", "--surface", "dp7", "--rank", "3", "--c1", "2L")
        code, out, _ = run(capsys, "goodsum", "--surface", "blp2:k=2", "--rank", "3", "--c1", "2L")
        assert code == 0
        assert out == dp7.replace('"surface": "dp7"', '"surface": "blp2:k=2"')

    @pytest.mark.parametrize("surface", ["dp4", "dp5", "dp6", "dp7", "blp2:k=2", "blp2:k=3", "blp2:k=4", "blp2:k=5"])
    def test_goodsum_never_reaches_the_oracle(self, capsys, monkeypatch, surface):
        # every summand on a del Pezzo surface is decided by the Cremona
        # route, so the check has no oracle provenance to print
        def no_oracle(*args, **kwargs):
            raise AssertionError("rbn goodsum reached the oracle")

        monkeypatch.setattr("rbn.cohomology.blowup_cohomology_oracle", no_oracle)
        for rank, c1 in [(1, "L"), (3, "2L"), (4, "3L-E1-E2"), (5, "5L-2E1-E2")]:
            code, out, err = run(capsys, "goodsum", "--surface", surface, "--rank", str(rank), "--c1", c1)
            assert (code, err) == (0, "") and "provenance" not in json.loads(out)

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

    @pytest.mark.parametrize(
        "surface, divisor, stdout",
        [
            ("blp2:k=6", "6L-3E1-3E2-3E4-3E5-2E6", "h0=2 h1=1 h2=0\n"),
            ("blp2:k=2", "-2L+E1", "h0=0 h1=0 h2=0\n"),
            ("blp2:k=2", "-5L+E1", "h0=0 h1=0 h2=6\n"),
        ],
    )
    def test_oracle_cohom_bytes(self, capsys, surface, divisor, stdout):
        # the README's oracle example, and classes on either side of d = -3,
        # below which the Serre dual is sampled
        assert run(capsys, "oracle", "cohom", "--surface", surface, f"--divisor={divisor}") == (0, stdout, "")

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

    def test_curves(self, capsys):
        code, out, _ = run(capsys, "curves", "--surface", "dp4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16
        assert lines[0] == "E1" and "2L-E1-E2-E3-E4-E5" in lines

    def test_curves_on_either_spelling(self, capsys):
        _, dp4, _ = run(capsys, "curves", "--surface", "dp4")
        assert run(capsys, "curves", "--surface", "blp2:k=5") == (0, dp4, "")
        code, out, err = run(capsys, "curves", "--surface", "blp2:k=6")
        assert (code, out) == (2, "") and "not blp2:k=6" in err


class TestDeterminism:
    def test_the_environment_sets_no_modulus(self, capsys, monkeypatch):
        # only --prime picks another modulus; at 1009 this degree would be refused
        monkeypatch.setenv("RBN_ORACLE_PRIME", "1009")
        code, out, _ = run(
            capsys, "cohom", "--surface", "blp2:k=3:collinear=1,2,3", "--divisor", "1100L-600E1-600E2"
        )
        assert (code, out) == (0, "h0=251001 h1=4950 h2=0\n")

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

    @pytest.mark.parametrize(
        "surface, divisor, fragment",
        [
            ("blp2:k=3", "2L-E1E2", "E2"),
            ("blp2:k=3", "L2E1", "2E1"),
            ("blp2:k=3", "LL", "L"),
            ("blp2:k=3", "L0", "0"),
            ("F2", "EF", "F"),
        ],
    )
    def test_unsigned_term_refused(self, capsys, surface, divisor, fragment):
        code, out, err = run(capsys, "cohom", "--surface", surface, "--divisor", divisor)
        assert (code, out) == (2, "")
        assert err == f"error: expected + or - before each term after the first (at {fragment!r})\n"

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

    def test_same_output_under_optimization(self):
        # no check rests on an assert, so python -O prints the same bytes and
        # exit codes, for the README examples and one more sweep
        sweep = ["wbn", "--surface", "F2", "--sweep", "--rank", "3", "--bound", "3"]
        argvs = [e["argv"] for e in README_EXAMPLES] + [sweep]
        script = textwrap.dedent(
            """
            import contextlib, io, json, sys
            from rbn import cli
            results = []
            for argv in json.loads(sys.argv[1]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                results.append([code, out.getvalue()])
            print(json.dumps(results))
            """
        )
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-c", script, json.dumps(argvs)], capture_output=True, text=True, env=env
            )
            for flags in ([], ["-O"])
        ]
        plain, optimized = (json.loads(run.stdout) for run in runs)
        assert plain == optimized, runs[1].stderr
        assert plain[:-1] == [[e["exit"], e["stdout"]] for e in README_EXAMPLES]
        assert plain[-1][0] == 0 and plain[-1][1].startswith("k,l,status,h0_lower_bound,delta\n")


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
