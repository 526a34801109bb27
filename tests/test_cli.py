"""Front-end behavior: parsing, exit codes, records, determinism.

Runs go through main() in-process; expected outputs are judged with
numpy recomputed oracles, and the advertised exit codes (0 ok,
2 config, 3 abort, 4 leak) are pinned here.
"""

import numpy as np
import pytest

import compc.mpc
import compc.subroutines
from compc import cli
from compc.errors import DecodingFailure, InconsistentShares, ProtocolAbort
from compc.gf import FMatrix
from compc.mpc import ProgramOp

SCENARIOS = "scenarios"


def fixture(name):
    import os
    return os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        SCENARIOS, name)


def run_cli(*argv):
    return cli.main(list(argv))


def load_run(name, *options):
    args = cli.build_parser().parse_args(
        ["run", "--scenario", fixture(name), *options])
    return cli.load_scenario(args)


class TestScenarioParsing:
    def test_program_line_forms(self):
        op = cli.parse_program_line("SHARE 0 direct -> ra")
        assert op == ProgramOp("share", (0, "direct"), "ra")
        assert cli.parse_program_line("MUL ra rb -> rc") == \
            ProgramOp("mul", ("ra", "rb"), "rc")
        assert cli.parse_program_line("TRANSPOSE ra -> rb") == \
            ProgramOp("transpose", ("ra",), "rb")
        assert cli.parse_program_line("REVEAL rc") == \
            ProgramOp("reveal", ("rc",))

    @pytest.mark.parametrize("line", [
        "FROB ra -> rb",
        "MUL ra -> rb",
        "REVEAL ra -> rb",
        "SHARE 0 sideways -> ra",
        "SHARE x direct -> ra",
        "MUL ra rb",
    ])
    def test_bad_program_lines(self, line):
        with pytest.raises(cli.ConfigError):
            cli.parse_program_line(line)

    def test_full_text_parse(self):
        text = """
        # comment
        n = 6
        t = 1
        m = 2
        z = 2
        prime = 97
        input = 1 2 ; 3 4
        adversary = 6 Silent

        SHARE 0 direct -> ra
        REVEAL ra
        """
        settings, adversaries, inputs, program = cli.parse_scenario_text(text)
        assert settings["n"] == 6 and settings["prime"] == 97
        assert adversaries == ((6, "Silent"),)
        assert inputs == [[[1, 2], [3, 4]]]
        assert [op.kind for op in program] == ["share", "reveal"]

    @pytest.mark.parametrize("text", [
        "bogus = 1",
        "n = many",
        "adversary = 3",
        "input = 1 x",
    ])
    def test_bad_settings(self, text):
        with pytest.raises(cli.ConfigError):
            cli.parse_scenario_text(text)

    def test_overrides_apply(self):
        scenario = load_run("identity.scn", "--n", "6", "--seed", "99")
        assert scenario.n == 6 and scenario.seed == 99

    def test_strategy_override_fills_tail_workers(self):
        scenario = load_run("identity.scn", "--strategy", "Silent")
        assert scenario.adversaries == ((4, "Silent"),)

    def test_strategy_override_renames_declared(self):
        scenario = load_run("threshold.scn", "--strategy", "Silent")
        assert scenario.adversaries == ((6, "Silent"),)


class TestDirectEvaluator:
    def test_matches_modular_matrix_algebra(self):
        rng = np.random.default_rng(5)
        p = 97
        mats = [FMatrix(rng.integers(0, p, (2, 2)), p) for _ in range(3)]
        program = (ProgramOp("share", (0, "direct"), "a"),
                   ProgramOp("share", (1, "reverse"), "b"),
                   ProgramOp("share", (2, "direct"), "c"),
                   ProgramOp("mul", ("a", "b"), "ab"),
                   ProgramOp("transpose", ("c",), "ct"),
                   ProgramOp("add", ("ab", "ct"), "out"),
                   ProgramOp("reveal", ("out",)))
        got = cli.direct_eval(program, mats, p)
        want = (mats[0].a @ mats[1].a.T + mats[2].a.T) % p
        assert got == want.tolist()

    def test_direction_swaps_are_value_identities(self):
        x = FMatrix([[3, 1]], 11)
        program = (ProgramOp("share", (0, "direct"), "a"),
                   ProgramOp("d2r", ("a",), "b"),
                   ProgramOp("r2d", ("b",), "c"),
                   ProgramOp("reveal", ("c",)))
        assert cli.direct_eval(program, (x,), 11) == x.a.tolist()


class TestRunCommand:
    def test_identity_scenario_is_correct(self, tmp_path, capsys):
        out = tmp_path / "id"
        code = run_cli("run", "--scenario", fixture("identity.scn"),
                       "--out", str(out))
        assert code == 0
        line = out.read_text()
        assert "correct=true" in line and "eliminations=-" in line
        assert "record=run" in capsys.readouterr().out
        transcript = (tmp_path / "id.transcript").read_text()
        assert transcript.startswith("E|")

    def test_threshold_scenario_eliminates_the_cheater(self, tmp_path):
        out = tmp_path / "th"
        code = run_cli("run", "--scenario", fixture("threshold.scn"),
                       "--out", str(out))
        assert code == 0
        line = out.read_text()
        assert "correct=true" in line
        assert "eliminations=6:" in line

    def test_below_threshold_is_a_config_error(self, capsys):
        code = run_cli("run", "--scenario", fixture("identity.scn"), "--n", "2")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("prime", ["4294967311", "2305843009213693951",
                                       "12"])
    def test_unsupported_primes_are_refused(self, prime, capsys):
        # int64 kernels are exact only below 2**31; refuse at validation
        code = run_cli("run", "--scenario", fixture("threshold.scn"),
                       "--prime", prime)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("not below 2**31" in err) == (prime != "12")

    def test_missing_scenario_file(self):
        assert run_cli("run", "--scenario", "/no/such/file.scn") == 2

    def test_protocol_abort_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(scenario):
            raise ProtocolAbort("InputRejected", "dealer rejected")
        monkeypatch.setattr(cli, "run_scenario", boom)
        out = tmp_path / "ab"
        code = run_cli("run", "--scenario", fixture("identity.scn"),
                       "--out", str(out))
        assert code == 3
        assert "abort=ProtocolAbort" in out.read_text()

    @pytest.mark.parametrize("where,exc", [
        ("subroutines.decode", DecodingFailure),
        ("mpc.robust_reconstruct", InconsistentShares)])
    def test_failure_inside_a_run_maps_to_exit_3(self, where, exc, tmp_path,
                                                 monkeypatch, capsys):
        # a decoder that gives up mid-run is a protocol abort, with a
        # record line, not a configuration error
        module, name = where.split(".")

        def boom(*args, **kwargs):
            raise exc("beyond the budget")
        monkeypatch.setattr(getattr(compc, module), name, boom)
        out = tmp_path / "df"
        code = run_cli("run", "--scenario", fixture("threshold.scn"),
                       "--out", str(out))
        assert code == 3
        want = (f"correct=false abort={exc.__name__} eliminations=- "
                "master=-")
        assert want in out.read_text()
        assert want in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert run_cli("run", "--scenario", fixture("threshold.scn"),
                           "--out", str(out)) == 0
            outs.append((out.read_text(),
                         (tmp_path / f"{name}.transcript").read_bytes()))
        assert outs[0] == outs[1]

    def test_affine_program_runs(self, tmp_path):
        out = tmp_path / "af"
        assert run_cli("run", "--scenario", fixture("affine.scn"),
                       "--out", str(out)) == 0
        assert "correct=true" in out.read_text()


class TestSweepCommand:
    def test_threshold_formula_row(self, tmp_path):
        out = tmp_path / "sw"
        code = run_cli("sweep", "--grid", "m=20;t=20", "--out", str(out))
        assert code == 0
        line = out.read_text().strip()
        assert "m=20 t=20 n=99" in line
        assert "correct=true" in line

    def test_default_grid_runs_semi_honest(self, capsys):
        assert run_cli("sweep") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all("strategy=- correct=true" in line for line in lines)

    def test_t0_rows_use_the_short_threshold(self, capsys):
        assert run_cli("sweep", "--grid", "m=1,2,3;t=0") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = {tuple(line.split()[1:4]) for line in lines}
        assert got == {("m=1", "t=0", "n=1"), ("m=2", "t=0", "n=3"),
                       ("m=3", "t=0", "n=5")}

    def test_adversarial_cell_eliminates(self, capsys):
        code = run_cli("sweep", "--grid",
                       "m=1;t=1;strategy=CorruptProductPoly")
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "correct=true" in line and "eliminations=1" in line

    def test_bad_grid_is_a_config_error(self):
        assert run_cli("sweep", "--grid", "q=3") == 2
        assert run_cli("sweep", "--grid", "strategy=Nonsense") == 2

    def test_deterministic_up_to_wall_time(self, capsys):
        def strip_wall(text):
            return [line.rsplit("wall_ms=", 1)[0] for line in text.splitlines()]
        assert run_cli("sweep", "--grid", "m=1;t=0,1") == 0
        first = strip_wall(capsys.readouterr().out)
        assert run_cli("sweep", "--grid", "m=1;t=0,1") == 0
        second = strip_wall(capsys.readouterr().out)
        assert first == second


class TestAuditCommand:
    def test_default_grid_is_private(self, tmp_path):
        out = tmp_path / "au"
        assert run_cli("audit", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 11
        assert all("verdict=private" in line for line in lines)
        assert all("tv=0" in line for line in lines)

    def test_planted_leaks_exit_4(self, capsys):
        code = run_cli("audit", "--grid", "sharing-leak")
        assert code == 4
        assert "verdict=leaky" in capsys.readouterr().out

    def test_product_leak_breaks_kernels(self, capsys):
        assert run_cli("audit", "--grid", "product-leak") == 4
        assert "kernels=broken" in capsys.readouterr().out

    def test_empty_grid_empty_report(self, tmp_path):
        out = tmp_path / "empty"
        assert run_cli("audit", "--grid", "", "--out", str(out)) == 0
        assert out.read_text() == ""

    def test_unknown_case_is_a_config_error(self):
        assert run_cli("audit", "--grid", "who-knows") == 2

    def test_narrow_product_case(self, capsys):
        assert run_cli("audit", "--grid", "product-narrow") == 0
        assert "tv=0" in capsys.readouterr().out

    def test_sampled_case_quiet(self, capsys):
        code = run_cli("audit", "--grid", "mc-sharing", "--samples", "1000")
        assert code == 0
        assert "flags=0" in capsys.readouterr().out

    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("audit", "--grid", "sharing-m1,product-wide",
                           "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("sweep", "--prime", "7"),
    ("sweep", "--samples", "5"),
    ("audit", "--strategy", "Silent"),
    ("run", "--scenario", fixture("identity.scn"), "--grid", "m=1"),
    # prefixes of --seed and --prime: no abbreviation is read as an option
    ("sweep", "--s", "5"),
    ("run", "--scenario", fixture("threshold.scn"), "--pr", "7"),
])
def test_options_a_command_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
