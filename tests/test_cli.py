import json

import pytest

from zmf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_plain_light_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--r", "1", "--k", "3", "--s", "2",
            "--method", "closed-form", "--output", "plain",
        )
        assert code == 0
        assert "W_1(3; (2+0j))" in out
        assert "(11" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--r", "2", "--k", "0", "--s", "2",
            "--method", "closed-form",
        )
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {"r", "k", "s", "value", "abs_err", "method", "regime"}
        assert rec["r"] == 2 and rec["regime"] == "heavy"
        assert rec["value"]["re"] == pytest.approx(4.0, rel=1e-12)
        assert set(rec["s"]) == {"re", "im"}

    def test_complex_s_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--r", "1", "--k", "1", "--s-re", "1", "--s-im", "0.5",
            "--method", "closed-form",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["s"]["im"] == 0.5
        assert rec["value"]["im"] != 0.0

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--r", "1", "--k", "3", "--s", "2",
            "--method", "closed-form", "--output", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("r,k,s_re")
        assert float(row.split(",")[4]) == pytest.approx(11.0, rel=1e-12)

    def test_round_trip_bit_for_bit(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "eval", "--r", "2", "--k", "1.5", "--s", "2.2",
            "--method", "closed-form",
        )
        assert code == 0
        path = tmp_path / "record.json"
        path.write_text(out)
        code, out2, _ = run_cli(capsys, "eval", "--from-json", str(path))
        assert code == 0
        assert out2 == out

    def test_quadrature_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--r", "1", "--k", "3", "--s", "2",
            "--method", "quadrature",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "quadrature"
        assert rec["value"]["re"] == pytest.approx(11.0, abs=1e-9)

    def test_odd_s_reports_the_circle(self, capsys):
        # The Neville i*delta limit reported "limit" with abs_err ~2e-4.
        code, out, _ = run_cli(
            capsys, "eval", "--r", "3", "--k", "2", "--s", "1",
            "--method", "closed-form", "--output", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "contour"
        assert rec["abs_err"] < 1e-10

    def test_r4_complex_s(self, capsys):
        # Exited 2: the r = 4 heavy route took real s > 0 only.
        code, out, _ = run_cli(
            capsys, "eval", "--r", "4", "--k", "2.5", "--s-re", "1.2", "--s-im", "0.8",
            "--method", "closed-form",
        )
        assert code == 0
        assert json.loads(out)["abs_err"] < 1e-9

    def test_oracle_check_outside_torus_domain_warns(self, capsys):
        # The torus oracle refuses r = 2, |k| < 4, s < -1/2; the closed form
        # is still printed and the missing cross-check is a warning.
        code, out, err = run_cli(capsys, "eval", "--r", "2", "--k", "3.9", "--s", "-0.9")
        assert code == 0
        assert "oracle cross-check unavailable" in err
        assert json.loads(out)["value"]["re"] == pytest.approx(1.7526134596, rel=1e-9)


class TestExitCodes:
    def test_pole_is_numerical(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--r", "1", "--k", "1", "--s", "-3",
            "--method", "closed-form",
        )
        assert code == 3
        assert "numerical error" in err

    def test_unsupported_r_is_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--r", "9", "--k", "1", "--s", "1",
            "--method", "closed-form",
        )
        assert code == 2
        assert "error" in err

    def test_bad_flag_is_validation(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--r", "1", "--nonsense")
        assert code == 2

    @pytest.mark.parametrize("k, s", [("nan", "1"), ("1", "nan"), ("inf", "1")])
    def test_non_finite_point_is_validation(self, capsys, k, s):
        # k = nan used to exit 3 after summing 200,000 NaN terms.
        code, _, err = run_cli(capsys, "eval", "--r", "1", "--k", k, "--s", s)
        assert code == 2
        assert "k and s must be finite" in err

    def test_edge_singularity_is_numerical(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--r", "1", "--x", "2.0")
        assert code == 3


class TestOtherCommands:
    def test_density_base(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--r", "1", "--x", "1.0")
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "base-density"
        assert rec["value"] == pytest.approx(0.18377629847, rel=1e-9)

    def test_density_folded(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--r", "2", "--k", "1", "--x", "1.5"
        )
        assert code == 0
        assert json.loads(out)["kind"] == "shifted-absolute-value-density"

    def test_moment(self, capsys):
        code, out, _ = run_cli(capsys, "moment", "--r", "2", "--v", "4")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"]["re"] == pytest.approx(36.0, rel=1e-12)

    def test_zeros(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--k", "1", "--t-max", "10")
        assert code == 0
        rec = json.loads(out)
        assert rec["count"] == 2
        assert rec["zeros"][0]["t"] == pytest.approx(2.901385, abs=1e-4)

    def test_mahler(self, capsys):
        code, out, _ = run_cli(capsys, "mahler", "--r", "2", "--k", "2")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == pytest.approx(0.511424067053, abs=1e-8)
        assert rec["route_spread"] < 1e-6

    @pytest.mark.parametrize("argv, keys", [
        (("moment", "--r", "2", "--v", "4"), {"r", "v", "two_sided", "value"}),
        (("mahler", "--r", "2", "--k", "2"), {"r", "k", "value", "route_spread", "routes"}),
    ])
    def test_json_only_commands_take_no_output_option(self, capsys, argv, keys):
        # Both commands only ever wrote JSON; the --output they accepted was
        # never read.
        assert run_cli(capsys, *argv, "--output", "csv")[0] == 2
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == keys
        assert out == json.dumps(rec, indent=2) + "\n"

    def test_oracle_mc_deterministic(self, capsys):
        args = ("oracle", "--r", "2", "--k", "1", "--s", "1",
                "--method", "mc", "--samples", "50000", "--seed", "7")
        code, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code == code2 == 0
        assert out1 == out2


class TestVerify:
    def test_moment_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "moments")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("suite,case")
        assert all(line.endswith("pass") for line in lines[1:])

    def test_fe_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "functional-equations")
        assert code == 0
        assert "FAIL" not in out
