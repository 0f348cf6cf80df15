import json

import numpy as np
import pytest

from rhjacobi import cli
from rhjacobi.cli import main
from rhjacobi.errors import ConvergenceError, PrecisionWarning
from rhjacobi.green import build_green
from rhjacobi.pipeline import SolveContext, recip_approx
from rhjacobi.rhp import JumpAssembly


def _config(tmp_path, intervals, kinds):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"intervals": intervals, "kinds": kinds,
                                "resolution": {"ppi": 8}}))
    return str(path)


@pytest.fixture
def single_u(tmp_path):
    return _config(tmp_path, [[-1.0, 1.0]], ["U"])


def test_coeffs_succeeds(single_u, tmp_path):
    out = tmp_path / "coeffs.csv"
    assert main(["coeffs", single_u, "--n0", "0", "--n1", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,a,b,residual"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    # b_0 of the U weight is 1/2; ppi 8 resolves it to about 1e-10
    assert float(lines[1].split(",")[2]) == pytest.approx(0.5, abs=1e-9)


def test_output_is_deterministic(single_u, tmp_path):
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        assert main(["coeffs", single_u, "--n0", "0", "--n1", "3", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_error_exits_1(single_u, capsys):
    assert main(["coeffs", single_u, "--n0", "3", "--n1", "1"]) == 1
    assert "n0 <= n1" in capsys.readouterr().err


def test_numerical_error_exits_2(tmp_path, capsys):
    # bands too close for disjoint deformation circles: GeometryError
    config = _config(tmp_path, [[0.0, 1.0], [1.1, 2.1]], ["T", "T"])
    assert main(["coeffs", config, "--n0", "0", "--n1", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_reports_delta(single_u, tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", single_u, "--n0", "0", "--n1", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# method=oracle")
    assert lines[1] == "n,a,b,delta"


def test_oracle_convergence_error_exits_2(single_u, capsys, monkeypatch):
    # a ConvergenceError reaches main's handler for numerical failures
    def unconverged(*args, **kwargs):
        raise ConvergenceError("oracle did not converge within 4096 nodes per band")

    monkeypatch.setattr(cli, "adaptive_oracle", unconverged)
    assert main(["oracle", single_u, "--n1", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: oracle did not converge within 4096 nodes per band\n"
    assert captured.out == ""


def test_oracle_nan_tolerance_exits_1(single_u, capsys):
    assert main(["oracle", single_u, "--n1", "2", "--tol", "nan"]) == 1
    assert "tolerance" in capsys.readouterr().err


def test_recip_zero_in_support_exits_1(single_u, capsys):
    # the library's DomainError, not a copy of its check in the CLI
    assert main(["recip", single_u, "--nmax", "3"]) == 1
    assert "0 lies inside the support" in capsys.readouterr().err


def test_toda_warning_reaches_caller_and_csv(single_u, tmp_path):
    out = tmp_path / "toda.csv"
    # past the horizon the pairs fail as well: exit 2
    with pytest.warns(PrecisionWarning):
        assert main(["toda", single_u, "--t0", "15", "--steps", "1", "--k", "2",
                     "--out", str(out)]) == 2
    assert any(line.startswith("# warning:") for line in out.read_text().splitlines())


def test_toda_overflow_exits_2(tmp_path, capsys):
    # the residuals of the solves at t = 200 are not finite: failed rows, not
    # NaN rows, each failure's message in a comment line, and the horizon
    # warning of the jump magnitude the failed solve at n = 0 computed
    config = _config(tmp_path, [[-1.8, -1.0], [2.0, 3.0]], ["T", "T"])
    with pytest.warns(PrecisionWarning):
        assert main(["toda", config, "--t0", "200", "--steps", "1", "--k", "2"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "nan" not in "\n".join(lines)
    assert lines[1:3] == ["200,0,,", "200,1,,"]
    assert sum(line.startswith("# warning: circle jump magnitude") for line in lines) == 1
    for n in (0, 1):
        assert f"# failure: t=200 n={n}: off-collocation jump residual is not finite" in lines


def test_toda_success_has_no_comment_lines(single_u, capsys):
    assert main(["toda", single_u, "--t0", "0", "--t1", "0.5", "--steps", "2", "--k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,n,a,b" and len(lines) == 5
    assert not any(line.startswith("#") for line in lines)


@pytest.mark.parametrize("command", ["coeffs", "toda"])
@pytest.mark.parametrize("flags,message", [
    (["--ppi", "0"], "ppi must be an integer >= 2, got 0"),
    (["--ppi", "-1"], "ppi must be an integer >= 2, got -1"),
    (["--ppi", "1"], "ppi must be an integer >= 2, got 1"),
])
def test_bad_resolution_exits_1(single_u, capsys, command, flags, message):
    assert main([command, single_u, *flags]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coeffs", "toda"])
def test_circle_ratio_flag_rejected(single_u, capsys, command):
    # ppi is the only resolution setting; circles take a fixed multiple of it
    with pytest.raises(SystemExit) as exc:
        main([command, single_u, "--circle-ratio", "10"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --circle-ratio 10" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--bogus"], "error:"),
    ([], "required: command"),
    (["coeffs", "weight.json", "--ppi", "x"], "invalid int value: 'x'"),
    (["toda", "weight.json", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_error_exits_1(capsys, argv, message):
    # 2 is the code of numerical failures
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["coeffs", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


_VALID = {"intervals": [[-1.0, 1.0]], "kinds": ["U"]}


@pytest.mark.parametrize("text,message", [
    (None, "cannot read config file"),
    ("{", "not valid JSON"),
    ("[]", "root must be an object"),
    (json.dumps({"kinds": ["U"]}), "missing required field 'intervals'"),
    (json.dumps({"intervals": [[-1.0, 1.0]]}), "missing required field 'kinds'"),
    (json.dumps({**_VALID, "intervals": []}), "field 'intervals' must be a nonempty list"),
    (json.dumps({**_VALID, "intervals": [[-1.0]]}), "field 'intervals[0]' must be a pair"),
    (json.dumps({**_VALID, "intervals": [[1.0, -1.0]]}), "field 'intervals[0]' is invalid"),
    (json.dumps({**_VALID, "kinds": ["U", "T"]}), "field 'kinds' must be a list matching"),
    (json.dumps({**_VALID, "kinds": ["X"]}), "field 'kinds[0]' is invalid"),
    (json.dumps({**_VALID, "h": {"type": "nope"}}), "field 'h' is invalid"),
    # a top-level h list is one entry per band, never a product over all of them
    (json.dumps({"intervals": [[-3.0, -1.0], [-0.5, 0.5], [1.0, 3.0]], "kinds": ["T", "T", "T"],
                 "h": [{"type": "exp_scale", "c": 0.3}, {"type": "poly", "coeffs": [2.0, 0.5]}]}),
     "field 'h' as a list must match 'intervals' in length"),
    (json.dumps({"intervals": [[0.0, 2.0], [1.0, 3.0]], "kinds": ["U", "U"]}),
     "invalid weight specification"),
    (json.dumps({**_VALID, "resolution": 8}), "field 'resolution' must be an object"),
    (json.dumps({**_VALID, "resolution": {"ppi": "x"}}), "field 'resolution.ppi' must be an integer"),
    (json.dumps({**_VALID, "resolution": {"ppi": 8, "circle_ratio": 10}}),
     "unknown field 'resolution.circle_ratio'"),
    (json.dumps({**_VALID, "resolution": {"margin": 0.1}}), "unknown field 'resolution.margin'"),
    (json.dumps({**_VALID, "circle_radii": [3.0]}), "unknown field 'circle_radii'"),
])
def test_config_error_names_field(tmp_path, capsys, text, message):
    path = tmp_path / "weight.json"
    if text is not None:
        path.write_text(text)
    assert main(["coeffs", str(path), "--n1", "0"]) == 1
    assert message in capsys.readouterr().err


@pytest.fixture
def two_band(tmp_path):
    # at the default ppi, which resolves every command below without a warning
    path = tmp_path / "two_band.json"
    path.write_text(json.dumps({"intervals": [[-1.8, -1.0], [2.0, 3.0]], "kinds": ["T", "U"]}))
    return str(path)


def test_recip_succeeds(two_band, tmp_path):
    out = tmp_path / "recip.csv"
    assert main(["recip", two_band, "--nmax", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,max_error,reference_rate"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    spec, ppi = cli.load_config(two_band)
    approx = recip_approx(spec, 3, context=SolveContext(spec, ppi))
    assert [float(line.split(",")[1]) for line in lines[1:]] == approx.max_errors.tolist()


@pytest.mark.parametrize("argv,message", [
    (["oracle", "--n0", "3", "--n1", "1"], "need 0 <= n0 <= n1"),
    (["toda", "--steps", "0"], "need steps >= 1"),
    (["recip", "--nmax", "0"], "need at least one term"),
    (["coeffs", "--n0", "3", "--n1", "1"], "need 0 <= n0 <= n1"),
    (["coeffs", "--n0", "-1"], "need 0 <= n0 <= n1"),
])
def test_empty_range_exits_1(two_band, capsys, count_calls, argv, message):
    # rejected before any geometry is built
    builds = count_calls(build_green)
    assert main([argv[0], two_band, *argv[1:]]) == 1
    assert message in capsys.readouterr().err
    assert builds == []


def test_exponent_pairs_and_per_band_h_match_letters(tmp_path, capsys):
    # kinds as [alpha, beta] and h once per band: the same weight, the same CSV
    h = {"type": "poly", "coeffs": [2.0, 0.5]}
    csv = []
    for kinds, h_doc in ((["T", "U"], h), ([[-1, -1], [1, 1]], [h, h])):
        path = tmp_path / "weight.json"
        path.write_text(json.dumps({"intervals": [[-1.8, -1.0], [2.0, 3.0]], "kinds": kinds,
                                    "h": h_doc}))
        assert main(["coeffs", str(path), "--n1", "3"]) == 0
        csv.append(capsys.readouterr().out)
    assert csv[0] == csv[1] and len(csv[0].splitlines()) == 5


def test_exponent_pair_outside_the_kinds_names_field(tmp_path, capsys):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"intervals": [[-1.0, 1.0]], "kinds": [[1, 0]]}))
    assert main(["coeffs", str(path), "--n1", "0"]) == 1
    assert "field 'kinds[0]' is invalid" in capsys.readouterr().err


def test_failed_index_row_exits_2(two_band, capsys, monkeypatch):
    # index 1's band jump is not finite, so its solve fails: the pairs 0 and
    # 1, which read it, are rows n,,,message
    original = JumpAssembly.band_jump

    def poisoned(self, j, x):
        out = original(self, j, x)
        for entry in out:
            entry[self.ns == 1] = np.nan
        return out

    monkeypatch.setattr(JumpAssembly, "band_jump", poisoned)
    assert main(["coeffs", two_band, "--n1", "2"]) == 2
    message = "band jump is not finite at its nodes and test nodes"
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [f"{n},,,{message}" for n in (0, 1)]
    assert lines[3].startswith("2,") and len(lines[3].split(",")) == 4


def test_recip_failed_index_exits_2(two_band, capsys, monkeypatch):
    # index 1's circle entry is not finite, so its solve fails, and so do the
    # pairs 0 and 1, which read it: no table, and the message on stderr
    original = JumpAssembly.circle_entry

    def poisoned(self, j, z):
        out = original(self, j, z)
        out[self.ns == 1] = np.nan
        return out

    monkeypatch.setattr(JumpAssembly, "circle_entry", poisoned)
    assert main(["recip", two_band, "--nmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "collocation solution is not finite"
    assert captured.err == (f"error: coefficient computation failed: "
                            f"[(0, '{message}'), (1, '{message}')]\n")
