import json

import pytest

from rhjacobi.cli import main


def _config(tmp_path, intervals, kinds):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"intervals": intervals, "kinds": kinds,
                                "resolution": {"ppi": 8, "circle_ratio": 10}}))
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
