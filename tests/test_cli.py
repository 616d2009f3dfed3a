"""Tests for the python -m repro command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.synth import roseburg_like_heights


@pytest.fixture
def heights_file(tmp_path):
    path = tmp_path / "terrain.npy"
    np.save(path, roseburg_like_heights(cells_per_side=32))
    return path


@pytest.fixture
def tin_file(tmp_path):
    rng = np.random.default_rng(1)
    points = rng.uniform(0, 50, size=(60, 2))
    values = points[:, 0] + points[:, 1]
    path = tmp_path / "field.npz"
    np.savez(path, points=points, values=values)
    return path


def test_build_query_info_roundtrip(heights_file, tmp_path, capsys):
    index_dir = tmp_path / "idx"
    assert main(["build", str(heights_file), str(index_dir)]) == 0
    out = capsys.readouterr().out
    assert "indexed 1024 cells" in out

    assert main(["query", str(index_dir), "250", "300"]) == 0
    out = capsys.readouterr().out
    assert "candidates:" in out and "answer area:" in out

    assert main(["info", str(index_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"] == 1024
    assert payload["field_type"] == "DEMField"
    assert payload["subfields"] >= 1


def test_query_with_regions(heights_file, tmp_path, capsys):
    index_dir = tmp_path / "idx"
    main(["build", str(heights_file), str(index_dir)])
    capsys.readouterr()
    assert main(["query", str(index_dir), "300", "301",
                 "--regions", "--max-regions", "3"]) == 0
    out = capsys.readouterr().out
    assert "regions:" in out
    assert "cell " in out


def test_build_tin(tin_file, tmp_path, capsys):
    index_dir = tmp_path / "tin-idx"
    assert main(["build", str(tin_file), str(index_dir)]) == 0
    capsys.readouterr()
    assert main(["query", str(index_dir), "40", "60"]) == 0
    assert "candidates:" in capsys.readouterr().out


def test_point_query(heights_file, capsys):
    assert main(["point", str(heights_file), "5.5", "7.25"]) == 0
    out = capsys.readouterr().out
    assert "F(5.5, 7.25) =" in out


def test_point_outside_domain(heights_file, capsys):
    assert main(["point", str(heights_file), "-10", "0"]) == 1
    assert "outside" in capsys.readouterr().out


def test_unsupported_field_file(tmp_path):
    bogus = tmp_path / "field.txt"
    bogus.write_text("nope")
    with pytest.raises(SystemExit, match=r"field\.txt: unsupported field "
                       r"file \(use \.npy heights or \.npz TIN\)$"):
        main(["build", str(bogus), str(tmp_path / "idx")])


def test_tin_archive_missing_arrays(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, points=np.zeros((3, 2)))
    with pytest.raises(SystemExit, match=r"bad\.npz: TIN archives need "
                       r"'points' and 'values' arrays"):
        main(["build", str(path), str(tmp_path / "idx")])


def test_curve_option(heights_file, tmp_path, capsys):
    index_dir = tmp_path / "z-idx"
    assert main(["build", str(heights_file), str(index_dir),
                 "--curve", "zorder"]) == 0
    assert "subfields" in capsys.readouterr().out


def test_batch_command(heights_file, tmp_path, capsys):
    index_dir = tmp_path / "idx"
    main(["build", str(heights_file), str(index_dir)])
    queries_file = tmp_path / "queries.txt"
    queries_file.write_text(
        "# mixed workload\n"
        "250 300\n"
        "280, 320\n"      # overlaps the first -> merged
        "400\n"           # exact query
        "\n"
        "150 180\n")
    capsys.readouterr()
    assert main(["batch", str(index_dir), str(queries_file),
                 "--compare"]) == 0
    out = capsys.readouterr().out
    assert "[3]" in out                       # one line per query
    assert "4 queries in 3 merged groups" in out
    assert "sequential (cold):" in out
    assert "batch saves" in out


def test_batch_command_quiet(heights_file, tmp_path, capsys):
    index_dir = tmp_path / "idx"
    main(["build", str(heights_file), str(index_dir)])
    queries_file = tmp_path / "queries.txt"
    queries_file.write_text("250 300\n")
    capsys.readouterr()
    assert main(["batch", str(index_dir), str(queries_file),
                 "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "[0]" not in out
    assert "1 queries in 1 merged groups" in out


def test_batch_command_bad_queries(heights_file, tmp_path):
    index_dir = tmp_path / "idx"
    main(["build", str(heights_file), str(index_dir)])
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    with pytest.raises(SystemExit):
        main(["batch", str(index_dir), str(bad)])
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(SystemExit):
        main(["batch", str(index_dir), str(empty)])
    with pytest.raises(SystemExit):
        main(["batch", str(index_dir), str(tmp_path / "missing.txt")])


def test_aggregate_command(heights_file, tmp_path, capsys):
    index_dir = tmp_path / "idx"
    main(["build", str(heights_file), str(index_dir)])
    capsys.readouterr()
    answers = {}
    for mode in ("hybrid", "exact"):
        assert main(["aggregate", str(index_dir), "area", "240", "300",
                     "--tolerance", "0.01", "--mode", mode,
                     "--json"]) == 0
        answers[mode] = json.loads(capsys.readouterr().out)
    hybrid, exact = answers["hybrid"], answers["exact"]
    assert hybrid["kind"] == "area" and exact["bound"] == 0.0
    assert 0.0 <= hybrid["bound"] <= 0.01
    assert abs(hybrid["value"] - exact["value"]) <= hybrid["bound"] + 1e-9
    assert main(["aggregate", str(index_dir), "count", "240", "300"]) == 0
    assert capsys.readouterr().out.startswith("count[240, 300] = ")


@pytest.mark.parametrize("argv", [
    ["query", "300", "240"],
    ["aggregate", "area", "300", "240"],
    ["aggregate", "area", "240", "300", "--tolerance", "-1"],
    ["aggregate", "area", "240", "300", "--tolerance", "nan"],
])
def test_bad_request_is_a_one_line_error(heights_file, tmp_path, argv):
    """An invalid interval or tolerance exits with ``error: ...``, not
    a traceback."""
    index_dir = tmp_path / "idx"
    main(["build", str(heights_file), str(index_dir)])
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(index_dir), *argv[1:]])
    assert str(exc.value.code).startswith("error: ")
