import json
import os

import pytest

from numsem.cli import cache_get, cache_put, run
from numsem.errors import CorruptCache
from numsem.tree import enumerate_genus


def test_enumerate_prints_count(capsys):
    assert run(["enumerate", "--genus", "4"]) == 0
    assert capsys.readouterr().out.strip() == "g=4 N=7"


def test_usage_error_exit_2(capsys):
    assert run(["--bogus"]) == 2
    assert run([]) == 2
    assert run(["verify", "--suite", "no-such-suite"]) == 2
    capsys.readouterr()


def test_verify_suite_ok(capsys):
    assert run(["verify", "--suite", "t2-equality", "--gmax", "10"]) == 0
    out = capsys.readouterr().out
    assert "t2-equality" in out and "ok" in out


def test_verify_membership_fails_at_small_genus(capsys):
    # the membership profile is a genus-30 criterion; at g=8 it must fail
    # and the failing n must be reported
    assert run(["verify", "--suite", "membership", "--genus", "8"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_count_subcommand(capsys):
    assert run(["count", "multiplicity", "--genus", "10", "--deficit", "1"]) == 0
    assert capsys.readouterr().out.strip() == "29"
    assert run(["count", "embedding", "--genus", "13", "--deficit", "2"]) == 0
    assert capsys.readouterr().out.strip() == "14"


def test_count_warns_below_threshold(capsys):
    assert run(["count", "multiplicity", "--genus", "5", "--deficit", "1"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err


def test_zhai_subcommand(capsys):
    assert run(["zhai", "--kmax", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "K=0 partial_sum=0.72360679775"
    assert len(lines) == 3


def test_prob_subcommand(capsys):
    assert run(["prob", "--genus", "4", "--member", "3"]) == 0
    assert "2/7" in capsys.readouterr().out
    assert run(["prob", "--genus", "4", "--predicate", "e_ge_m_half"]) == 0
    capsys.readouterr()
    assert run(["prob", "--genus", "4"]) == 2


def test_figures_csv_schema(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert run(["figures", "--figure", "1", "--gmax", "5", "--eps", "0.2,0.1",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "g,epsilon,proportion"
    assert len(lines) == 1 + 5 * 2
    out4 = tmp_path / "fig4.csv"
    assert run(["figures", "--figure", "4", "--gmax", "4", "--out", str(out4)]) == 0
    lines = out4.read_text().strip().splitlines()
    assert lines[0] == "g,mean_total,mean_part1,mean_part2"
    row = lines[-1].split(",")
    assert row[0] == "4"
    assert float(row[1]) == pytest.approx(22 / 28)
    assert float(row[1]) == pytest.approx(float(row[2]) + float(row[3]))


def test_figure3_comment_line(tmp_path):
    out = tmp_path / "fig3.csv"
    assert run(["figures", "--figure", "3", "--gmax", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "g,epsilon,proportion"


def test_cache_roundtrip(tmp_path):
    agg = enumerate_genus(6)
    path = cache_put(str(tmp_path), agg, 0.1)
    cache_put(str(tmp_path), agg, 0.1)  # a second write replaces the file
    assert os.listdir(tmp_path) == [os.path.basename(path)]  # no temp files left
    back = cache_get(str(tmp_path), 6)
    assert back == agg
    assert back.canonical_bytes() == agg.canonical_bytes()
    assert cache_get(str(tmp_path), 7) is None


def test_cache_numbers_are_strings(tmp_path):
    agg = enumerate_genus(5)
    path = cache_put(str(tmp_path), agg, 0.0)
    payload = json.loads(open(path).read())
    assert payload["count"] == "12"
    assert all(isinstance(x, str) for x in payload["membership"])
    assert "checksum" in payload and "version" in payload


def test_cache_version_skew(tmp_path):
    agg = enumerate_genus(5)
    path = cache_put(str(tmp_path), agg, 0.0)
    payload = json.loads(open(path).read())
    payload["version"] = "0"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert cache_get(str(tmp_path), 5) is None


def test_cache_corruption_quarantined(tmp_path):
    agg = enumerate_genus(5)
    path = cache_put(str(tmp_path), agg, 0.0)
    payload = json.loads(open(path).read())
    payload["count"] = "13"  # hand-edit a counter
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(CorruptCache):
        cache_get(str(tmp_path), 5)
    assert not os.path.exists(path)
    assert os.path.exists(path + ".corrupt")
    # the cli recovers by recomputing
    assert run(["enumerate", "--genus", "5", "--cache-dir", str(tmp_path)]) == 0
    assert cache_get(str(tmp_path), 5) == agg


def test_cache_genus_mismatch_quarantined(tmp_path):
    # a valid genus-6 file under the genus-5 name must not be served as genus 5
    six = cache_put(str(tmp_path), enumerate_genus(6), 0.0)
    path = os.path.join(str(tmp_path), "genus-5.json")
    with open(six) as src, open(path, "w") as dst:
        dst.write(src.read())
    with pytest.raises(CorruptCache):
        cache_get(str(tmp_path), 5)
    assert not os.path.exists(path)
    assert os.path.exists(path + ".corrupt")
    assert cache_get(str(tmp_path), 6) == enumerate_genus(6)


def test_cache_used_by_stats(tmp_path, capsys):
    assert run(["stats", "--genus", "6", "--cache-dir", str(tmp_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == "23"
    assert float(data["E[e]"]) == pytest.approx(91 / 23)
    # second run hits the cache and produces identical output
    assert run(["stats", "--genus", "6", "--cache-dir", str(tmp_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == data
