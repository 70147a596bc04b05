import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from numsem import bijections, cli, tree, verify
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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "core-invariants", "--gmax", "-1"],
        ["enumerate", "--genus", "-1"],
        ["stats", "--genus", "-1"],
        ["zhai", "--kmax", "-1"],
    ],
)
def test_negative_genus_is_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be nonnegative" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--genus", "3", "--threads", "0"],
        ["stats", "--genus", "3", "--threads", "-1"],
    ],
)
def test_threads_below_one_is_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --threads: must be positive" in captured.err


def test_verify_suite_ok(capsys):
    assert run(["verify", "--suite", "t2-equality", "--gmax", "10"]) == 0
    out = capsys.readouterr().out
    assert "t2-equality" in out and "ok" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "membership", "--gmax", "5"],
        ["verify", "--suite", "t2-equality", "--genus", "30"],
    ],
)
def test_verify_rejects_the_other_suites_option(capsys, monkeypatch, argv):
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(cli, "run_suite", no_walk)
    monkeypatch.setattr(cli, "_aggregates", no_walk)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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


def test_count_multiplicity_deficit_below_minus_one_is_usage_error(capsys):
    assert run(["count", "multiplicity", "--genus", "5", "--deficit", "-9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # No semigroup has e = g + 9: the embedding count stays a plain 0.
    assert run(["count", "embedding", "--genus", "5", "--deficit", "-9"]) == 0
    assert capsys.readouterr().out == "0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--genus", "5", "--predicate", "e_band", "--eps", "abc"],
        ["figures", "--figure", "1", "--gmax", "3", "--eps", "x"],
        ["figures", "--figure", "1", "--gmax", "3", "--eps", "0.2,,0.1"],
    ],
)
def test_malformed_eps_is_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --eps" in captured.err


def test_count_warns_below_threshold(capsys):
    assert run(["count", "multiplicity", "--genus", "5", "--deficit", "1"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err


def test_zhai_subcommand(capsys):
    assert run(["zhai", "--kmax", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "K=0 partial_sum=0.72360679775"
    assert len(lines) == 3


def test_zhai_walks_each_type_set_family_once(capsys, monkeypatch):
    calls = []
    generate = bijections.generate_Ak

    def spy(k):
        calls.append(k)
        return generate(k)

    monkeypatch.setattr(bijections, "generate_Ak", spy)
    assert run(["zhai", "--kmax", "8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    assert calls == list(range(1, 9))


def test_zhai_over_the_guard_prints_nothing(capsys):
    assert run(["zhai", "--kmax", "23"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: K=23 exceeds the guard 22\n"


def test_band_predicate_without_eps_says_so(capsys):
    assert run(["prob", "--genus", "5", "--predicate", "e_band"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: e_band needs --eps\n"
    assert run(["prob", "--genus", "5", "--predicate", "nonsense"]) == 2
    assert capsys.readouterr().err == "error: nonsense\n"


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


def test_figures_with_a_mixed_cache(tmp_path, capsys, monkeypatch):
    def figures(out, *extra):
        argv = ["figures", "--figure", "4", "--gmax", "8", "--out", str(out), *extra]
        assert run(argv) == 0
        return out.read_bytes()

    cold = figures(tmp_path / "cold.csv")
    cache = str(tmp_path / "cache")
    for g in (2, 5, 7, 8):
        cache_put(cache, enumerate_genus(g), 0.0)
    corrupt = os.path.join(cache, "genus-5.json")
    with open(corrupt, "a") as fh:
        fh.write("}")
    walks = []
    series = tree.series_accumulators

    def spy(genera, threads=1):
        walks.append(sorted(genera))
        return series(genera, threads)

    monkeypatch.setattr(tree, "series_accumulators", spy)
    finished = []
    per_genus = cli.enumerate_genus

    def each(genus, series):
        finished.append(genus)
        return per_genus(genus, series)

    monkeypatch.setattr(cli, "enumerate_genus", each)
    capsys.readouterr()
    assert figures(tmp_path / "mixed.csv", "--cache-dir", cache) == cold
    assert capsys.readouterr().err == (
        f"warning: unreadable cache file quarantined: {corrupt}; recomputing\n"
    )
    assert os.path.exists(corrupt + ".corrupt")
    assert walks == [[1, 3, 4, 5, 6]]  # one walk, for the missing genera only
    assert finished == [1, 3, 4, 5, 6]  # one call per computed genus
    for g in range(1, 9):
        assert cache_get(cache, g) == enumerate_genus(g), g

    def no_walk(*args, **kwargs):
        raise AssertionError("a warm run must not walk")

    monkeypatch.setattr(tree, "series_accumulators", no_walk)
    monkeypatch.setattr(tree, "enumerate_genus", no_walk)
    assert figures(tmp_path / "warm.csv", "--cache-dir", cache) == cold
    assert finished == [1, 3, 4, 5, 6]  # nothing computed


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--genus", "7"],
        ["prob", "--genus", "7", "--member", "3"],
        ["enumerate", "--genus", "7"],
        ["verify", "--suite", "membership", "--genus", "7"],
    ],
)
def test_every_aggregate_takes_the_cached_series_path(tmp_path, capsys, monkeypatch, argv):
    walks, finished = [], []
    series, per_genus = tree.series_accumulators, cli.enumerate_genus

    def spy(genera, threads=1):
        walks.append(sorted(genera))
        return series(genera, threads)

    def each(genus, series):
        finished.append(genus)
        return per_genus(genus, series)

    monkeypatch.setattr(tree, "series_accumulators", spy)
    monkeypatch.setattr(cli, "enumerate_genus", each)
    argv = [*argv, "--cache-dir", str(tmp_path)]
    code = run(argv)
    cold = capsys.readouterr().out
    assert (walks, finished) == ([[7]], [7])
    assert run(argv) == code
    assert capsys.readouterr().out == cold
    assert (walks, finished) == ([[7]], [7])  # the warm run neither walks nor finalizes


def test_figures_opens_one_pool(tmp_path, monkeypatch):
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(tree, "ProcessPoolExecutor", CountingPool)
    out = tmp_path / "fig4.csv"
    argv = ["figures", "--figure", "4", "--gmax", "16", "--threads", "2", "--out", str(out)]
    assert run(argv) == 0
    assert pools == [{"max_workers": 2}]


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


def test_cache_file_bytes_pinned(tmp_path):
    # The genus-6 cache file, byte for byte: the writer's encoder must not
    # change a byte of what earlier versions wrote.
    with open(cache_put(str(tmp_path), enumerate_genus(6), 0.0), "rb") as fh:
        data = fh.read()
    assert len(data) == 1922
    assert hashlib.sha256(data).hexdigest() == (
        "5a4ac220cfe4ab2c54873839505ee91cc06d5eb7a612338d2ac2467524de62d5"
    )


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


@pytest.mark.parametrize("content", [b"[]", b"null", b'"x"', b"1", b"\xff{"])
def test_cache_file_not_a_json_object_quarantined(tmp_path, capsys, content):
    # JSON that is not an object, or bytes that are not UTF-8, are unreadable
    # like any file that does not parse: quarantined, then recomputed.
    assert run(["stats", "--genus", "4"]) == 0
    expected = capsys.readouterr().out
    path = os.path.join(str(tmp_path), "genus-4.json")
    with open(path, "wb") as fh:
        fh.write(content)
    with pytest.raises(CorruptCache, match="unreadable cache file quarantined"):
        cache_get(str(tmp_path), 4)
    assert not os.path.exists(path)
    assert os.path.exists(path + ".corrupt")
    with open(path, "wb") as fh:
        fh.write(content)
    assert run(["stats", "--genus", "4", "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert "warning: unreadable cache file quarantined" in captured.err


def test_cache_used_by_stats(tmp_path, capsys):
    assert run(["stats", "--genus", "6", "--cache-dir", str(tmp_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == "23"
    assert float(data["E[e]"]) == pytest.approx(91 / 23)
    # second run hits the cache and produces identical output
    assert run(["stats", "--genus", "6", "--cache-dir", str(tmp_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == data


# Loaded only by the commands that run them: the verify suites, the closed
# forms and their oracles, the process pool, and the cache checksum.
LAZY = ("concurrent.futures", "numsem.verify", "numsem.kunz", "numsem.kunzcount",
        "numsem.bijections", "numsem.polybounds", "hashlib")

_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import numsem, numsem.cli
loaded = {"import": sorted(set(sys.modules) - before)}
numsem.cli.run(["stats", "--genus", "8"])
loaded["stats"] = sorted(set(sys.modules) - before)
print(json.dumps(loaded))
"""


def test_import_loads_only_what_a_command_runs():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True,
        check=True,
    )
    loaded = json.loads(res.stdout.splitlines()[-1])
    assert not set(LAZY) & set(loaded["import"])
    assert not set(LAZY[:-1]) & set(loaded["stats"])  # stats writes no cache here


# The records are named tuples: importing numsem, its CLI and the verify suites
# loads neither dataclasses nor the inspect module it imports.
_RECORD_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import numsem, numsem.cli, numsem.verify
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", _RECORD_IMPORT_PROBE], env=env, capture_output=True, text=True,
        check=True,
    )
    loaded = set(json.loads(res.stdout.splitlines()[-1]))
    assert "numsem.verify" in loaded
    assert not {"dataclasses", "inspect"} & loaded


# The top-level help, the verify help and a verify usage error, byte for byte
# as printed when cli still took the --suite choices from verify.SUITES.
HELP = """\
usage: numsem [-h] {enumerate,stats,figures,verify,count,zhai,prob} ...

positional arguments:
  {enumerate,stats,figures,verify,count,zhai,prob}
    enumerate           count semigroups of one genus
    stats               exact summary statistics for one genus
    figures             emit CSV data for one figure family
    verify              run a verification suite
    count               closed-form deficit counts
    zhai                partial sums of the growth-constant series
    prob                exact probabilities from one aggregate

options:
  -h, --help            show this help message and exit
"""

# From Python 3.13 on, argparse wraps the verify usage line before --suite,
# not between --suite and its choices; the parser is the same.
if sys.version_info < (3, 13):
    VERIFY_USAGE = """\
usage: numsem verify [-h] [--threads THREADS] [--cache-dir CACHE_DIR] --suite
                     {bijections,core-invariants,counting-e,counting-m,e2-bounds,kunz-roundtrip,t2-bounds,t2-equality,membership}
                     [--gmax GMAX] [--genus GENUS]
"""
else:
    VERIFY_USAGE = """\
usage: numsem verify [-h] [--threads THREADS] [--cache-dir CACHE_DIR]
                     --suite {bijections,core-invariants,counting-e,counting-m,e2-bounds,kunz-roundtrip,t2-bounds,t2-equality,membership}
                     [--gmax GMAX] [--genus GENUS]
"""

VERIFY_HELP = VERIFY_USAGE + """\

options:
  -h, --help            show this help message and exit
  --threads THREADS
  --cache-dir CACHE_DIR
  --suite {bijections,core-invariants,counting-e,counting-m,e2-bounds,kunz-roundtrip,t2-bounds,t2-equality,membership}
  --gmax GMAX
  --genus GENUS         membership suite genus
"""

VERIFY_NOSUCH = VERIFY_USAGE + (
    "numsem verify: error: argument --suite: invalid choice: 'nosuch' (choose from "
    "'bijections', 'core-invariants', 'counting-e', 'counting-m', 'e2-bounds', "
    "'kunz-roundtrip', 't2-bounds', 't2-equality', 'membership')\n"
)


def test_suite_choices_are_verify_suites():
    assert list(cli.SUITE_NAMES) == sorted(verify.SUITES)
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (suite,) = [a for a in action.choices["verify"]._actions if a.dest == "suite"]
    assert list(suite.choices) == sorted(verify.SUITES) + ["membership"]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--help"], 0, HELP, ""),
        (["verify", "--help"], 0, VERIFY_HELP, ""),
        (["verify", "--suite", "nosuch"], 2, "", VERIFY_NOSUCH),
    ],
)
def test_help_and_usage_errors_unchanged(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


# The commands whose lines are pinned below: every per-genus statistics line
# to genus 14, the JSON layout, each figure family, one probability of each
# kind and the count path.
PINNED_COMMANDS = (
    [["stats", "--genus", str(g)] for g in range(15)]
    + [["stats", "--genus", "12", "--json"]]
    + [["figures", "--figure", str(f), "--gmax", "12"] for f in range(1, 6)]
    + [
        ["prob", "--genus", "12", "--member", "7"],
        ["prob", "--genus", "12", "--pair", "7", "14"],
        ["prob", "--genus", "12", "--predicate", "e_band", "--eps", "0.2"],
        ["enumerate", "--genus", "14"],
    ]
)
# sha256 of each command's argv, exit code, stdout and stderr, in that order,
# as ``repr`` lines joined by newlines.
PINNED_COMMANDS_SHA256 = "3fb65c3d23c01ffc95a33b21d1c5448eab4a085c02fa54bd4a10d67be62ee860"


def test_cli_lines_pinned(capsys):
    lines = []
    for argv in PINNED_COMMANDS:
        code = run(argv)
        lines.append(repr((argv, code, *capsys.readouterr())))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_COMMANDS_SHA256, text
