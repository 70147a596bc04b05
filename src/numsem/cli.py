"""Command-line surface: enumeration, statistics, figure CSVs, verification
suites, closed-form counts, and the growth-constant series.

Exit codes: 0 success, 1 verification failure, 2 usage error.
Aggregates are cached one JSON file per genus with every number rendered as a
decimal string and a sha256 checksum over the canonical serialization; writes
are atomic (a unique temp file, fsync, rename) and corrupt files, or files
holding another genus, are quarantined and recomputed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from fractions import Fraction

from . import __version__, stats
from .bijections import zhai_partial_sum
from .errors import CorruptCache, NumsemError
from .kunzcount import count_embedding_deficit, count_multiplicity_deficit
from .stats import GenusAggregate
from .tree import count_genus, enumerate_genus
from .verify import SUITES, run_suite, verify_membership

CACHE_VERSION = 1


def _fmt(x):
    """Decimal rendering with 12 significant digits (exact ints stay exact)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return str(x.numerator)
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


# ---------------------------------------------------------------- cache

def _to_strings(obj):
    if isinstance(obj, bool):
        raise TypeError("unexpected boolean in aggregate payload")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, list):
        return [_to_strings(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _to_strings(v) for k, v in obj.items()}
    return obj


def _from_strings(obj):
    if isinstance(obj, str):
        try:
            return int(obj)
        except ValueError:
            return obj
    if isinstance(obj, list):
        return [_from_strings(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _from_strings(v) for k, v in obj.items()}
    return obj


def _checksum(payload):
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest()


def _cache_path(cache_dir, genus):
    return os.path.join(cache_dir, f"genus-{genus}.json")


def cache_put(cache_dir, agg, wall_time=0.0):
    os.makedirs(cache_dir, exist_ok=True)
    payload = _to_strings(agg.to_dict())
    payload["version"] = str(CACHE_VERSION)
    payload["tool_version"] = __version__
    payload["wall_time"] = f"{wall_time:.3f}"
    payload["checksum"] = _checksum(
        {k: v for k, v in payload.items() if k != "checksum"}
    )
    path = _cache_path(cache_dir, agg.genus)
    # A temp file of its own per writer, on disk before the rename, so that
    # concurrent writers and crashes leave either no file or a whole one.
    tmp = f"{path}.{os.getpid()}-{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)
    return path


def cache_get(cache_dir, genus):
    """Cached aggregate, or None on miss / version skew.

    A file that does not parse, fails its checksum or holds another genus is
    quarantined (renamed with a .corrupt suffix) and CorruptCache is raised;
    callers recompute.
    """
    path = _cache_path(cache_dir, genus)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        os.replace(path, path + ".corrupt")
        raise CorruptCache(f"unreadable cache file quarantined: {path}") from None
    if payload.get("version") != str(CACHE_VERSION):
        return None
    stored = payload.get("checksum")
    actual = _checksum({k: v for k, v in payload.items() if k != "checksum"})
    if stored != actual:
        os.replace(path, path + ".corrupt")
        raise CorruptCache(f"checksum mismatch, quarantined: {path}")
    if payload.get("genus") != str(genus):
        os.replace(path, path + ".corrupt")
        raise CorruptCache(f"holds genus {payload.get('genus')}, quarantined: {path}")
    body = {
        k: v
        for k, v in payload.items()
        if k not in ("version", "tool_version", "wall_time", "checksum")
    }
    return GenusAggregate.from_dict(_from_strings(body))


def _get_aggregate(genus, threads, cache_dir):
    if cache_dir:
        try:
            agg = cache_get(cache_dir, genus)
        except CorruptCache as exc:
            print(f"warning: {exc}; recomputing", file=sys.stderr)
            agg = None
        if agg is not None:
            return agg
    t0 = time.time()
    agg = enumerate_genus(genus, threads=threads)
    if cache_dir:
        cache_put(cache_dir, agg, time.time() - t0)
    return agg


# ---------------------------------------------------------------- subcommands

def _cmd_enumerate(args):
    if args.cache_dir:
        agg = _get_aggregate(args.genus, args.threads, args.cache_dir)
        n = agg.count
    else:
        n = count_genus(args.genus, threads=args.threads)
    print(f"g={args.genus} N={n}")
    return 0


def _cmd_stats(args):
    agg = _get_aggregate(args.genus, args.threads, args.cache_dir)
    rows = {"genus": agg.genus, "count": agg.count}
    for name in ("e", "e1", "e2", "t", "t1", "t2", "w", "alpha"):
        rows[f"E[{name}]"] = stats.expectation(agg, name)
    for name in ("w", "alpha"):
        rows[f"Var[{name}]"] = stats.variance(agg, name)
    for pred in ("e_ge_m_half", "e_ge_m_third", "symmetric", "f_lt_2m"):
        rows[f"P[{pred}]"] = stats.proportion(agg, pred)
    if args.json:
        print(json.dumps({k: _fmt(v) for k, v in rows.items()}, indent=2))
    else:
        for k, v in rows.items():
            print(f"{k} = {_fmt(v)}")
    return 0


def _cmd_figures(args):
    gmax = args.gmax
    aggs = {
        g: _get_aggregate(g, args.threads, args.cache_dir)
        for g in range(1, gmax + 1)
    }
    eps = [float(x) for x in args.eps.split(",")] if args.eps else None
    rows = stats.figure_data(args.figure, aggs, range(1, gmax + 1), eps)
    lines = []
    if args.figure in (1, 2, 3):
        if args.figure == 3:
            lines.append("# epsilon scales the band half-width by g^2")
        lines.append("g,epsilon,proportion")
        for g, e, p in rows:
            lines.append(f"{g},{_fmt(e)},{_fmt(p)}")
    else:
        lines.append("g,mean_total,mean_part1,mean_part2")
        for g, tot, p1, p2 in rows:
            lines.append(f"{g},{_fmt(tot)},{_fmt(p1)},{_fmt(p2)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args):
    if args.suite == "membership":
        genus = args.genus if args.genus is not None else 30
        agg = _get_aggregate(genus, args.threads, args.cache_dir)
        result = verify_membership(agg)
    else:
        result = run_suite(args.suite, args.gmax)
    print(result)
    return 0 if result.ok else 1


def _cmd_count(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.mode == "multiplicity":
            v = count_multiplicity_deficit(args.genus, args.deficit)
        else:
            v = count_embedding_deficit(args.genus, args.deficit)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    print(v)
    return 0


def _cmd_zhai(args):
    for K in range(args.kmax + 1):
        print(f"K={K} partial_sum={zhai_partial_sum(K):.12g}")
    return 0


def _cmd_prob(args):
    agg = _get_aggregate(args.genus, args.threads, args.cache_dir)
    if args.member is not None:
        p = stats.membership_probability(agg, args.member)
    elif args.pair is not None:
        p = stats.pair_miss_probability(agg, *args.pair)
    elif args.predicate is not None:
        pred = args.predicate
        if args.eps is not None:
            p = stats.proportion(agg, (pred, float(args.eps)))
        else:
            p = stats.proportion(agg, pred)
    else:
        print("error: one of --member/--pair/--predicate is required", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"probability": _fmt(p), "exact": str(p)}))
    else:
        print(f"{_fmt(p)} (= {p})")
    return 0


def _add_common(p, genus=False, gmax=False):
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    if genus:
        p.add_argument("--genus", type=int, required=True)
    if gmax:
        p.add_argument("--gmax", type=int, default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="numsem")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count semigroups of one genus")
    _add_common(p, genus=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("stats", help="exact summary statistics for one genus")
    _add_common(p, genus=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("figures", help="emit CSV data for one figure family")
    _add_common(p)
    p.add_argument("--figure", type=int, choices=(1, 2, 3, 4, 5), required=True)
    p.add_argument("--gmax", type=int, required=True)
    p.add_argument("--eps", default=None, help="comma-separated epsilon list")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument(
        "--suite", required=True, choices=sorted(SUITES) + ["membership"]
    )
    p.add_argument("--gmax", type=int, default=None)
    p.add_argument("--genus", type=int, default=None, help="membership suite genus")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("count", help="closed-form deficit counts")
    p.add_argument("mode", choices=("multiplicity", "embedding"))
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--deficit", type=int, required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("zhai", help="partial sums of the growth-constant series")
    p.add_argument("--kmax", type=int, default=20)
    p.set_defaults(fn=_cmd_zhai)

    p = sub.add_parser("prob", help="exact probabilities from one aggregate")
    _add_common(p, genus=True)
    p.add_argument("--member", type=int, default=None)
    p.add_argument("--pair", type=int, nargs=2, default=None)
    p.add_argument("--predicate", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_prob)

    return ap


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.fn(args)
    except NumsemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
