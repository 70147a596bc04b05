"""Command-line surface: enumeration, statistics, figure CSVs, verification
suites, closed-form counts, and the growth-constant series.

Exit codes: 0 success, 1 verification failure, 2 usage error.
Aggregates are cached one JSON file per genus with every number rendered as a
decimal string and a sha256 checksum over the canonical serialization; writes
are atomic (a unique temp file, fsync, rename) and corrupt files, or files
holding another genus, are quarantined and recomputed.
"""

import argparse
import json
import os
import sys
import time
import warnings
from fractions import Fraction
from functools import partial

from . import __version__, stats, tree
from .errors import CorruptCache, MissingEpsilon, NumsemError
from .stats import GenusAggregate
from .tree import count_genus

CACHE_VERSION = 1

# sorted(verify.SUITES), so that the parser is built without importing verify.
SUITE_NAMES = ("bijections", "core-invariants", "counting-e", "counting-m",
               "e2-bounds", "kunz-roundtrip", "t2-bounds", "t2-equality")


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
    import hashlib
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest()


def _cache_path(cache_dir, genus):
    return os.path.join(cache_dir, f"genus-{genus}.json")


def cache_put(cache_dir, agg, wall_time=0.0):
    """Write ``agg`` to its genus's cache file, recording ``wall_time``: every
    command records the seconds of the series walk that computed it, shared
    by all the genera that walk computed."""
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
            fh.write(json.dumps(payload, sort_keys=True))  # dumps runs the C encoder
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)
    return path


def cache_get(cache_dir, genus):
    """Cached aggregate, or None on miss / version skew.

    A file that does not parse as a JSON object, fails its checksum or holds
    another genus is quarantined (renamed with a .corrupt suffix) and
    CorruptCache is raised; callers recompute.
    """
    path = _cache_path(cache_dir, genus)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError):  # ValueError: JSONDecodeError, UnicodeDecodeError
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


def _cached(genus, cache_dir):
    """The cached aggregate of ``genus``, or None on a miss, without a cache
    directory, or when the file was corrupt (quarantined, with a warning)."""
    if not cache_dir:
        return None
    try:
        return cache_get(cache_dir, genus)
    except CorruptCache as exc:
        print(f"warning: {exc}; recomputing", file=sys.stderr)
        return None


def enumerate_genus(genus, series):
    """The aggregate of ``genus``, finalized from ``series``, the Accumulators
    of a ``tree.series_accumulators`` walk that included it.

    This is the finalize point of every aggregate the CLI computes: each
    genus passes through one call of it, so a caller can see each genus
    finished (the benchmark's ``figures`` workload ends a timed step after
    each call).
    """
    return series[genus].finalize()


def _aggregates(genera, threads, cache_dir):
    """{g: aggregate of genus g} for each g in ``genera``: every cached genus
    is read, and the missing ones come from one ``tree.series_accumulators``
    walk, finalized through ``enumerate_genus`` and cached with that walk's
    time."""
    aggs = {g: _cached(g, cache_dir) for g in genera}
    missing = [g for g in genera if aggs[g] is None]
    if missing:
        t0 = time.time()
        series = tree.series_accumulators(missing, threads=threads)
        elapsed = time.time() - t0
        for g in missing:
            aggs[g] = enumerate_genus(g, series)
            if cache_dir:
                cache_put(cache_dir, aggs[g], elapsed)
    return aggs


# ---------------------------------------------------------------- subcommands

def _cmd_enumerate(args):
    if args.cache_dir:
        n = _aggregates([args.genus], args.threads, args.cache_dir)[args.genus].count
    else:
        n = count_genus(args.genus, threads=args.threads)
    print(f"g={args.genus} N={n}")
    return 0


def _cmd_stats(args):
    agg = _aggregates([args.genus], args.threads, args.cache_dir)[args.genus]
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
    genera = range(1, args.gmax + 1)
    aggs = _aggregates(genera, args.threads, args.cache_dir)
    rows = stats.figure_data(args.figure, aggs, genera, args.eps)
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


def run_suite(name, gmax=None):
    """``verify.run_suite``, imported only when a suite runs."""
    from .verify import run_suite
    return run_suite(name, gmax)


def _cmd_verify(args):
    membership = args.suite == "membership"
    if (args.gmax if membership else args.genus) is not None:
        given, takes = ("--gmax", "--genus") if membership else ("--genus", "--gmax")
        print(f"error: the {args.suite} suite takes {takes}, not {given}", file=sys.stderr)
        return 2
    if membership:
        from .verify import verify_membership
        genus = args.genus if args.genus is not None else 30
        agg = _aggregates([genus], args.threads, args.cache_dir)[genus]
        result = verify_membership(agg)
    else:
        result = run_suite(args.suite, args.gmax)
    print(result)
    return 0 if result.ok else 1


def _cmd_count(args):
    if args.mode == "multiplicity" and args.deficit < -1:
        print(f"error: a multiplicity deficit must be at least -1, not {args.deficit}",
              file=sys.stderr)
        return 2
    from .kunzcount import count_embedding_deficit, count_multiplicity_deficit
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
    # Every sum is computed before the first line is printed, so a K over
    # the guard prints nothing.
    from .bijections import zhai_partial_sums
    for K, total in enumerate(zhai_partial_sums(args.kmax)):
        print(f"K={K} partial_sum={total:.12g}")
    return 0


def _cmd_prob(args):
    if args.eps is None and args.predicate in stats.BAND_PREDICATES:
        raise MissingEpsilon(f"{args.predicate} needs --eps")
    agg = _aggregates([args.genus], args.threads, args.cache_dir)[args.genus]
    if args.member is not None:
        p = stats.membership_probability(agg, args.member)
    elif args.pair is not None:
        p = stats.pair_miss_probability(agg, *args.pair)
    elif args.predicate is not None:
        pred = args.predicate
        if args.eps is not None:
            p = stats.proportion(agg, (pred, args.eps))
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


def _int_arg(text, least=0):
    """argparse type of an int >= ``least``: of every --genus, --gmax and
    --kmax (nonnegative), and of every --threads (positive, least=1)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < least:
        word = "positive" if least else "nonnegative"
        raise argparse.ArgumentTypeError(f"must be {word}, not {n}")
    return n


def _floats(text):
    """argparse type of the figures --eps: a comma-separated float list (an
    empty value keeps the figure's default epsilons)."""
    try:
        return [float(x) for x in text.split(",")] if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list: {text!r}") from None


def _add_common(p, genus=False):
    p.add_argument("--threads", type=partial(_int_arg, least=1), default=1)
    p.add_argument("--cache-dir", default=None)
    if genus:
        p.add_argument("--genus", type=_int_arg, required=True)


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
    p.add_argument("--gmax", type=_int_arg, required=True)
    p.add_argument("--eps", type=_floats, default=None, help="comma-separated epsilon list")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("membership",))
    p.add_argument("--gmax", type=_int_arg, default=None)
    p.add_argument("--genus", type=_int_arg, default=None, help="membership suite genus")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("count", help="closed-form deficit counts")
    p.add_argument("mode", choices=("multiplicity", "embedding"))
    p.add_argument("--genus", type=_int_arg, required=True)
    p.add_argument("--deficit", type=int, required=True)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("zhai", help="partial sums of the growth-constant series")
    p.add_argument("--kmax", type=_int_arg, default=20)
    p.set_defaults(fn=_cmd_zhai)

    p = sub.add_parser("prob", help="exact probabilities from one aggregate")
    _add_common(p, genus=True)
    p.add_argument("--member", type=int, default=None)
    p.add_argument("--pair", type=int, nargs=2, default=None)
    p.add_argument("--predicate", default=None)
    p.add_argument("--eps", type=float, default=None)
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
