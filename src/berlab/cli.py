"""Command line interface: verify / explore / case."""

import argparse
import contextlib
import sys

from . import harness, report as reporting, rkhs, theorems
from .errors import BerlabError, ConfigInvalid

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def _entries(text, what):
    """The non-empty entries of a comma list; an empty list is an error."""
    entries = [part.strip() for part in text.split(",") if part.strip()]
    if not entries:
        raise ConfigInvalid(f"empty {what} list")
    return entries


def _parse_dims(text):
    dims = []
    for part in _entries(text, "dims"):
        try:
            n1, n2 = part.lower().split("x")
            dims.append((int(n1), int(n2)))
        except ValueError as exc:
            raise ConfigInvalid(f"bad dims entry {part!r}, expected n1xn2") from exc
    return tuple(dims)


def _parse_families(text):
    return tuple(rkhs.KernelFamily(tag, {"sigma": 1.0} if tag == "gaussian" else {})
                 for tag in _entries(text, "kernel family"))


def _read_config_file(path):
    """Flat ``key = value`` campaign description."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config file {path} is not UTF-8 text") from exc
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"bad config line {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_ids(text):
    return tuple(_entries(text, "checker"))


# (config-file key, command-line flag, CampaignConfig field, parser)
_SETTINGS = (
    ("master_seed", "seed", "master_seed", int),
    ("trials_per_checker", "trials", "trials_per_checker", int),
    ("dims", "dims", "dims", _parse_dims),
    ("kernel", "kernel", "kernel_families", _parse_families),
    ("theorems", "theorems", "checker_filter", _parse_ids),
    ("check_tol", "tol", "check_tol", float),
    ("out", "out", "out", str),
    ("format", "format", "format", str),
)


def build_config(args):
    """Merge config file values and CLI flags (flags win)."""
    config = harness.CampaignConfig()
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, _, field, parse in _SETTINGS:
        if key in values:
            text = values.pop(key)
            try:
                setattr(config, field, parse(text))
            except ValueError as exc:
                raise ConfigInvalid(f"bad config value {key} = {text!r}") from exc
    if values:  # the first key no setting reads, in file order
        raise ConfigInvalid(f"unknown config key {next(iter(values))!r}")
    for _, flag, field, parse in _SETTINGS:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, field, parse(value))
    config.validate()
    return config


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value campaign file")
    parser.add_argument("--seed", type=int, help="campaign master seed")
    parser.add_argument("--trials", type=int, help="trials per checker")
    parser.add_argument("--dims", help="comma list of block dims, e.g. 2x2,3x2")
    parser.add_argument("--kernel", help="comma list of kernel families")
    parser.add_argument("--theorems", help="comma list of checker ids")
    parser.add_argument("--tol", type=float, help="gating slack tolerance")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")


def cmd_verify(args):
    config = build_config(args)
    # --out is opened first, so an unwritable path fails before the campaign
    with (open(config.out, "w", encoding="utf-8") if config.out
          else contextlib.nullcontext(sys.stdout)) as out:
        report = harness.run_campaign(config)
        for result in report.results:
            label = reporting.result_label(result)
            conv = result["convention"] or "-"
            least = result["min_slack"]
            if least is None:  # no evaluated trial: neither held nor failed
                status, least = "n/a", "n/a"
            else:
                status, least = "FAIL" if result["failures"] else "ok", f"{least:+.3e}"
            print(f"{label:12s} {conv:6s} {result['mode']:13s} "
                  f"trials={result['trials']:4d} failures={result['failures']:3d} "
                  f"min_slack={least} [{status}]")
        print(f"gating failures: {report.gating_failures} "
              f"(wall time {report.wall_time_ms} ms)")
        out.write(reporting.render(report, config.format))
    if config.out:
        print(f"report written to {config.out}")
    # a gating checker that evaluated no trial must not pass as green
    evaluated = {r["theorem_id"] for r in report.results if r["trials"] > 0}
    empty = [tid for tid in config.checkers() if tid not in evaluated and any(
        mode == theorems.GATING for _, mode in theorems.CHECKERS[tid].runs)]
    if empty:
        print(f"error: no evaluated trials for {', '.join(empty)}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_VIOLATION if report.gating_failures else EXIT_OK


def cmd_explore(args):
    config = build_config(args)
    cert = harness.explore(config, args.theorem, args.budget)
    sys.stdout.write(reporting.dumps_json(cert.to_dict()))
    violated = cert.mode == theorems.GATING and not cert.holds
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_case(args):
    # here --seed is the per-trial seed recorded in a report witness
    if args.seed is None or args.seed < 0:
        raise ConfigInvalid("case needs --seed (the per-trial seed, >= 0)")
    config = build_config(args)
    draw = harness.draw_trial(args.theorem, args.seed, config)
    certs = harness.evaluate_draw(draw, config)
    sys.stdout.write(reporting.dumps_json([c.to_dict() for c in certs]))
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="berlab",
        description="Berezin-number inequality verification campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    _add_common(p_verify)

    p_explore = sub.add_parser("explore", help="adversarial slack search")
    _add_common(p_explore)
    p_explore.add_argument("--theorem", required=True)
    p_explore.add_argument("--budget", type=int, required=True)

    p_case = sub.add_parser("case", help="reproduce one trial certificate")
    _add_common(p_case)
    p_case.add_argument("--theorem", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "explore":
            return cmd_explore(args)
        return cmd_case(args)
    except (BerlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
