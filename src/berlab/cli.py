"""Command line interface: verify / explore / case."""

import argparse
import os
import sys

from . import harness, report as reporting, rkhs, theorems
from .errors import BerlabError, ConfigInvalid

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C


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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:  # a silent last-one-wins would hide a typo
            raise ConfigInvalid(f"config key {key!r} is set twice")
        values[key] = value
    return values


def _parse_ids(text):
    return tuple(_entries(text, "checker"))


# (config-file key, command-line flag, CampaignConfig field, parser); the
# last three set the report, which only verify writes
_SETTINGS = (
    ("master_seed", "seed", "master_seed", int),
    ("trials_per_checker", "trials", "trials_per_checker", int),
    ("dims", "dims", "dims", _parse_dims),
    ("kernel", "kernel", "kernel_families", _parse_families),
    ("theorems", "theorems", "checker_filter", _parse_ids),
    ("out", "out", "out", str),
    ("format", "format", "format", str),
)


def build_config(args):
    """Merge config file values and CLI flags (flags win).

    A command reads the config keys of its own flags only, so a report
    setting given to explore or case is an error, not silently dropped.
    """
    config = harness.CampaignConfig()
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    settings = [s for s in _SETTINGS if hasattr(args, s[1])]
    for key, _, field, parse in settings:
        if key in values:
            text = values.pop(key)
            try:
                setattr(config, field, parse(text))
            except ValueError as exc:
                raise ConfigInvalid(f"bad config value {key} = {text!r}") from exc
    if values:  # the first key no setting reads, in file order
        key = next(iter(values))
        if any(key == s[0] for s in _SETTINGS):
            raise ConfigInvalid(f"{args.command} does not read config key {key!r}")
        raise ConfigInvalid(f"unknown config key {key!r}")
    for _, flag, field, parse in settings:
        value = getattr(args, flag)
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


def _add_report(parser):
    parser.add_argument("--theorems", help="comma list of checker ids")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")


def cmd_verify(args):
    config = build_config(args)
    if config.out:  # an unwritable --out fails before any trial, and leaves no file
        existed = os.path.lexists(config.out)
        open(config.out, "a", encoding="utf-8").close()  # "a" truncates nothing
        if not existed:
            os.remove(config.out)
    report = harness.run_campaign(config)
    # a report on stdout keeps stdout for itself: the summary goes to stderr
    summary = sys.stdout if config.out else sys.stderr
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
              f"min_slack={least} [{status}]", file=summary)
    print(f"gating failures: {report.gating_failures} "
          f"(wall time {report.wall_time_ms} ms)", file=summary)
    text = reporting.render(report, config.format)
    if config.out:  # one os.replace: a failed or interrupted run keeps the old report
        tmp = f"{config.out}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, config.out)
        finally:  # an interrupt at the rename leaves no <out>.tmp
            if os.path.lexists(tmp):
                os.remove(tmp)
        print(f"report written to {config.out}")
    else:
        sys.stdout.write(text)
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
    # here --seed is the per-trial seed recorded in a report witness;
    # draw_trial rejects one outside [0, 2**64)
    if args.seed is None:
        raise ConfigInvalid("case needs --seed (the per-trial seed)")
    config = build_config(args)
    [draw] = harness.draw_trial((args.theorem,), (args.seed,), config)
    certs = harness.evaluate_draw(draw)  # a failed draw raises its error here
    sys.stdout.write(reporting.dumps_json([c.to_dict() for c in certs]))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``error:`` line and exit code 2."""

    def error(self, message):
        raise ConfigInvalid(message)


def main(argv=None):
    parser = _Parser(
        prog="berlab",
        description="Berezin-number inequality verification campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    _add_common(p_verify)
    _add_report(p_verify)

    p_explore = sub.add_parser("explore", help="adversarial slack search")
    _add_common(p_explore)
    p_explore.add_argument("--theorem", required=True)
    p_explore.add_argument("--budget", type=int, required=True)

    p_case = sub.add_parser("case", help="reproduce one trial certificate")
    _add_common(p_case)
    p_case.add_argument("--theorem", required=True)

    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "explore":
            return cmd_explore(args)
        return cmd_case(args)
    except (BerlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
