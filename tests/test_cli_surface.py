"""The CLI surface, pinned: every verb's flags, defaults and groups.

The parser is walked recursively (verbs and sub-verbs) and, for each
action, the option strings, ``dest``, default, ``required``, ``choices``,
``nargs`` and mutually-exclusive group are compared against the literal
table below.  Help text is free to change; any other difference is a
change to the shell contract and must show up here as a table edit.
"""

from __future__ import annotations

import argparse

from repro import cli

#: Mutually-exclusive groups, named by their members' long options.
DOMAIN = ("--attributes", "--dimension")
SCALE = ("--full", "--quick")

#: Row layout: (option strings, dest, default, required, choices, nargs,
#: mutually-exclusive group).  Positionals and sub-verb selectors are
#: keyed by dest, options by their first long option string.
EXPECTED = {
    "": {
        "--log-json": (
            ("--log-json",), "log_json", False, False, None, 0, None
        ),
        "--log-level": (
            ("--log-level",),
            "log_level",
            "info",
            False,
            ("debug", "info", "warning", "error", "critical"),
            None,
            None,
        ),
        "command": (
            (),
            "command",
            None,
            True,
            (
                "aggregate", "encode", "hh", "list", "load", "run", "serve",
                "topo", "watch",
            ),
            "A...",
            None,
        ),
    },
    "aggregate": {
        "--attributes": (
            ("--attributes",), "attributes", None, False, None, None, DOMAIN
        ),
        "--checkpoint": (
            ("--checkpoint",), "checkpoint", None, False, None, None, None
        ),
        "--dimension": (
            ("-d", "--dimension"), "dimension", None, False, None, None, DOMAIN
        ),
        "--input": (("--input",), "input", "-", False, None, None, None),
        "--json": (("--json",), "json", None, False, None, None, None),
        "--output": (("--output",), "output", None, False, None, None, None),
        "--restore": (
            ("--restore",), "restore", None, False, None, None, None
        ),
        "--spec": (("--spec",), "spec", None, False, None, None, None),
    },
    "encode": {
        "--batch-size": (
            ("--batch-size",), "batch_size", None, False, None, None, None
        ),
        "--dataset": (
            ("--dataset",),
            "dataset",
            "taxi",
            False,
            ("taxi", "movielens", "skewed", "uniform"),
            None,
            None,
        ),
        "--dimension": (
            ("-d", "--dimension"), "dimension", 8, False, None, None, None
        ),
        "--epsilon": (("--epsilon",), "epsilon", None, True, None, None, None),
        "--option": (("--option",), "option", [], False, None, None, None),
        "--output": (("--output",), "output", "-", False, None, None, None),
        "--population": (
            ("-n", "--population"),
            "population",
            10000,
            False,
            None,
            None,
            None,
        ),
        "--protocol": (
            ("--protocol",), "protocol", None, True, None, None, None
        ),
        "--seed": (("--seed",), "seed", 20180610, False, None, None, None),
        "--spec-out": (
            ("--spec-out",), "spec_out", None, False, None, None, None
        ),
        "--width": (("--width",), "width", None, True, None, None, None),
    },
    "hh": {
        "hh_command": (
            (),
            "hh_command",
            None,
            True,
            ("aggregate", "discover", "encode"),
            "A...",
            None,
        ),
    },
    "hh aggregate": {
        "--attributes": (
            ("--attributes",), "attributes", None, False, None, None, DOMAIN
        ),
        "--checkpoint": (
            ("--checkpoint",), "checkpoint", None, False, None, None, None
        ),
        "--confidence": (
            ("--confidence",), "confidence", 0.95, False, None, None, None
        ),
        "--dimension": (
            ("-d", "--dimension"), "dimension", None, False, None, None, DOMAIN
        ),
        "--input": (("--input",), "input", "-", False, None, None, None),
        "--json": (("--json",), "json", None, False, None, None, None),
        "--output": (("--output",), "output", None, False, None, None, None),
        "--restore": (
            ("--restore",), "restore", None, False, None, None, None
        ),
        "--spec": (("--spec",), "spec", None, False, None, None, None),
        "--top-k": (("--top-k",), "top_k", None, False, None, None, None),
    },
    "hh discover": {
        "--batch-size": (
            ("--batch-size",), "batch_size", None, False, None, None, None
        ),
        "--clients": (("--clients",), "clients", 3, False, None, None, None),
        "--confidence": (
            ("--confidence",), "confidence", 0.95, False, None, None, None
        ),
        "--connect-timeout": (
            ("--connect-timeout",),
            "connect_timeout",
            10.0,
            False,
            None,
            None,
            None,
        ),
        "--dataset": (
            ("--dataset",),
            "dataset",
            "skewed",
            False,
            ("taxi", "movielens", "skewed", "uniform"),
            None,
            None,
        ),
        "--dimension": (
            ("-d", "--dimension"), "dimension", 8, False, None, None, None
        ),
        "--epsilon": (
            ("--epsilon",), "epsilon", None, False, None, None, None
        ),
        "--fanout": (("--fanout",), "fanout", 2, False, None, None, None),
        "--json": (("--json",), "json", None, False, None, None, None),
        "--option": (("--option",), "option", [], False, None, None, None),
        "--oracle": (
            ("--oracle",),
            "oracle",
            "InpOLH",
            False,
            ("InpOLH", "InpHT", "InpHTCMS"),
            None,
            None,
        ),
        "--output": (("--output",), "output", None, False, None, None, None),
        "--population": (
            ("-n", "--population"),
            "population",
            20000,
            False,
            None,
            None,
            None,
        ),
        "--seed": (("--seed",), "seed", 20180610, False, None, None, None),
        "--threshold": (
            ("--threshold",), "threshold", 0.0, False, None, None, None
        ),
        "--token-prefix": (
            ("--token-prefix",), "token_prefix", None, False, None, None, None
        ),
        "--top-k": (("--top-k",), "top_k", 8, False, None, None, None),
        "--topology": (
            ("--topology",), "topology", None, False, None, None, None
        ),
        "--width": (("--width",), "width", 2, False, None, None, None),
    },
    "hh encode": {
        "--batch-size": (
            ("--batch-size",), "batch_size", None, False, None, None, None
        ),
        "--dataset": (
            ("--dataset",),
            "dataset",
            "skewed",
            False,
            ("taxi", "movielens", "skewed", "uniform"),
            None,
            None,
        ),
        "--dimension": (
            ("-d", "--dimension"), "dimension", 8, False, None, None, None
        ),
        "--epsilon": (("--epsilon",), "epsilon", None, True, None, None, None),
        "--fanout": (("--fanout",), "fanout", 2, False, None, None, None),
        "--option": (("--option",), "option", [], False, None, None, None),
        "--oracle": (
            ("--oracle",),
            "oracle",
            "InpOLH",
            False,
            ("InpOLH", "InpHT", "InpHTCMS"),
            None,
            None,
        ),
        "--output": (("--output",), "output", "-", False, None, None, None),
        "--population": (
            ("-n", "--population"),
            "population",
            20000,
            False,
            None,
            None,
            None,
        ),
        "--seed": (("--seed",), "seed", 20180610, False, None, None, None),
        "--spec-out": (
            ("--spec-out",), "spec_out", None, False, None, None, None
        ),
        "--threshold": (
            ("--threshold",), "threshold", 0.0, False, None, None, None
        ),
        "--top-k": (("--top-k",), "top_k", 8, False, None, None, None),
        "--width": (("--width",), "width", 2, False, None, None, None),
    },
    "list": {
        "--json": (("--json",), "json", False, False, None, 0, None),
    },
    "load": {
        "--attributes": (
            ("--attributes",), "attributes", None, False, None, None, DOMAIN
        ),
        "--batch-size": (
            ("--batch-size",), "batch_size", None, False, None, None, None
        ),
        "--breaker": (("--breaker",), "breaker", False, False, None, 0, None),
        "--clients": (("--clients",), "clients", 8, False, None, None, None),
        "--connect-timeout": (
            ("--connect-timeout",),
            "connect_timeout",
            10.0,
            False,
            None,
            None,
            None,
        ),
        "--dataset": (
            ("--dataset",),
            "dataset",
            None,
            False,
            ("taxi", "movielens", "skewed", "uniform"),
            None,
            None,
        ),
        "--dimension": (
            ("-d", "--dimension"), "dimension", None, False, None, None, DOMAIN
        ),
        "--epsilon": (
            ("--epsilon",), "epsilon", None, False, None, None, None
        ),
        "--frames-per-connection": (
            ("--frames-per-connection",),
            "frames_per_connection",
            None,
            False,
            None,
            None,
            None,
        ),
        "--host": (("--host",), "host", "127.0.0.1", False, None, None, None),
        "--json": (("--json",), "json", None, False, None, None, None),
        "--malformed": (
            ("--malformed",), "malformed", 0, False, None, None, None
        ),
        "--max-retries": (
            ("--max-retries",), "max_retries", None, False, None, None, None
        ),
        "--option": (("--option",), "option", [], False, None, None, None),
        "--population": (
            ("-n", "--population"),
            "population",
            10000,
            False,
            None,
            None,
            None,
        ),
        "--port": (("--port",), "port", 7311, False, None, None, None),
        "--protocol": (
            ("--protocol",), "protocol", None, False, None, None, None
        ),
        "--records-per-client": (
            ("--records-per-client",),
            "records_per_client",
            256,
            False,
            None,
            None,
            None,
        ),
        "--retry-base-delay": (
            ("--retry-base-delay",),
            "retry_base_delay",
            None,
            False,
            None,
            None,
            None,
        ),
        "--retry-deadline": (
            ("--retry-deadline",),
            "retry_deadline",
            None,
            False,
            None,
            None,
            None,
        ),
        "--retry-max-delay": (
            ("--retry-max-delay",),
            "retry_max_delay",
            None,
            False,
            None,
            None,
            None,
        ),
        "--seed": (("--seed",), "seed", 20180610, False, None, None, None),
        "--spec": (("--spec",), "spec", None, False, None, None, None),
        "--spool-dir": (
            ("--spool-dir",), "spool_dir", None, False, None, None, None
        ),
        "--token-prefix": (
            ("--token-prefix",), "token_prefix", None, False, None, None, None
        ),
        "--topology": (
            ("--topology",), "topology", None, False, None, None, None
        ),
        "--width": (("--width",), "width", None, False, None, None, None),
    },
    "run": {
        "--batch-size": (
            ("--batch-size",), "batch_size", None, False, None, None, None
        ),
        "--executor": (
            ("--executor",),
            "executor",
            None,
            False,
            ("process", "serial", "thread"),
            None,
            None,
        ),
        "--full": (("--full",), "full", False, False, None, 0, SCALE),
        "--json": (("--json",), "json", None, False, None, None, None),
        "--output": (("--output",), "output", None, False, None, None, None),
        "--quick": (("--quick",), "quick", True, False, None, 0, SCALE),
        "--shards": (("--shards",), "shards", None, False, None, None, None),
        "--workers": (
            ("--workers",), "workers", None, False, None, None, None
        ),
        "experiment": (
            (),
            "experiment",
            None,
            True,
            (
                "categorical", "fig10", "fig3", "fig4", "fig5", "fig6", "fig7",
                "fig8", "fig9", "table2", "table3",
            ),
            None,
            None,
        ),
    },
    "serve": {
        "--attributes": (
            ("--attributes",), "attributes", None, False, None, None, DOMAIN
        ),
        "--checkpoint-dir": (
            ("--checkpoint-dir",),
            "checkpoint_dir",
            None,
            False,
            None,
            None,
            None,
        ),
        "--checkpoint-interval": (
            ("--checkpoint-interval",),
            "checkpoint_interval",
            None,
            False,
            None,
            None,
            None,
        ),
        "--dimension": (
            ("-d", "--dimension"), "dimension", None, False, None, None, DOMAIN
        ),
        "--epsilon": (
            ("--epsilon",), "epsilon", None, False, None, None, None
        ),
        "--host": (("--host",), "host", "127.0.0.1", False, None, None, None),
        "--json": (("--json",), "json", None, False, None, None, None),
        "--kernel-backend": (
            ("--kernel-backend",),
            "kernel_backend",
            None,
            False,
            None,
            None,
            None,
        ),
        "--max-frame-bytes": (
            ("--max-frame-bytes",),
            "max_frame_bytes",
            None,
            False,
            None,
            None,
            None,
        ),
        "--metrics-port": (
            ("--metrics-port",), "metrics_port", None, False, None, None, None
        ),
        "--option": (("--option",), "option", [], False, None, None, None),
        "--output": (("--output",), "output", None, False, None, None, None),
        "--port": (("--port",), "port", 7311, False, None, None, None),
        "--processes": (
            ("--processes",), "processes", 1, False, None, None, None
        ),
        "--protocol": (
            ("--protocol",), "protocol", None, False, None, None, None
        ),
        "--shards": (("--shards",), "shards", 1, False, None, None, None),
        "--spec": (("--spec",), "spec", None, False, None, None, None),
        "--stats-interval": (
            ("--stats-interval",),
            "stats_interval",
            None,
            False,
            None,
            None,
            None,
        ),
        "--stop-after-reports": (
            ("--stop-after-reports",),
            "stop_after_reports",
            None,
            False,
            None,
            None,
            None,
        ),
        "--uvloop": (("--uvloop",), "uvloop", False, False, None, 0, None),
        "--width": (("--width",), "width", None, False, None, None, None),
    },
    "topo": {
        "topo_command": (
            (),
            "topo_command",
            None,
            True,
            ("finalize", "inspect", "launch"),
            "A...",
            None,
        ),
    },
    "topo finalize": {
        "--allow-partial": (
            ("--allow-partial",), "allow_partial", False, False, None, 0, None
        ),
        "--dir": (("--dir",), "dir", None, True, None, None, None),
        "--expected-reports": (
            ("--expected-reports",),
            "expected_reports",
            None,
            False,
            None,
            None,
            None,
        ),
        "--json": (("--json",), "json", None, False, None, None, None),
    },
    "topo inspect": {
        "--dir": (("--dir",), "dir", None, True, None, None, None),
    },
    "topo launch": {
        "--attributes": (
            ("--attributes",), "attributes", None, False, None, None, DOMAIN
        ),
        "--checkpoint-interval": (
            ("--checkpoint-interval",),
            "checkpoint_interval",
            None,
            False,
            None,
            None,
            None,
        ),
        "--collectors": (
            ("--collectors",), "collectors", 3, False, None, None, None
        ),
        "--dimension": (
            ("-d", "--dimension"), "dimension", None, False, None, None, DOMAIN
        ),
        "--dir": (("--dir",), "dir", None, True, None, None, None),
        "--epsilon": (
            ("--epsilon",), "epsilon", None, False, None, None, None
        ),
        "--host": (("--host",), "host", "127.0.0.1", False, None, None, None),
        "--json": (("--json",), "json", None, False, None, None, None),
        "--kill-after-reports": (
            ("--kill-after-reports",),
            "kill_after_reports",
            None,
            False,
            None,
            None,
            None,
        ),
        "--kill-collector": (
            ("--kill-collector",), "kill_collector", 0, False, None, None, None
        ),
        "--option": (("--option",), "option", [], False, None, None, None),
        "--output": (("--output",), "output", None, False, None, None, None),
        "--protocol": (
            ("--protocol",), "protocol", None, False, None, None, None
        ),
        "--publish-resilience": (
            ("--publish-resilience",),
            "publish_resilience",
            False,
            False,
            None,
            0,
            None,
        ),
        "--routing": (
            ("--routing",),
            "routing",
            "round-robin",
            False,
            ("round-robin", "hash"),
            None,
            None,
        ),
        "--shards": (("--shards",), "shards", 1, False, None, None, None),
        "--spec": (("--spec",), "spec", None, False, None, None, None),
        "--stop-after-reports": (
            ("--stop-after-reports",),
            "stop_after_reports",
            None,
            False,
            None,
            None,
            None,
        ),
        "--width": (("--width",), "width", None, False, None, None, None),
    },
    "watch": {
        "--interval": (
            ("--interval",), "interval", 2.0, False, None, None, None
        ),
        "--json": (("--json",), "json", False, False, None, 0, None),
        "--once": (("--once",), "once", False, False, None, 0, None),
        "--timeout": (("--timeout",), "timeout", 5.0, False, None, None, None),
        "--topology": (
            ("--topology",), "topology", None, False, None, None, None
        ),
        "targets": ((), "targets", None, True, None, "*", None),
    },
}


def _key(action: argparse.Action) -> str:
    longs = [text for text in action.option_strings if text.startswith("--")]
    if longs:
        return longs[0]
    return action.option_strings[0] if action.option_strings else action.dest


def _surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    groups = {}
    for group in parser._mutually_exclusive_groups:
        members = tuple(sorted(_key(item) for item in group._group_actions))
        for action in group._group_actions:
            groups[id(action)] = members
    table = {}
    rows = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                table.update(_surface(subparser, f"{path} {name}".strip()))
            choices = tuple(sorted(choices))
        elif choices is not None:
            choices = tuple(choices)
        rows[_key(action)] = (
            tuple(action.option_strings),
            action.dest,
            action.default,
            action.required,
            choices,
            action.nargs,
            groups.get(id(action)),
        )
    table[path] = rows
    return table


def test_every_verb_is_pinned():
    assert sorted(_surface(cli._build_parser())) == sorted(EXPECTED)


def test_every_flag_matches_the_table():
    surface = _surface(cli._build_parser())
    for path, rows in EXPECTED.items():
        assert surface[path] == rows, f"`repro {path}` surface changed"
