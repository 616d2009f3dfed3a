"""The user-facing surface: ``python -m repro`` flags and serve verbs.

Pins every subcommand's positional arguments and options (with their
types, defaults and choices) as the parser :func:`repro.cli.main`
builds them, and the verb set :class:`~repro.serve.server.FieldServer`
answers.  A change that adds, drops or renames any of them, or moves a
default, fails here.
"""

from __future__ import annotations

import argparse

import pytest

from repro import cli
from repro.serve.protocol import OPS
from repro.serve.server import FieldServer

CLI_SURFACE = {
    "build": [
        "field", "index_dir", "--curve='hilbert' {hilbert,zorder,gray}",
        "--bulk"],
    "query": [
        "index_dir", "lo:float", "hi:float", "--regions",
        "--max-regions:int=10", "--workers:int=1", "--trace=None",
        "--metrics-out=None"],
    "aggregate": [
        "index_dir", "kind {count,sum,avg,area}", "lo:float", "hi:float",
        "--tolerance:float=None", "--mode='hybrid' {model,hybrid,exact}",
        "--json", "--trace=None", "--metrics-out=None"],
    "batch": [
        "index_dir", "queries", "--estimate='area' {none,area}",
        "--cache-pages:int=1024", "--no-merge", "--compare", "--quiet",
        "--workers:int=1", "--trace=None", "--metrics-out=None"],
    "explain": [
        "index_dir", "lo:float", "hi:float", "--analyze", "--json",
        "--bins:int=64", "--trace=None"],
    "info": ["index_dir"],
    "scrub": ["index_dir", "--json", "--repair"],
    "update": ["index_dir", "field", "updates", "--checkpoint"],
    "compact": ["index_dir", "--threshold:float=0.0"],
    "shard": [
        "field", "index_dir", "--shards:int=4",
        "--curve='hilbert' {hilbert,zorder,gray}", "--tiered",
        "--remote-cache-pages:int=64"],
    "rebalance": [
        "index_dir", "--field=None", "--max-cells:int=None",
        "--min-cells:int=None", "--drift-threshold:float=None"],
    "serve": [
        "fields[+]", "--host='127.0.0.1'", "--port:int=0",
        "--workers:int=2", "--cache-pages:int=1024",
        "--executor-workers:int=4", "--rate:float=None", "--burst:int=8",
        "--max-queue:int=64", "--on-limit='wait' {wait,reject}",
        "--max-wait:float=1.0", "--timeout:float=None",
        "--port-file=None", "--max-requests:int=None", "--no-metrics",
        "--metrics-port:int=None", "--trace-sample-rate:float=0.0",
        "--qlog=None", "--qlog-threshold-ms:float=100.0",
        "--qlog-pages:int=None"],
    "top": [
        "address", "--interval:float=2.0", "--once",
        "--tenant='default'"],
    "point": ["field", "x:float", "y:float"],
}

SERVE_VERBS = {"ping", "fields", "open", "close", "query", "aggregate",
               "batch", "update", "stats", "metrics"}


def _cli_parser(monkeypatch) -> argparse.ArgumentParser:
    """The parser ``cli.main`` builds, caught before it parses."""
    built = []

    def catch(self, args=None, namespace=None):
        built.append(self)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", catch)
    with pytest.raises(SystemExit):
        cli.main([])
    return built[0]


def _describe(action: argparse.Action) -> str:
    """One argument as ``name[nargs]:type=default {choices}``; a bare
    ``--flag`` takes no value."""
    text = "/".join(action.option_strings) or action.dest
    if action.nargs == 0:
        return text
    if action.nargs is not None:
        text += f"[{action.nargs}]"
    if action.type is not None:
        text += f":{action.type.__name__}"
    if action.option_strings:
        text += f"={action.default!r}"
    if action.choices is not None:
        text += " {" + ",".join(map(str, action.choices)) + "}"
    return text


def test_cli_subcommands_flags_defaults_and_choices(monkeypatch):
    parser = _cli_parser(monkeypatch)
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    surface = {
        name: [_describe(action) for action in sub._actions
               if not isinstance(action, argparse._HelpAction)]
        for name, sub in commands.choices.items()}
    assert surface == CLI_SURFACE


def test_serve_verbs():
    assert set(FieldServer()._handlers) == SERVE_VERBS
    assert OPS == SERVE_VERBS
