"""Command line entry points.

claimver verify  - verify a text against a knowledge graph and emit a report
claimver datagen - emit span-labeling prompt/response records as JSONL

Exit codes: 0 success, 2 input or configuration error, 3 backend failure,
4 unparseable model response.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from typing import Optional

from .backend import BackendConfig, ChatBackend
from .errors import KgLoadError, PipelineError
from .kg import load_kg
from .pipeline import iter_datagen_records, run_pipeline
from .render import render
from .retrieval import RetrievalConfig
from .scoring import FallbackEmbedder, HttpEmbedder, ScoringConfig

logger = logging.getLogger(__name__)

_STAGE_EXIT = {"llm-backend": 3, "response-parser": 4}


def _open_text(path: Optional[str], mode: str):
    """The UTF-8 text file at path; stdin for input "-", stdout for no output."""
    if path == "-" and mode == "r":
        return contextlib.nullcontext(sys.stdin)
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, mode, encoding="utf-8")


def _require_pair(url: Optional[str], model: Optional[str], flags: str):
    if bool(url) != bool(model):
        raise ValueError(f"{flags} must be given together")


def _chunk_chars(value: str) -> int:
    try:
        chars = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if chars < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 means no chunking), got {chars}")
    return chars


def _add_kg_flags(p: argparse.ArgumentParser):
    p.add_argument("--kg", required=True, help="knowledge graph snapshot file")
    p.add_argument("--kg-format", choices=("tsv", "jsonl"), default="tsv")
    p.add_argument("--kg-nodes", default=None,
                   help="companion node file (default: <kg stem>.nodes.<ext> if present)")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed KG rows instead of failing the load")


def _add_retrieval_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-hops", type=int, default=3)
    p.add_argument("--max-paths", type=int, default=4)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimver",
        description="Claim-level text verification against a knowledge graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify a text and emit a report")
    _add_kg_flags(v)
    v.add_argument("--input", required=True, help="input text file, or - for stdin")
    v.add_argument("--backend-url", required=True, help="chat completion endpoint base URL")
    v.add_argument("--model", required=True, help="model name sent to the endpoint")
    v.add_argument("--embed-url", default=None, help="optional embeddings endpoint base URL")
    v.add_argument("--embed-model", default=None,
                   help="model name for the embeddings endpoint (required with --embed-url)")
    v.add_argument("--alpha", type=float, default=0.5)
    v.add_argument("--beta", type=float, default=0.5)
    v.add_argument("--gamma", type=float, default=3.0,
                   help="sigmoid steepness for negative score sums")
    _add_retrieval_flags(v)
    v.add_argument("--chunk-chars", type=_chunk_chars, default=None,
                   help="split inputs longer than this many characters at sentence "
                        "boundaries; 0 means no chunking")
    v.add_argument("--format", choices=("json", "ansi", "html"), default="json")
    v.add_argument("--out", default=None, help="output file (default: stdout)")
    v.set_defaults(func=_cmd_verify)

    d = sub.add_parser("datagen", help="emit span-labeling records as JSONL")
    _add_kg_flags(d)
    d.add_argument("--input", required=True,
                   help="text file with one document per line, or - for stdin")
    d.add_argument("--backend-url", default=None,
                   help="optional endpoint; when set, responses are included")
    d.add_argument("--model", default=None, help="model name (required with --backend-url)")
    _add_retrieval_flags(d)
    d.add_argument("--out", default=None, help="output file (default: stdout)")
    d.set_defaults(func=_cmd_datagen)
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    # Every flag is checked, and the input read, before the graph load.
    _require_pair(args.embed_url, args.embed_model, "--embed-url and --embed-model")
    retrieval_cfg = RetrievalConfig(max_hops=args.max_hops, max_paths_per_pair=args.max_paths)
    scoring_cfg = ScoringConfig(alpha=args.alpha, beta=args.beta,
                                gamma_neg=args.gamma, gamma_pos=1.0)
    backend = ChatBackend(BackendConfig(base_url=args.backend_url, model=args.model))
    embed_client = embedder = None
    if args.embed_url:
        embed_client = HttpEmbedder(BackendConfig(base_url=args.embed_url,
                                                  model=args.embed_model))
        embedder = FallbackEmbedder(embed_client)

    with backend, embed_client or contextlib.nullcontext():
        with _open_text(args.input, "r") as source:
            text = source.read()
        kg = load_kg(args.kg, args.kg_format, nodes_path=args.kg_nodes, lenient=args.lenient)
        report = run_pipeline(
            kg, text, backend, retrieval_cfg, scoring_cfg,
            embedder=embedder, chunk_chars=args.chunk_chars,
            extra_config={"backend_url": args.backend_url, "model": args.model,
                          "embed_url": args.embed_url or ""})
    if embedder is not None and embedder.degraded:
        print("note: embeddings endpoint failed; built-in embedder used", file=sys.stderr)

    with _open_text(args.out, "w") as out:
        out.write(render(report, args.format))
    return 0


def _cmd_datagen(args: argparse.Namespace) -> int:
    _require_pair(args.backend_url, args.model, "--backend-url and --model")
    retrieval_cfg = RetrievalConfig(max_hops=args.max_hops, max_paths_per_pair=args.max_paths)
    # One client for every document, so its requests share keep-alive connections.
    backend = None
    if args.backend_url:
        backend = ChatBackend(BackendConfig(base_url=args.backend_url, model=args.model))

    # Every flag is checked, and the input opened, before the graph load. One
    # document per line: never split at U+2028 and the like (a file's lines
    # end at \n, \r\n or \r, stdin's at \n). Each record is written as soon
    # as it is made, so a failure keeps the earlier records.
    with _open_text(args.input, "r") as docs, backend or contextlib.nullcontext():
        kg = load_kg(args.kg, args.kg_format, nodes_path=args.kg_nodes, lenient=args.lenient)
        with _open_text(args.out, "w") as out:
            for doc in docs:
                doc = doc.strip()
                if not doc:
                    continue
                for record in iter_datagen_records(kg, doc, retrieval_cfg, backend):
                    out.write(json.dumps(record, ensure_ascii=False) + "\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KgLoadError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for d in exc.diagnostics:
            print(f"note: {d}", file=sys.stderr)
        return _STAGE_EXIT.get(exc.stage, 2)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
