"""Command line behavior and exit codes."""

import io
import json
import socket

import pytest

from claimver.cli import main

from conftest import APOLLO_RESPONSE, APOLLO_TEXT, chat_payload


@pytest.fixture
def input_file(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(APOLLO_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def refused_url():
    """A localhost URL nothing listens on, so a request to it is refused at
    once instead of waiting on a name lookup."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def _verify_args(kg_path, input_file, url, *extra):
    return ["verify", "--kg", kg_path, "--input", input_file,
            "--backend-url", url, "--model", "test-model", *extra]


class TestVerify:
    def test_json_report_to_file(self, tsv_kg_path, input_file, tmp_path, scripted_server):
        server = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        out = tmp_path / "report.json"
        code = main(_verify_args(tsv_kg_path, input_file, server.url,
                                 "--out", str(out)))
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["input_text"] == APOLLO_TEXT
        assert report["n"] == 2
        assert [c["prediction"] for c in report["claims"]] == [
            "Attributable", "Contradictory"]
        assert report["config"]["model"] == "test-model"

    def test_json_to_stdout(self, tsv_kg_path, input_file, scripted_server, capsys):
        server = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        assert main(_verify_args(tsv_kg_path, input_file, server.url)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 2

    def test_ansi_format(self, tsv_kg_path, input_file, scripted_server, capsys):
        server = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        assert main(_verify_args(tsv_kg_path, input_file, server.url,
                                 "--format", "ansi")) == 0
        out = capsys.readouterr().out
        assert "\x1b[31m" in out and "KAS:" in out

    def test_html_format(self, tsv_kg_path, input_file, scripted_server, capsys):
        server = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        assert main(_verify_args(tsv_kg_path, input_file, server.url,
                                 "--format", "html")) == 0
        assert "<!DOCTYPE html>" in capsys.readouterr().out

    def test_stdin_input(self, tsv_kg_path, scripted_server, capsys, monkeypatch):
        server = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        monkeypatch.setattr("sys.stdin", io.StringIO(APOLLO_TEXT))
        assert main(_verify_args(tsv_kg_path, "-", server.url)) == 0
        assert json.loads(capsys.readouterr().out)["input_text"] == APOLLO_TEXT

    def test_jsonl_kg(self, jsonl_kg_path, input_file, scripted_server, capsys):
        server = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        assert main(_verify_args(jsonl_kg_path, input_file, server.url,
                                 "--kg-format", "jsonl")) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2

    def test_missing_kg_exit_2(self, input_file, refused_url, capsys):
        assert main(_verify_args("/no/such/file.tsv", input_file, refused_url)) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_kg_exit_2(self, tmp_path, input_file, refused_url):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n", encoding="utf-8")
        assert main(_verify_args(str(bad), input_file, refused_url)) == 2

    def test_non_object_node_row_exit_2(self, tmp_path, input_file, refused_url, capsys):
        kg = tmp_path / "kg.jsonl"
        kg.write_text('{"s_id": "A", "s_label": "a", "p": "r", "o_id": "B", "o_label": "b"}\n',
                      encoding="utf-8")
        (tmp_path / "kg.nodes.jsonl").write_text("[1, 2]\n", encoding="utf-8")
        assert main(_verify_args(str(kg), input_file, refused_url, "--kg-format", "jsonl")) == 2
        assert capsys.readouterr().err == "error: line 1 (node file): expected a JSON object\n"

    def test_kg_row_json_cannot_convert_exit_2(self, tmp_path, input_file, refused_url, capsys):
        kg = tmp_path / "kg.jsonl"
        kg.write_text('{"s_id": "A", "s_label": "a", "p": "r", "o_id": "B", "o_label": "b"}\n'
                      + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        assert main(_verify_args(str(kg), input_file, refused_url, "--kg-format", "jsonl")) == 2
        assert capsys.readouterr().err.startswith("error: line 2: invalid JSON (maximum recursion")

    def test_kg_not_utf8_exit_2(self, tmp_path, input_file, refused_url, capsys):
        kg = tmp_path / "kg.tsv"
        kg.write_bytes(b"A\tAlpha\trel\tB\tBeta\nB\tBeta\trel\tC\tGa\xffmma\n")
        assert main(_verify_args(str(kg), input_file, refused_url, "--lenient")) == 2
        assert capsys.readouterr().err == "error: line 2: not valid UTF-8\n"

    def test_backend_auth_failure_exit_3(self, tsv_kg_path, input_file, scripted_server):
        server = scripted_server([(401, "denied")])
        assert main(_verify_args(tsv_kg_path, input_file, server.url)) == 3

    def test_backend_down_exit_3(self, tsv_kg_path, input_file, scripted_server):
        server = scripted_server([(500, "boom")])
        assert main(_verify_args(tsv_kg_path, input_file, server.url)) == 3

    def test_too_deeply_nested_response_exit_3(self, tsv_kg_path, input_file, scripted_server,
                                               capsys):
        server = scripted_server([(200, "[" * 200_000)])
        assert main(_verify_args(tsv_kg_path, input_file, server.url)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed endpoint response" in err
        assert "Traceback" not in err

    def test_unparseable_response_exit_4(self, tsv_kg_path, input_file, scripted_server):
        server = scripted_server([(200, chat_payload("no structured keys"))])
        assert main(_verify_args(tsv_kg_path, input_file, server.url)) == 4

    def test_bad_scoring_config_exit_2(self, tsv_kg_path, input_file, refused_url):
        assert main(_verify_args(tsv_kg_path, input_file, refused_url,
                                 "--alpha", "-1")) == 2

    def test_non_finite_scoring_weight_exit_2(self, tsv_kg_path, input_file, refused_url,
                                              capsys):
        assert main(_verify_args(tsv_kg_path, input_file, refused_url,
                                 "--alpha", "nan")) == 2
        assert capsys.readouterr().err == (
            "error: alpha, beta, gamma_neg and gamma_pos must be finite\n")

    def test_missing_required_flag_exits_2(self, tsv_kg_path):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--kg", tsv_kg_path])
        assert err.value.code == 2

    def test_negative_chunk_chars_rejected_when_parsed(self, tmp_path, input_file,
                                                       refused_url, capsys):
        # The graph path does not exist: the flag is rejected before any load.
        with pytest.raises(SystemExit) as err:
            main(_verify_args(str(tmp_path / "absent.tsv"), input_file, refused_url,
                              "--chunk-chars", "-5"))
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --chunk-chars: must be >= 0 (0 means no chunking), got -5\n")

    def test_zero_chunk_chars_means_no_chunking(self, tsv_kg_path, input_file,
                                                scripted_server, capsys):
        server = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        assert main(_verify_args(tsv_kg_path, input_file, server.url,
                                 "--chunk-chars", "0")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["chunk_chars"] == 0
        assert len(server.requests) == 1

    def test_custom_retrieval_flags_echoed(self, tsv_kg_path, input_file,
                                           scripted_server, capsys):
        server = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        assert main(_verify_args(tsv_kg_path, input_file, server.url,
                                 "--max-hops", "2", "--max-paths", "3")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["retrieval"] == {"max_hops": 2, "max_paths_per_pair": 3}

    @pytest.mark.parametrize("rationale", ['"a \\ud800 b"', '"a \ud800 b"', 'a \ud800 b'],
                             ids=["json-escape", "raw-quoted", "raw-unquoted"])
    def test_lone_surrogate_in_reply_written_as_replacement(
            self, tsv_kg_path, input_file, tmp_path, scripted_server, rationale):
        reply = APOLLO_RESPONSE.replace(
            '"The landing site triplet states this directly."', rationale)
        server = scripted_server([(200, chat_payload(reply))])
        out = tmp_path / "report.json"
        assert main(_verify_args(tsv_kg_path, input_file, server.url,
                                 "--out", str(out))) == 0
        report = json.loads(out.read_bytes().decode("utf-8"))
        assert report["claims"][0]["rationale"] == "a \ufffd b"

    def test_embed_url_fallback_still_succeeds(self, tsv_kg_path, input_file,
                                               scripted_server, capsys):
        chat = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        embed = scripted_server([(500, "down")])
        code = main(_verify_args(tsv_kg_path, input_file, chat.url,
                                 "--embed-url", embed.url, "--embed-model", "e"))
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["n"] == 2
        assert "built-in embedder" in captured.err

    def test_nan_embedding_is_scoring_error(self, tsv_kg_path, input_file,
                                            scripted_server, capsys):
        chat = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        embed = scripted_server([(200, {"data": [{"embedding": [float("nan"), 1.0]}]})])
        code = main(_verify_args(tsv_kg_path, input_file, chat.url,
                                 "--embed-url", embed.url, "--embed-model", "e"))
        assert code == 2
        assert "[scoring]" in capsys.readouterr().err

    def test_embed_url_without_model_exit_2(self, tsv_kg_path, input_file,
                                            scripted_server, capsys):
        chat = scripted_server([(200, chat_payload(APOLLO_RESPONSE))])
        embed = scripted_server([(200, {"data": [{"embedding": [1.0]}]})])
        assert main(_verify_args(tsv_kg_path, input_file, chat.url,
                                 "--embed-url", embed.url)) == 2
        assert capsys.readouterr().err == (
            "error: --embed-url and --embed-model must be given together\n")


@pytest.fixture
def no_graph_load(monkeypatch):
    """A graph load that fails the test: the flags must be refused first."""
    def load_kg(*args, **kwargs):
        raise AssertionError("graph loaded before the flags were checked")
    monkeypatch.setattr("claimver.cli.load_kg", load_kg)


_BAD_URL = "error: base_url must be an http:// or https:// URL, got scheme 'ftp'\n"
_BAD_KEY = "error: api_key must be latin-1 text without CR or LF\n"


class TestFlagsCheckedBeforeGraphLoad:
    @pytest.mark.parametrize("flags, key, err", [
        (["--max-hops", "0"], "", "error: max_hops must be >= 1, got 0\n"),
        (["--max-paths", "0"], "", "error: max_paths_per_pair must be >= 1, got 0\n"),
        (["--alpha", "nan"], "", "error: alpha, beta, gamma_neg and gamma_pos must be finite\n"),
        (["--backend-url", "ftp://x"], "", _BAD_URL),
        (["--embed-url", "ftp://x", "--embed-model", "e"], "", _BAD_URL),
        ([], "sk-secret\nx", _BAD_KEY),
    ], ids=["max-hops", "max-paths", "alpha", "backend-url", "embed-url", "api-key"])
    def test_verify(self, input_file, refused_url, no_graph_load, monkeypatch, capsys,
                    flags, key, err):
        monkeypatch.setenv("CLAIMVER_API_KEY", key)
        assert main(_verify_args("/no/such/graph.tsv", input_file, refused_url, *flags)) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("flags, key, err", [
        (["--max-hops", "0"], "", "error: max_hops must be >= 1, got 0\n"),
        (["--max-paths", "0"], "", "error: max_paths_per_pair must be >= 1, got 0\n"),
        (["--backend-url", "ftp://x", "--model", "m"], "", _BAD_URL),
        (["--backend-url", "http://127.0.0.1:9", "--model", "m"], "sk-secret\nx", _BAD_KEY),
    ], ids=["max-hops", "max-paths", "backend-url", "api-key"])
    def test_datagen(self, input_file, no_graph_load, monkeypatch, capsys, flags, key, err):
        monkeypatch.setenv("CLAIMVER_API_KEY", key)
        assert main(["datagen", "--kg", "/no/such/graph.tsv", "--input", input_file,
                     *flags]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", ["verify", "datagen"])
    def test_missing_input(self, tmp_path, refused_url, no_graph_load, capsys, command):
        absent = str(tmp_path / "absent.txt")
        args = _verify_args("/no/such/graph.tsv", absent, refused_url)
        if command == "datagen":
            args = ["datagen", "--kg", "/no/such/graph.tsv", "--input", absent]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {absent!r}\n")


class TestDatagen:
    def test_emits_jsonl(self, tsv_kg_path, tmp_path, capsys):
        doc_file = tmp_path / "docs.txt"
        doc_file.write_text(APOLLO_TEXT + "\n\nApollo 11 orbited Earth.\n",
                            encoding="utf-8")
        assert main(["datagen", "--kg", tsv_kg_path, "--input", str(doc_file)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3  # two sentences + one single-sentence document
        assert all({"full_text", "text_span", "triplets", "prompt"} <= set(l) for l in lines)
        assert "response" not in lines[0]

    def test_with_backend_includes_responses(self, tsv_kg_path, tmp_path,
                                             scripted_server, capsys):
        server = scripted_server([(200, chat_payload('- "prediction": "Attributable"'))])
        doc_file = tmp_path / "docs.txt"
        doc_file.write_text("Apollo 11 landed on the Moon.\n", encoding="utf-8")
        assert main(["datagen", "--kg", tsv_kg_path, "--input", str(doc_file),
                     "--backend-url", server.url, "--model", "m"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["response"] == '- "prediction": "Attributable"'

    def test_lone_surrogate_in_response_written_as_replacement(
            self, tsv_kg_path, tmp_path, scripted_server):
        server = scripted_server([(200, chat_payload("lone \ud800"))])
        doc_file = tmp_path / "docs.txt"
        doc_file.write_text("Apollo 11 landed on the Moon.\n", encoding="utf-8")
        out = tmp_path / "records.jsonl"
        assert main(["datagen", "--kg", tsv_kg_path, "--input", str(doc_file),
                     "--backend-url", server.url, "--model", "m", "--out", str(out)]) == 0
        record = json.loads(out.read_bytes().decode("utf-8"))
        assert record["response"] == "lone \ufffd"

    def test_backend_url_without_model_exit_2(self, tsv_kg_path, tmp_path, refused_url):
        doc_file = tmp_path / "docs.txt"
        doc_file.write_text("x\n", encoding="utf-8")
        assert main(["datagen", "--kg", tsv_kg_path, "--input", str(doc_file),
                     "--backend-url", refused_url]) == 2

    def test_out_file(self, tsv_kg_path, tmp_path):
        doc_file = tmp_path / "docs.txt"
        doc_file.write_text("Apollo 11 landed on the Moon.\n", encoding="utf-8")
        out = tmp_path / "records.jsonl"
        assert main(["datagen", "--kg", tsv_kg_path, "--input", str(doc_file),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8").splitlines()[0])["text_span"]

    def test_backend_failure_keeps_earlier_records(self, tsv_kg_path, tmp_path,
                                                   scripted_server, capsys):
        server = scripted_server([(200, chat_payload("first")), (401, "denied")])
        doc_file = tmp_path / "docs.txt"
        doc_file.write_text("Apollo 11 landed on the Moon.\nApollo 11 orbited Earth.\n",
                            encoding="utf-8")
        out = tmp_path / "records.jsonl"
        assert main(["datagen", "--kg", tsv_kg_path, "--input", str(doc_file),
                     "--backend-url", server.url, "--model", "m", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: [llm-backend] ")
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert [(r["text_span"], r["response"]) for r in records] == [
            ("Apollo 11 landed on the Moon.", "first")]

    def test_documents_split_only_at_newlines(self, tsv_kg_path, tmp_path, capsys):
        doc_file = tmp_path / "docs.txt"
        doc_file.write_text("Apollo 11 landed\u2028on the Moon.\r\nApollo 11 orbited Earth.\r",
                            encoding="utf-8", newline="")
        assert main(["datagen", "--kg", tsv_kg_path, "--input", str(doc_file)]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines.pop() == ""
        spans = [json.loads(l)["text_span"] for l in lines]
        assert spans == ["Apollo 11 landed\u2028on the Moon.", "Apollo 11 orbited Earth."]
