from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from speechrag.corpus import SynthParams, corpus_words, split, synth_corpus
from speechrag.encoder import Vocab
from speechrag.training import TrainConfig, build_model, train


@pytest.fixture(scope="session")
def seed7_corpus():
    return synth_corpus(SynthParams(seed=7))


@pytest.fixture(scope="session")
def seed7_splits(seed7_corpus):
    return split(seed7_corpus, 0.8, 0.1, seed=7)


@pytest.fixture(scope="session")
def seed7_vocab(seed7_corpus):
    return Vocab.from_words(corpus_words(seed7_corpus))


@pytest.fixture(scope="session")
def untrained_model(seed7_vocab):
    return build_model(seed7_vocab, seed=7)


@pytest.fixture(scope="session")
def convergence_run(seed7_splits, seed7_vocab):
    """The acceptance training run: spec recipe scaled to 200 epochs on the
    seed-7 corpus. Shared across criteria; wall time is recorded."""
    train_corpus, val_corpus, _ = seed7_splits
    config = TrainConfig(max_epochs=200, seed=7)
    started = time.monotonic()
    checkpoint = train(train_corpus, val_corpus, config, build_model(seed7_vocab, seed=7))
    elapsed = time.monotonic() - started
    return checkpoint, elapsed


@pytest.fixture(scope="session")
def trained_model(convergence_run):
    checkpoint, _ = convergence_run
    return checkpoint.model


# Reply bodies that are not a JSON object holding a string "answer", by query.
BAD_REPLIES = {
    "list-reply": b'["answer"]',
    "string-reply": b'"the answer"',
    "non-utf8-reply": b'\xff\xfe{"answer": "1"}',
    "null-answer-reply": b'{"answer": null}',
    "list-answer-reply": b'{"answer": ["a"]}',
}


class _EchoHandler(BaseHTTPRequestHandler):
    """A loopback generator and judge over the generator wire protocol. It
    echoes generation requests, answers judge requests with 1 when the
    candidate answer holds "same", fails the query "boom" with HTTP 500,
    sends the body BAD_REPLIES names for its queries, and records every
    request body in its server's `received` list."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length).decode("utf-8"))
        self.server.received.append(request)
        if request["query"] == "boom":
            self.send_response(500)
            self.end_headers()
            return
        if request["instruction"].startswith("You are grading"):
            answer = "1" if "same" in request["contexts"][0] else "0"
        else:
            answer = f"echo:{request['query']}:{len(request['contexts'])}"
        body = BAD_REPLIES.get(request["query"], json.dumps({"answer": answer}).encode("utf-8"))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _EchoHandler)
    server.received = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


@pytest.fixture(scope="module")
def http_endpoint(http_server):
    return f"http://127.0.0.1:{http_server.server_port}/"
