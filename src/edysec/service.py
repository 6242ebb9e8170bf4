"""HTTP verdict service: POST /v1/analyze scores one package record against a
loaded model artifact; GET /v1/health reports the artifact fingerprint."""

from __future__ import annotations

import json
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .artifact import ModelArtifact, predict_package
from .errors import EdysecError

MAX_BODY_BYTES = 1 << 20


class VerdictHandler(BaseHTTPRequestHandler):
    artifact: ModelArtifact  # set by make_server

    protocol_version = "HTTP/1.1"
    timeout = 10  # seconds a socket read may block before the connection is dropped
    # an interim 100 Continue and its final reply go out as two writes, as does a reply
    # longer than a segment; with Nagle's algorithm on, a keep-alive connection holds the
    # second until the client's delayed ACK, about 40 ms
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # quiet by default
        pass

    def send_error(self, code, message=None, explain=None):
        # every rejection after which the connection closes answers in JSON, the stdlib's
        # own (501, 431, 414) among them
        self.close_connection = True
        self._reply(code, {"error": message or HTTPStatus(code).phrase})

    def _reply(self, status: int, payload: dict) -> None:
        try:
            body = json.dumps(payload, allow_nan=False).encode()
        except ValueError:
            status, body = 500, json.dumps({"error": "reply holds a non-finite number"}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # the blank line and the body join the buffered head, so the reply leaves in one write
        # and a keep-alive client wakes once; an HTTP/0.9 reply is its body alone
        if self.request_version == "HTTP/0.9":
            self._headers_buffer = []
        else:
            self._headers_buffer.append(b"\r\n")
        if self.command != "HEAD":  # a HEAD reply has no body; the stdlib's 501 is the only one
            self._headers_buffer.append(body)
        self.flush_headers()

    def do_GET(self):
        # a body is never read: close after the reply, so that it is not parsed as the next request
        if "Transfer-Encoding" in self.headers or self.headers.get("Content-Length", "0") != "0":
            self.close_connection = True
        if self.path == "/v1/health":
            self._reply(200, {"status": "ok", "fingerprint": self.artifact.fingerprint})
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        # send_error closes the connection: a body left unread would be parsed as the next request
        if self.path != "/v1/analyze":
            self.send_error(404, "not found")
            return
        if "Transfer-Encoding" in self.headers:
            self.send_error(411, "request body must be sent with Content-Length, not Transfer-Encoding")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self.send_error(400, "Content-Length must be a non-negative integer")
            return
        if length > MAX_BODY_BYTES:
            self.send_error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return
        try:
            request = json.loads(self.rfile.read(length))
        except TimeoutError:
            self.send_error(408, "request body not received in time")
            return
        except (ValueError, RecursionError):  # RecursionError: JSON nested deeper than the parser goes
            self._reply(400, {"error": "request body must be JSON"})
            return
        if not isinstance(request, dict) or not isinstance(request.get("features"), dict):
            self._reply(400, {"error": "request must carry a 'features' object"})
            return
        explain_verdict = request.get("explain", False)
        if not isinstance(explain_verdict, bool):
            self._reply(400, {"error": "'explain' must be a JSON boolean"})
            return
        try:
            report = predict_package(
                self.artifact,
                request["features"],
                package=str(request.get("package", "package")),
                explain_verdict=explain_verdict,
            )
        except EdysecError as exc:
            # a record the artifact cannot score, or an explanation it cannot give
            self._reply(422, {"error": str(exc), "column": getattr(exc, "column", None)})
            return
        except Exception:
            self.server.handle_error(self.request, self.client_address)  # prints the traceback
            self.send_error(500, "internal error while scoring the record")
            return
        self._reply(200, report.to_dict())


def make_server(artifact: ModelArtifact, host: str = "127.0.0.1", port: int = 8730) -> ThreadingHTTPServer:
    handler = type("BoundVerdictHandler", (VerdictHandler,), {"artifact": artifact})
    return ThreadingHTTPServer((host, port), handler)
