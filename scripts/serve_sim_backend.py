#!/usr/bin/env python3
"""Serve the deterministic simulated generator over the completion wire
protocol, for exercising the HTTP backend path end to end:

    python scripts/serve_sim_backend.py --port 8808
    thoughtsearch run --mode simulated --endpoint http://127.0.0.1:8808/complete ...

The first line on stdout is `listening <port>`, the bound port, so
`--port 0` serves on a free port and says which.

Request:  {"prompt": str, "max_tokens": int, "logprob_tokens": [str]}
Response: {"text": str, "token_logprobs": {str: float}}
"""

from __future__ import annotations

import argparse
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from thoughtsearch.errors import SchemaError, decode_json
from thoughtsearch.generate import SimulatedGenerator, parse_facts, parse_needs


def completion_for(prompt: str) -> str:
    """Deterministic completion mirroring the in-process simulated backend.

    The built-in templates end in distinct markers, which is how a single
    completion route tells thought generation apart from answering."""
    needs = parse_needs(prompt)
    facts = parse_facts(prompt)
    tail = prompt.rstrip()
    if tail.endswith("RESPONSE :"):  # thought generation: keep fact tokens
        pieces = ["note"]
        pieces += [f"need:{key}" for key in needs]
        pieces += [f"has:{key}" for key in sorted(facts)]
        pieces += [f"fact:{key}={facts[key]}" for key in sorted(facts)]
        return " ".join(pieces)
    if tail.endswith("QUERY :"):  # retrieval-query formulation
        keywords = [f"need:{key}" for key in needs] + [f"has:{key}" for key in sorted(facts)]
        return " ".join(keywords) or "search"
    if needs:  # answer extraction
        return " ".join(facts.get(key, "unknown") for key in needs)
    return "unknown"


class Handler(BaseHTTPRequestHandler):
    generator = SimulatedGenerator()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        try:
            payload = decode_json(self.rfile.read(length), "request body")
            prompt = payload["prompt"]
            body: dict = {"text": completion_for(prompt)}
            tokens = payload.get("logprob_tokens")
            if tokens:
                body["token_logprobs"] = self.generator.score_tokens(prompt, tokens)
        except (SchemaError, KeyError, TypeError):  # not JSON, no prompt, or not an object
            self.send_response(400)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        data = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args):
        print(f"{self.address_string()} {fmt % args}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8808)
    args = parser.parse_args()
    server = ThreadingHTTPServer((args.host, args.port), Handler)
    port = server.server_address[1]  # the bound port, also when --port is 0
    print(f"listening {port}", flush=True)
    print(f"simulated backend at http://{args.host}:{port}/complete", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
