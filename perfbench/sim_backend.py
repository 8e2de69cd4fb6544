#!/usr/bin/env python3
"""Loopback completion backend for the `http_backend` workload.

Serves the engine's completion wire protocol with deterministic fact-token
completions and a fixed delay before every reply, standing in for a remote
LLM. It is self-contained (no engine imports), so engine changes cannot
change what it answers or what it costs.

    python3 perfbench/sim_backend.py --port 0

The first line on stdout is `listening <port>`. Every reply closes its
connection, as HTTP/1.0 does, which avoids the Nagle/delayed-ACK stall a
keep-alive server without TCP_NODELAY would add to each small response.

Request:  {"prompt": str, "max_tokens": int, "logprob_tokens": [str]}
Response: {"text": str, "token_logprobs": {str: float}}
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FACT_TOKEN = re.compile(r"fact:([A-Za-z0-9_]+)=([A-Za-z0-9_]+)")
NEED_TOKEN = re.compile(r"need:([A-Za-z0-9_]+)")
# The reply delay stands in for LLM generation time. At 5 ms the client and
# server CPU per call (another ~5 ms on 2 vCPUs) matched the delay, so a slow
# stretch of a shared 2-vCPU host moved the workload's throughput by 30%
# (quartile spread 0.29 over ten seeds); at 15 ms the wait dominates, as it
# does with a real model, and the spread was 0.10.
DELAY_MS = 15.0


def reply_for(payload: dict) -> dict:
    """The reply body for one request.

    The built-in templates end in distinct markers: `RESPONSE :` asks for a
    thought, `QUERY :` for a retrieval query; anything else is answered by
    looking the query's need: keys up in the prompt's fact: tokens. A
    logprob_tokens request also gets log-probabilities for "1"/"0" that say
    whether the prompt holds a fact for every need."""
    prompt = payload["prompt"]
    needs = sorted(set(NEED_TOKEN.findall(prompt)))
    facts: dict[str, str] = {}
    for key, value in FACT_TOKEN.findall(prompt):
        facts.setdefault(key, value)
    tail = prompt.rstrip()
    if tail.endswith("RESPONSE :"):
        text = " ".join(
            ["note"]
            + [f"need:{key}" for key in needs]
            + [f"has:{key}" for key in sorted(facts)]
            + [f"fact:{key}={facts[key]}" for key in sorted(facts)]
        )
    elif tail.endswith("QUERY :"):
        keywords = [f"need:{key}" for key in needs] + [f"has:{key}" for key in sorted(facts)]
        text = " ".join(keywords) or "search"
    elif needs:
        text = " ".join(facts.get(key, "unknown") for key in needs)
    else:
        text = "unknown"
    body: dict = {"text": text}
    tokens = payload.get("logprob_tokens")
    if tokens:
        covered = bool(needs) and all(key in facts for key in needs)
        p_yes, p_no = (0.9, 0.1) if covered else (0.1, 0.9)
        table = {"1": math.log(p_yes), "0": math.log(p_no)}
        body["token_logprobs"] = {tok: table.get(tok, math.log(1e-9)) for tok in tokens}
    return body


class Handler(BaseHTTPRequestHandler):
    delay_s = 0.0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        try:
            payload = json.loads(self.rfile.read(length))
            body = reply_for(payload)
        except (json.JSONDecodeError, KeyError, TypeError):
            self.send_response(400)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        data = json.dumps(body).encode("utf-8")
        time.sleep(self.delay_s)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args):
        pass


def make_server(port: int, delay_ms: float) -> ThreadingHTTPServer:
    handler = type("DelayedHandler", (Handler,), {"delay_s": delay_ms / 1000.0})
    server = ThreadingHTTPServer(("127.0.0.1", port), handler)
    server.daemon_threads = True
    return server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    args = parser.parse_args()
    server = make_server(args.port, DELAY_MS)
    print(f"listening {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
