#!/usr/bin/env python3
"""End-to-end crash-safety smoke for `mabfuzz_cli serve`.

Drives the campaign service daemon over its Unix socket the way an
operator would — and the way no unit test can: with a real SIGKILL.

  1. Reference: serve, submit four campaigns, drain, shutdown. Record the
     artifact bytes of an uninterrupted run.
  2. Victim: serve with periodic checkpointing, submit the same four
     campaigns, wait until each has streamed a `checkpoint` event, then
     SIGKILL the server mid-run.
  3. Recovery: start a fresh server, `resume-checkpoint` every job from
     the files the dead server left behind, drain, shutdown.

The four jobs cover the policies whose state a resume restores: the
MABFuzz scheduler (ucb), TheHuzz, the reuse fuzzer with a shared corpus
(corpus-out), and epsilon-greedy with the adaptive operator and
seed-length bandits. Validated along the way: every stdout line of every
server is one parseable JSON event object, replies follow the ok/error
wire protocol, and the recovered run's artifacts (JSON, CSV, and the
reuse job's corpus file with its manifest) are byte-identical to the
reference — the determinism contract surviving a kill -9. During the reference run a
second connection floods 1 MiB without a newline: it must get exactly
one over-long-line error and be disconnected while the first client keeps
being served. The same flood on stdin must be skipped through its newline.
The reference run's control connection also submits a job no campaign can
run (`arms=0`), a job whose artifact prefix lies in a missing directory
(`artifact-out=<workdir>/no-such-dir/x`) and a job whose corpus store
could never be loaded back (`corpus-cap=2000000` with a `corpus-out`):
each must get exactly one `error:` reply naming the offending key (`arms`,
`artifact-out`, `corpus-cap`), none of them may appear in the status or
the events, and the daemon must carry on serving the accepted jobs.

Usage: tools/service_smoke.py [--cli PATH] [--workdir DIR]
"""

import argparse
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time

JOBS = {
    # name -> (campaign pairs, max_tests). Different policies and cores so
    # the jobs exercise different code paths concurrently.
    "smoke-ucb": ("fuzzer=ucb core=rocket tests=20000 seed=7", 20000),
    "smoke-huzz": ("fuzzer=thehuzz core=cva6 tests=15000 seed=3", 15000),
    "smoke-reuse": ("fuzzer=reuse core=boom tests=15000 seed=5 "
                    "corpus-out=smoke-reuse.corpus", 15000),
    "smoke-adaptive": ("fuzzer=epsilon-greedy core=cva6 adaptive-ops=true "
                       "adaptive-length=true tests=15000 seed=9", 15000),
}
# Corpus files the jobs write (relative to the server's cwd); compared
# byte for byte like the JSON/CSV artifacts, manifest included.
CORPORA = ["smoke-reuse.corpus", "smoke-reuse.corpus.json"]
CHECKPOINT_EVERY = 1000
DEADLINE = 120.0  # seconds; every wait below shares this cap
MAX_LINE = 64 * 1024  # the serve loop's cap on an unterminated line
FLOOD = b"x" * (1 << 20)  # 1 MiB, no newline
LINE_TOO_LONG = f"error: command line longer than {MAX_LINE} bytes"
# Jobs the reference run must see refused: name -> the key its one error
# reply must name.
REFUSED = {"smoke-bad": "arms", "smoke-no-dir": "artifact-out",
           "smoke-cap": "corpus-cap"}


def fail(message):
    print(f"service_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class ServeClient:
    """Line-oriented client for the serve control socket."""

    def __init__(self, path, deadline):
        self.sock = None
        while self.sock is None:
            try:
                self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self.sock.connect(str(path))
            except OSError:
                self.sock = None
                if time.monotonic() > deadline:
                    fail(f"socket {path} never became connectable")
                time.sleep(0.05)
        self.sock.settimeout(DEADLINE)
        self.buffer = b""

    def command(self, line):
        """Sends one command, returns its one reply line."""
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(4096)
            if not chunk:
                fail(f"server hung up mid-reply to {line!r}")
            self.buffer += chunk
        reply, _, self.buffer = self.buffer.partition(b"\n")
        return reply.decode()

    def expect_ok(self, line):
        reply = self.command(line)
        if not reply.startswith("ok"):
            fail(f"command {line!r} got {reply!r}")
        return reply

    def close(self):
        self.sock.close()


def start_server(cli, events_path, sock_path, checkpoint_dir=None):
    argv = [str(cli), "serve", "--socket", str(sock_path), "--slice", "100",
            "--service-workers", "2"]
    if checkpoint_dir is not None:
        argv += ["--checkpoint-dir", str(checkpoint_dir),
                 "--checkpoint-every", str(CHECKPOINT_EVERY)]
    events = open(events_path, "wb")
    return subprocess.Popen(argv, stdout=events, stderr=subprocess.PIPE), events


def parse_events(events_path, context):
    """Every stdout line must be one JSON object with an `event` key."""
    events = []
    for index, line in enumerate(pathlib.Path(events_path).read_bytes().splitlines()):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as error:
            fail(f"{context}: stdout line {index + 1} is not JSON "
                 f"({error}): {line[:120]!r}")
        if not isinstance(doc, dict) or "event" not in doc:
            fail(f"{context}: line {index + 1} lacks an `event` key: {doc}")
        events.append(doc)
    return events


def submit_all(client):
    for name, (pairs, _) in JOBS.items():
        reply = client.expect_ok(
            f"submit tenant=smoke job={name} artifact-out={name} {pairs}")
        if reply != f"ok submitted {name}":
            fail(f"unexpected submit reply {reply!r}")


def check_bad_submits_refused(client, workdir):
    """A config no campaign can run, an artifact prefix in a missing
    directory and a corpus cap above the bound a store loads with are each
    refused with one error reply that names the offending key; the daemon
    keeps serving (the status that follows proves no second reply line and
    no lost job)."""
    pairs = {
        "smoke-bad": "artifact-out=smoke-bad fuzzer=ucb core=rocket "
                     "tests=100 arms=0",
        "smoke-no-dir": f"artifact-out={workdir / 'no-such-dir' / 'x'} "
                        "fuzzer=ucb core=rocket tests=100",
        "smoke-cap": "artifact-out=smoke-cap fuzzer=ucb core=rocket "
                     "tests=100 corpus-cap=2000000 corpus-out=smoke-cap.corpus",
    }
    for name, key in REFUSED.items():
        reply = client.command(f"submit tenant=smoke job={name} {pairs[name]}")
        if not reply.startswith("error:") or key not in reply:
            fail(f"{name} submit got {reply!r}, expected an error naming "
                 f"{key!r}")


def check_socket_line_cap(sock_path, deadline):
    """A connection that never sends a newline gets one error reply and is
    closed; the daemon never buffers the flood."""
    flood = ServeClient(sock_path, deadline)
    try:
        flood.sock.sendall(FLOOD)
    except (BrokenPipeError, ConnectionResetError):
        pass  # the server hung up mid-flood, as it should
    flood.sock.settimeout(10.0)
    replies = b""
    while True:
        try:
            chunk = flood.sock.recv(4096)
        except ConnectionResetError:
            break
        except socket.timeout:
            fail("server kept the flooding connection open")
        if not chunk:
            break
        replies += chunk
    flood.close()
    if replies != (LINE_TOO_LONG + "\n").encode():
        fail(f"1 MiB unterminated line got {replies[:200]!r}, "
             f"expected one {LINE_TOO_LONG!r}")


def check_stdin_line_cap(cli):
    """stdin mode answers the flood once, then skips to the next newline."""
    result = subprocess.run(
        [str(cli), "serve"], input=FLOOD + b" tail\nstatus\nshutdown\n",
        capture_output=True, timeout=DEADLINE)
    replies = result.stderr.decode().splitlines()
    if result.returncode != 0 or replies != [LINE_TOO_LONG, "ok",
                                             "ok shutting down"]:
        fail(f"stdin flood: exit {result.returncode}, replies {replies!r}")


def read_artifacts(directory):
    files = [name + ext for name in JOBS for ext in (".json", ".csv")]
    out = {}
    for file in files + CORPORA:
        path = pathlib.Path(directory) / file
        if not path.is_file():
            fail(f"missing artifact {path}")
        out[file] = path.read_bytes()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", default="examples/example_mabfuzz_cli",
                        help="path to the built mabfuzz CLI")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    args = parser.parse_args()

    cli = pathlib.Path(args.cli).resolve()
    if not cli.is_file():
        fail(f"CLI not found at {cli} (build it, or pass --cli)")
    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="mabfuzz-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE

    # --- 1. uninterrupted reference run ---------------------------------------
    ref_dir = workdir / "reference"
    ref_dir.mkdir(exist_ok=True)
    # The server resolves relative artifact-out prefixes against its own
    # cwd, so move there before spawning it.
    os.chdir(ref_dir)
    server, events_file = start_server(cli, ref_dir / "events.jsonl",
                                       ref_dir / "ctl.sock")
    client = ServeClient(ref_dir / "ctl.sock", deadline)
    submit_all(client)
    check_bad_submits_refused(client, workdir)
    check_socket_line_cap(ref_dir / "ctl.sock", deadline)
    status = client.expect_ok("status")
    if not all(f"{name}:" in status for name in JOBS):
        fail(f"status after the flood lost a job: {status!r}")
    for name in REFUSED:
        if f"{name}:" in status:
            fail(f"refused job {name} shows up in status: {status!r}")
    client.expect_ok("drain")
    status = client.expect_ok("status")
    for name, (_, tests) in JOBS.items():
        if f"{name}:done:{tests}/{tests}" not in status:
            fail(f"reference status missing completed {name}: {status!r}")
    client.expect_ok("shutdown")
    client.close()
    if server.wait(timeout=DEADLINE) != 0:
        fail(f"reference server exited {server.returncode}")
    events_file.close()
    ref_events = parse_events(ref_dir / "events.jsonl", "reference")
    done = [e for e in ref_events if e["event"] == "done"]
    if {e["job"] for e in done} != set(JOBS):
        fail(f"reference run missing done events: {done}")
    for name in REFUSED:
        if any(e.get("job") == name for e in ref_events):
            fail(f"refused job {name} emitted events")
    reference = read_artifacts(ref_dir)
    print(f"service_smoke: reference OK ({len(ref_events)} events, arms=0, "
          "missing artifact directory, oversized corpus-cap and over-long "
          "line refused)")
    check_stdin_line_cap(cli)
    print("service_smoke: stdin over-long line skipped")

    # --- 2. victim run, SIGKILLed mid-campaign --------------------------------
    kill_dir = workdir / "victim"
    kill_dir.mkdir(exist_ok=True)
    ckpt_dir = kill_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    os.chdir(kill_dir)
    server, events_file = start_server(cli, kill_dir / "events.jsonl",
                                       kill_dir / "ctl.sock", ckpt_dir)
    client = ServeClient(kill_dir / "ctl.sock", deadline)
    submit_all(client)
    # Wait until every job has a checkpoint on disk but none has finished.
    while True:
        events = parse_events(kill_dir / "events.jsonl", "victim")
        checkpointed = {e["job"] for e in events if e["event"] == "checkpoint"}
        finished = {e["job"] for e in events if e["event"] == "done"}
        if finished:
            fail(f"jobs finished before the kill landed: {finished} "
                 "(raise JOBS test counts)")
        if checkpointed == set(JOBS):
            break
        if time.monotonic() > deadline:
            fail(f"timed out waiting for checkpoints (have {checkpointed})")
        time.sleep(0.02)
    server.send_signal(signal.SIGKILL)
    server.wait()
    events_file.close()
    client.close()
    parse_events(kill_dir / "events.jsonl", "victim post-kill")  # still valid JSON
    checkpoints = {name: ckpt_dir / f"{name}.ckpt" for name in JOBS}
    for name, path in checkpoints.items():
        if not path.is_file():
            fail(f"no checkpoint file for {name} after SIGKILL")
    print(f"service_smoke: victim SIGKILLed with all {len(JOBS)} jobs "
          "checkpointed")

    # --- 3. recovery: resume every checkpoint in a fresh server --------------
    server, events_file = start_server(cli, kill_dir / "recovery.jsonl",
                                       kill_dir / "ctl.sock", ckpt_dir)
    client = ServeClient(kill_dir / "ctl.sock", deadline)
    for name, path in checkpoints.items():
        reply = client.expect_ok(f"resume-checkpoint {path}")
        if reply != f"ok resumed {name}":
            fail(f"unexpected resume reply {reply!r}")
    client.expect_ok("drain")
    status = client.expect_ok("status")
    for name, (_, tests) in JOBS.items():
        if f"{name}:done:{tests}/{tests}" not in status:
            fail(f"recovered status missing completed {name}: {status!r}")
    client.expect_ok("shutdown")
    client.close()
    if server.wait(timeout=DEADLINE) != 0:
        fail(f"recovery server exited {server.returncode}")
    events_file.close()
    recovery_events = parse_events(kill_dir / "recovery.jsonl", "recovery")
    if {e["job"] for e in recovery_events if e["event"] == "done"} != set(JOBS):
        fail("recovery run did not finish every job")
    for name, path in checkpoints.items():
        if path.exists():
            fail(f"settled job {name} left its checkpoint behind: {path}")

    # --- 4. the contract: recovered artifacts == reference bytes --------------
    recovered = read_artifacts(kill_dir)
    for key, expected in reference.items():
        if recovered[key] != expected:
            fail(f"artifact {key} differs between the reference run and the "
                 "SIGKILL+resume run — checkpoint recovery is not exact")
    print(f"service_smoke: PASS — {len(reference)} artifacts byte-identical "
          "across SIGKILL + resume")


if __name__ == "__main__":
    main()
