"""Run toricarr commands the way a user does: one process per command.

Each command starts without ``--window``.  When it exits 2 the runner
retries with the window that stderr suggests, up to ``WINDOW_CAP``.  An
``Answer`` records every attempt, the window that produced the answer,
the seconds spent in exit-2 attempts and the largest max-RSS of any
attempt's process.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time

WINDOW_CAP = 6
SUGGESTION = re.compile(r"try again with --window (\d+)")


class Attempt:
    __slots__ = ("window", "code", "seconds", "maxrss_kb", "stdout", "stderr")

    def __init__(self, window, code, seconds, maxrss_kb, stdout, stderr):
        self.window = window
        self.code = code
        self.seconds = seconds
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr


class Answer:
    """All attempts of one command on one arrangement (at least one)."""

    def __init__(self, attempts, error=None):
        self.attempts = attempts
        self.report = None
        last = attempts[-1]
        if error is None and last.code == 0:
            try:
                self.report = json.loads(last.stdout)
            except ValueError:
                error = "stdout is not JSON"
        elif error is None:
            error = "exit %s: %s" % ("killed" if last.code is None else last.code,
                                     last.stderr.strip()[-200:])
        self.error = error          # why there is no good answer, or None

    @property
    def ok(self):
        return self.error is None

    @property
    def seconds(self):
        return sum(a.seconds for a in self.attempts)

    @property
    def retry_seconds(self):
        return sum(a.seconds for a in self.attempts if a.code == 2)

    @property
    def window(self):
        return self.attempts[-1].window

    @property
    def maxrss_kb(self):
        return max(a.maxrss_kb for a in self.attempts)


class Runner:
    """Launches one toricarr process per attempt from a checkout root.

    ``prefix`` is the program and arguments placed before the toricarr
    argument list: ``[python, -m, toricarr]`` for untraced runs, or
    traced_cli.py for traced runs.
    """

    def __init__(self, root, timeout, deadline=None):
        self.root = root
        self.timeout = timeout
        self.deadline = deadline    # time.monotonic() after which nothing runs
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        # the warm-up call writes bytecode that every later call reads
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.plain = [sys.executable, "-m", "toricarr"]

    def invoke(self, argv, window, prefix=None):
        """One process; returns an Attempt (code None when killed)."""
        if window is not None:
            argv = argv + ["--window", str(window)]
        limit = self.timeout
        if self.deadline is not None:
            limit = min(limit, self.deadline - time.monotonic())
            if limit <= 0:
                return Attempt(window, None, 0.0, 0, "", "deadline reached")
        started = time.perf_counter()
        proc = subprocess.Popen((prefix or self.plain) + argv, cwd=self.root,
                                env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out_chunks, err_chunks = [], []
        readers = [threading.Thread(target=_drain, args=(proc.stdout, out_chunks)),
                   threading.Thread(target=_drain, args=(proc.stderr, err_chunks))]
        for t in readers:
            t.start()
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        for t in readers:
            t.join()
        code = proc.returncode
        if code < 0:
            code = None             # killed: timed out or crashed by signal
        return Attempt(window, code, seconds, usage.ru_maxrss,
                       b"".join(out_chunks).decode(), b"".join(err_chunks).decode())

    def answer(self, command, path, prefix=None):
        """Run one command to an answer, following window suggestions."""
        argv = command.split() + [path, "--format", "json"]
        attempts = []
        window = None
        while True:
            att = self.invoke(argv, window, prefix)
            attempts.append(att)
            if att.code != 2:
                break
            m = SUGGESTION.search(att.stderr)
            if m is None:
                return Answer(attempts, "exit 2 without a suggestion")
            window = int(m.group(1))
            if window > WINDOW_CAP:
                return Answer(attempts, "window cap %d exceeded" % WINDOW_CAP)
        return Answer(attempts)


def _drain(stream, chunks):
    with stream:
        for chunk in iter(lambda: stream.read(65536), b""):
            chunks.append(chunk)
