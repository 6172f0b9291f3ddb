"""served_sessions: two clients drive the session server through its
JSON gateway.

The server runs in its own process (``server_boot.py``), so the load
generator does not share its interpreter lock.  Two client threads, one
connection each, loop over the same job: spawn one of a fixed set of
seeded small programs, break, many continue + inspect rounds with a stop
every few dozen instructions, backtrace, detach.
The time goes to stops: the serve queueing/JSON/socket path, nub round
trips and ``CachingMemory`` invalidation, with the engine in tiny bursts.

So that this workload reports ``save_ms``, ``reopen_ms`` and
``triage_per_s`` too, an untraced run splits the load into ``SEGMENTS``
parts.  After each, with the clients idle, a few short jobs record a
session to its first stop, save the recording and reopen it with the
gateway's ``replay`` op, and each recording is triaged through the
gateway.  All of that work happens in the server process, so the load
generator only waits on its sockets, and none of it overlaps the load.
The run's cold starts fall between the segments too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import common
import gen

CLIENTS = 2
DEPTHS = (1, 2, 3, 4)
ROUNDS = 30
#: untraced runs split the load into this many segments, so that the
#: side operations and cold starts between them fall at several moments
#: of the run
SEGMENTS = 6
#: recording jobs after each segment
ARTIFACTS = 4
TAILS = {"first_stop": 85.0, "continue": 90.0, "inspect": 90.0}


class ServedSessions(common.Workload):
    server = None

    def setup(self) -> None:
        self.programs_ = [gen.served_program(self.run.seed, depth,
                                             ROUNDS + 2)
                          for depth in DEPTHS]
        self.start_server(trace=False)
        client = self.client()
        try:
            for program in self.programs_:  # compile each once
                info = client.spawn(source=program["source"])
                client.detach(info["session"], info["token"])
        finally:
            client.close()

    # -- the server process -------------------------------------------------

    def start_server(self, trace: bool) -> None:
        self.stats_path = os.path.join(self.run.tmp, "server-%d.json"
                                       % self.saved)
        self.saved += 1
        self.server = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "server_boot.py"),
             "--trace", "1" if trace else "0", "--out", self.stats_path,
             "--scratch", self.run.tmp],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=common.child_env(), text=True)
        line = self.server.stdout.readline().split()
        if line[:1] != ["READY"]:
            self.stop_server()
            raise RuntimeError("session server did not start: %r" % line)
        self.port = int(line[1])

    def stop_server(self) -> dict:
        server, self.server = self.server, None
        if server is None:
            return {}
        try:
            server.stdin.write("quit\n")
            server.stdin.close()
        except OSError:
            pass  # it already exited; wait() collects it
        server.wait(timeout=120)
        server.stdout.close()
        try:
            with open(self.stats_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    def client(self):
        from repro.serve import GatewayClient
        return GatewayClient("127.0.0.1", self.port, timeout=120.0)

    def trace_on(self, spans) -> None:
        self.stop_server()
        self.start_server(trace=True)

    def trace_off(self) -> None:
        self.traced_out = self.stop_server()

    def close(self) -> None:
        self.stop_server()

    # -- the load ---------------------------------------------------------------

    def measure(self, deadline: float) -> None:
        run = self.run
        run.tails.update(TAILS)
        parts = [common.Run(run.workload, run.seed, run.seconds, run.trace,
                            run.tmp, run.spans) for _ in range(CLIENTS)]
        start = time.perf_counter()
        segments = SEGMENTS if run.side_ops else 1
        for segment in range(1, segments + 1):
            end = start + (deadline - start) * segment / segments
            threads = [threading.Thread(target=self.client_loop,
                                        args=(part, index, end))
                       for index, part in enumerate(parts)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if run.side_ops:
                began = time.perf_counter()
                self.side_phase(run, segment)
                self.between()
                for part in parts:  # idle meanwhile: their clocks skip it
                    part.paused += time.perf_counter() - began
        for part in parts:
            run.merge(part)
        run.peak_rss_mb = common.peak_rss_mb(self.server.pid)

    def client_loop(self, run: common.Run, index: int,
                    deadline: float) -> None:
        """Jobs until ``deadline``; the client takes the programs in
        turn (the two clients out of step), so that every run has the
        same mix of programs."""
        client = self.client()
        try:
            while run.time_left(deadline):
                program = self.programs_[index % len(self.programs_)]
                index += 1
                try:
                    self.job(run, client, program)
                except Exception as err:  # a failed session is data
                    run.fail_with("session", err)
        finally:
            client.close()

    def side_phase(self, run, segment: int) -> None:
        """Recording jobs, each followed by triage of its recording."""
        client = self.client()
        try:
            for index in range(ARTIFACTS):
                program = self.programs_[index % len(self.programs_)]
                name = "served-%d-%d" % (segment, index)
                path = os.path.join(run.tmp, name + ".ldbrec")
                try:
                    self.artifact_job(run, client, program, path)
                except Exception as err:  # a failed job is data
                    run.fail_with("recording job", err)
                    continue
                self.triage(run, client, {path: program["family"]}, name)
        finally:
            client.close()

    def job(self, run, client, program) -> None:
        stops = program["stops"]
        started = run.clock()

        def command(verb, args=None):
            # client-observed time per command, beside the server's own
            begun = time.perf_counter()
            answer = client.command(sid, token, verb, args)
            run.extra["cmd_s"] = run.extra.get("cmd_s", 0.0) + (
                time.perf_counter() - begun)
            run.extra["cmd_n"] = run.extra.get("cmd_n", 0) + 1
            return answer

        with run.op("first_stop", requests=3) as op:
            info = client.spawn(source=program["source"])
            sid, token = info["session"], info["token"]
            run.samples["spawn"].append(
                ((run.clock() - started) * 1e3, None))
            op["tag"] = "session-" + sid
            command("break", {"at": "tick"})
            event = command("continue")
        tag = op["tag"]
        self.check_event(run, event, stops[0])
        icount = command("fault")["icount"]
        run.answered(1)
        continued = []
        for index, stop in enumerate(stops[:ROUNDS]):
            if index:
                with run.op("continue", tag=tag):
                    event = command("continue")
                continued.append(run.last_ms("continue") / 1e3)
                self.check_event(run, event, stop)
            expr, value = common.expr_for(stop)
            names = list(stop[2])
            with run.op("inspect", requests=2 + len(names), tag=tag):
                frames = command("backtrace")["frames"]
                printed = {name: command("print", {"expr": name})["text"]
                           for name in names}
                answer = command("print", {"expr": expr})["value"]
            run.expect([frame["proc"] for frame in frames], stop[3],
                       "served backtrace")
            run.expect(printed, stop[2], "served values")
            run.expect(answer, value, "served expression")
        # the session's instructions over its continues, one rate per
        # continue (the stops are evenly spaced)
        each = (command("fault")["icount"] - icount) / len(continued)
        for seconds in continued:
            run.ran(None, each, seconds)
        run.answered(1)
        with run.op("detach", tag=tag):
            client.detach(sid, token)
        run.session_done(started, None)

    def check_event(self, run, event, stop) -> None:
        where = event.get("where") or {}
        run.expect((event.get("event"), where.get("proc"),
                    where.get("line")), ("breakpoint", stop[0], stop[1]),
                   "served stop")

    def artifact_job(self, run, client, program, path) -> None:
        """Record a session to its first stop, save the recording, and
        reopen it as a ``replay`` session; all of it server-side."""
        stop = program["stops"][0]
        info = client.spawn(source=program["source"], record=path)
        sid, token = info["session"], info["token"]
        client.command(sid, token, "break", {"at": "tick"})
        self.check_event(run, client.command(sid, token, "continue"), stop)
        with run.op("save", requests=0):
            client.command(sid, token, "record_save")
        client.detach(sid, token)
        with run.op("reopen", requests=0):
            info = client.replay(path=path)
            sid, token = info["session"], info["token"]
            frames = client.command(sid, token, "backtrace")["frames"]
        client.detach(sid, token)
        run.expect([frame["proc"] for frame in frames], stop[3],
                   "replayed backtrace")

    def triage(self, run, client, families, name) -> None:
        """One gateway ``triage`` batch over a folder of recordings;
        ``run.check_triage`` checks the groups at the end."""
        folder = os.path.join(run.tmp, name)
        os.makedirs(folder)
        moved = {}
        for path, family in families.items():
            moved[os.path.join(folder, os.path.basename(path))] = family
            os.replace(path, os.path.join(folder, os.path.basename(path)))
        run.attempted += 1
        started = time.perf_counter()
        report = client.triage(folder, workers=common.TRIAGE_WORKERS)
        elapsed = time.perf_counter() - started
        run.triaged(moved, {path: group["stack_hash"]
                            for group in report["groups"]
                            for path in group["paths"]},
                    len(report["errors"]), elapsed)

    def programs(self):
        from repro.cc import driver
        return [("rmips", driver.compile_and_link(
            {"main.c": program["source"]}, "rmips", debug=True))
            for program in self.programs_]

    def cold_starts(self, count: int) -> None:
        program = self.programs_[-1]
        image = os.path.join(self.run.tmp, "served.img")
        if count and not os.path.exists(image):
            common.save_image(self.programs()[-1][1], image)
        for _ in range(count):
            common.cold_start(self.run, image, "tick", program["stops"][0])
