"""PERF002 fixture: processes spawned only to be awaited.

Lines carrying the expect annotation must be reported; all other lines
must stay clean.
"""


def child(env):
    yield env.timeout(1.0)
    return 1


def bad_awaited_spawns(self, env):
    yield env.process(child(env))  # expect: PERF002
    got = yield self.env.process(child(env), name="c")  # expect: PERF002
    return got


def fine_inline_concurrent_and_detached(self, env):
    got = yield from child(env)
    yield env.event().succeed()
    procs = [env.process(child(env)), env.process(child(env))]
    yield env.all_of(procs)
    env.process(child(env), name="detached")
    proc = env.process(child(env))
    yield env.timeout(0.5)
    return got, proc
