"""Crash scheduling for tests: each test picks the ordinal of the durable
write it crashes before from the topology's write record, by a rule such
as "the second replace of db.wal", as the run makes its writes."""

from fidstore.integrity_dbms import DB_COMMIT
from fidstore.zone_sim import CrashPoint, CrashTarget


def crash_at(topo, match, *, nth: int = 1, after: bool = False,
             target: CrashTarget = CrashTarget.BOTH, torn_bytes: int = 0,
             before=None) -> list:
    """Arms topo and schedules a crash of target just before the nth write
    from now on that match(write) accepts, or, with after, just before the
    write that follows it, so right after it. match sees every write until
    the nth; before(), if given, runs just before the crash. Returns a list
    that gets the CrashPoint once it is picked."""
    chosen = []
    count = 0

    def pick(write) -> None:
        nonlocal count
        if not chosen and match(write):
            count += 1
            if count == nth:
                chosen.append(CrashPoint(write.ordinal + after, target, torn_bytes))
                topo.inject_crash(chosen[0])
        if before is not None and chosen and write.ordinal == chosen[0].ordinal:
            before()

    topo.record_writes()
    topo.on_write = pick
    return chosen


def writes(method: str, name: str | None = None):
    """A rule for crash_at: a write by method, to the file name if given (a
    name ending in "*" is a prefix)."""
    def match(write) -> bool:
        if write.method != method:
            return False
        if name is None:
            return True
        if name.endswith("*"):
            return write.name.startswith(name[:-1])
        return write.name == name
    return match


def commit_sync(write) -> bool:
    """A rule for crash_at: the sync of an engine DB_COMMIT record."""
    return write.method == "sync" and write.zone == "integrity" and write.kind == DB_COMMIT


def first_slot_map():
    """A rule for crash_at: a privacy checkpoint's first slot map, the
    write right after its seals."""
    last = [None]

    def match(write) -> bool:
        first = (write.method == "put_atomic" and write.name.startswith("part-")
                 and not (last[0] is not None and last[0].name.startswith("part-")))
        last[0] = write
        return first
    return match


# The rules that replace the named crash points, by the point's old name:
# a function that makes the rule (fresh for each run), and whether the crash
# comes right after the write the rule matches.
POINTS = {
    "before-db-commit": (lambda: commit_sync, False),
    "after-db-commit": (lambda: commit_sync, True),
    "privacy-checkpoint-after-seal": (first_slot_map, False),
    "privacy-checkpoint-before-truncate": (lambda: writes("replace", "store.wal"), False),
    "privacy-checkpoint-after-truncate": (lambda: writes("replace", "store.wal"), True),
    "integrity-checkpoint-before-truncate": (lambda: writes("replace", "db.wal"), False),
    "integrity-checkpoint-after-truncate": (lambda: writes("replace", "db.wal"), True),
}


def crash_at_point(topo, name: str, **kwargs) -> list:
    """crash_at by the rule that replaces the crash point named name."""
    make, after = POINTS[name]
    return crash_at(topo, make(), after=after, **kwargs)


def crash_one(seed: int, spec, cache, points: list) -> dict:
    """One crash-matrix row from scratch: bench.MatrixRun with points
    scheduled, stopped by the last of them to fire (a point past the run's
    last write never fires), then its crash_row for the last point. After
    an earlier point, as when a privacy-only crash is followed by one
    inside its recovery, recover_all runs, which the next point may crash
    again; the rows are checked against the row states at the first
    crash."""
    from fidstore.bench import MatrixRun, row_states
    from fidstore.errors import Unavailable, ZoneCrashed

    run = MatrixRun(seed, spec, cache)
    for point in points:
        run.topo.inject_crash(point)
    try:
        run.run()
    except (ZoneCrashed, Unavailable):
        pass
    if len(points) > 1 and run.topo.fired is not None and run.before is None:
        run.before = row_states(run.topo)
    for _ in points[1:]:
        try:
            run.topo.recover_all()
        except (ZoneCrashed, Unavailable):
            pass
    return run.crash_row(points[-1])
