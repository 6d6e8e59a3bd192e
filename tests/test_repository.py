"""Tests for the site repository's four databases."""

import json
from functools import partial

import pytest

from repro.repository import (
    ResourcePerformanceDB,
    SiteRepository,
    Table,
    TaskConstraintsDB,
    TaskPerformanceDB,
    TenantRecord,
    UserAccountsDB,
    composite_key,
)
from repro.resources import HostSpec
from repro.util.errors import (
    AuthenticationError,
    NotRegisteredError,
    RepositoryError,
)


class TestTable:
    def test_put_get_delete(self):
        t = Table("t")
        t.put("k", {"v": 1})
        assert t.get("k") == {"v": 1}
        assert "k" in t and len(t) == 1
        t.delete("k")
        assert "k" not in t

    def test_get_missing_raises(self):
        with pytest.raises(NotRegisteredError):
            Table("t").get("nope")

    def test_delete_missing_raises(self):
        with pytest.raises(NotRegisteredError):
            Table("t").delete("nope")

    def test_get_or_default(self):
        assert Table("t").get_or("nope", 42) == 42

    def test_save_load_roundtrip(self, tmp_path):
        t = Table("mytable")
        t.put("a", [1, 2, 3])
        t.put("b", {"x": "y"})
        t.save(tmp_path / "t.json")
        t2 = Table.load(tmp_path / "t.json")
        assert t2.name == "mytable"
        assert t2.get("a") == [1, 2, 3]
        assert t2.get("b") == {"x": "y"}

    def test_save_non_serialisable_raises(self, tmp_path):
        t = Table("t")
        t.put("k", object())
        with pytest.raises(RepositoryError):
            t.save(tmp_path / "t.json")

    def test_load_garbage_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json at all {")
        with pytest.raises(RepositoryError):
            Table.load(p)

    def test_load_wrong_shape_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"something": "else"}')
        with pytest.raises(RepositoryError):
            Table.load(p)

    def test_composite_key(self):
        assert composite_key("lu", "s1/h1") == "lu|s1/h1"

    def test_composite_key_rejects_separator(self):
        with pytest.raises(RepositoryError):
            composite_key("a|b", "c")


class TestUserAccounts:
    def test_add_and_authenticate(self):
        db = UserAccountsDB()
        acct = db.add_user("haluk", "secret", priority=7,
                           access_domain="multi-site")
        assert acct.user_id == 1
        assert acct.priority == 7
        got = db.authenticate("haluk", "secret")
        assert got.user_name == "haluk"

    def test_wrong_password_rejected(self):
        db = UserAccountsDB()
        db.add_user("u", "right")
        with pytest.raises(AuthenticationError):
            db.authenticate("u", "wrong")

    def test_unknown_user_rejected_same_message(self):
        db = UserAccountsDB()
        db.add_user("u", "pw")
        try:
            db.authenticate("ghost", "pw")
        except AuthenticationError as e1:
            try:
                db.authenticate("u", "bad")
            except AuthenticationError as e2:
                assert str(e1) == str(e2)  # no user-existence oracle

    def test_password_not_stored_plaintext(self):
        db = UserAccountsDB()
        acct = db.add_user("u", "topsecret")
        assert "topsecret" not in acct.password_hash
        assert "topsecret" not in acct.password_salt

    def test_duplicate_user_rejected(self):
        db = UserAccountsDB()
        db.add_user("u", "pw")
        with pytest.raises(RepositoryError):
            db.add_user("u", "pw2")

    def test_bad_domain_and_priority(self):
        db = UserAccountsDB()
        with pytest.raises(RepositoryError):
            db.add_user("u", "pw", access_domain="galactic")
        with pytest.raises(RepositoryError):
            db.add_user("u2", "pw", priority=11)

    def test_user_ids_increment(self):
        db = UserAccountsDB()
        a = db.add_user("a", "x")
        b = db.add_user("b", "x")
        assert (a.user_id, b.user_id) == (1, 2)

    def test_remove_user(self):
        db = UserAccountsDB()
        db.add_user("u", "pw")
        db.remove_user("u")
        assert "u" not in db

    def test_save_load_preserves_auth(self, tmp_path):
        db = UserAccountsDB()
        db.add_user("u", "pw")
        db.save(tmp_path / "users.json")
        db2 = UserAccountsDB.load(tmp_path / "users.json")
        assert db2.authenticate("u", "pw").user_name == "u"
        # new ids continue after the loaded maximum
        assert db2.add_user("v", "pw").user_id == 2


class TestResourcePerformance:
    def test_register_and_get(self):
        db = ResourcePerformanceDB()
        rec = db.register_host("s1", HostSpec(name="h1", memory_mb=256))
        assert rec.address == "s1/h1"
        assert db.get("s1/h1").total_memory_mb == 256
        assert db.get("s1/h1").available_memory_mb == 256

    def test_update_dynamic(self):
        db = ResourcePerformanceDB()
        db.register_host("s1", HostSpec(name="h1"))
        db.update_dynamic("s1/h1", cpu_load=0.8, available_memory_mb=64,
                          time=12.0)
        rec = db.get("s1/h1")
        assert rec.cpu_load == 0.8
        assert rec.last_update == 12.0
        assert rec.load_window == [0.8]

    def test_load_window_bounded(self):
        db = ResourcePerformanceDB(window=3)
        db.register_host("s1", HostSpec(name="h1"))
        for i in range(10):
            db.update_dynamic("s1/h1", float(i), 10.0, time=float(i))
        rec = db.get("s1/h1")
        assert rec.load_window == [7.0, 8.0, 9.0]
        assert rec.load_window_times == [7.0, 8.0, 9.0]

    def test_mark_down_up(self):
        db = ResourcePerformanceDB()
        db.register_host("s1", HostSpec(name="h1"))
        db.mark_down("s1/h1", time=5.0)
        assert db.get("s1/h1").status == "down"
        assert db.hosts_at("s1") == []
        assert len(db.all_records()) == 1
        db.mark_up("s1/h1", time=9.0)
        assert db.get("s1/h1").status == "up"

    def test_hosts_at_filters_site(self):
        db = ResourcePerformanceDB()
        db.register_host("s1", HostSpec(name="h1"))
        db.register_host("s2", HostSpec(name="h1"))
        assert [r.address for r in db.hosts_at("s1")] == ["s1/h1"]

    def test_unregister(self):
        db = ResourcePerformanceDB()
        db.register_host("s1", HostSpec(name="h1"))
        db.unregister_host("s1/h1")
        assert "s1/h1" not in db
        with pytest.raises(NotRegisteredError):
            db.unregister_host("s1/h1")

    def test_save_load(self, tmp_path):
        db = ResourcePerformanceDB()
        db.register_host("s1", HostSpec(name="h1", arch="x86", os="linux"))
        db.update_dynamic("s1/h1", 0.5, 100, time=3.0)
        db.save(tmp_path / "r.json")
        db2 = ResourcePerformanceDB.load(tmp_path / "r.json")
        rec = db2.get("s1/h1")
        assert rec.arch == "x86" and rec.cpu_load == 0.5


class TestTaskPerformance:
    def test_register_and_get(self):
        db = TaskPerformanceDB()
        db.register_task("lu", base_time_s=2.0, computation_size=3.0,
                         communication_size=8.0, memory_mb=16.0)
        rec = db.get("lu")
        assert rec.base_time_s == 2.0
        assert "lu" in db

    def test_duplicate_rejected(self):
        db = TaskPerformanceDB()
        db.register_task("lu", 1.0)
        with pytest.raises(RepositoryError):
            db.register_task("lu", 1.0)

    def test_nonpositive_base_time_rejected(self):
        with pytest.raises(RepositoryError):
            TaskPerformanceDB().register_task("lu", 0.0)

    def test_weights(self):
        db = TaskPerformanceDB()
        db.register_task("lu", 1.0)
        db.set_weight("lu", "s1/h1", 1.5)
        assert db.weight("lu", "s1/h1") == 1.5
        assert db.weight("lu", "s1/h2", default=2.0) == 2.0
        with pytest.raises(NotRegisteredError):
            db.weight("lu", "s1/h2")

    def test_weight_requires_registered_task(self):
        db = TaskPerformanceDB()
        with pytest.raises(NotRegisteredError):
            db.set_weight("ghost", "s1/h1", 1.0)

    def test_nonpositive_weight_rejected(self):
        db = TaskPerformanceDB()
        db.register_task("lu", 1.0)
        with pytest.raises(RepositoryError):
            db.set_weight("lu", "s1/h1", 0.0)

    def test_record_execution_seeds_weight(self):
        db = TaskPerformanceDB()
        db.register_task("lu", base_time_s=2.0)
        # dedicated run of size-3 input took 12s -> weight = 12/(2*3) = 2.0
        db.record_execution("lu", "s1/h1", input_size=3.0, elapsed_s=14.0,
                            time=1.0, dedicated_elapsed_s=12.0)
        assert db.weight("lu", "s1/h1") == pytest.approx(2.0)

    def test_record_execution_ewma_refinement(self):
        db = TaskPerformanceDB()
        db.register_task("lu", base_time_s=1.0)
        db.set_weight("lu", "s1/h1", 1.0)
        db.record_execution("lu", "s1/h1", input_size=1.0, elapsed_s=3.0,
                            time=1.0, dedicated_elapsed_s=3.0)
        # EWMA: 0.7*1.0 + 0.3*3.0 = 1.6
        assert db.weight("lu", "s1/h1") == pytest.approx(1.6)

    def test_history_filtering(self):
        db = TaskPerformanceDB()
        db.register_task("lu", 1.0)
        db.record_execution("lu", "s1/h1", 1.0, 2.0, time=0.0)
        db.record_execution("lu", "s1/h2", 1.0, 3.0, time=1.0)
        assert len(db.history("lu")) == 2
        assert [s.host for s in db.history("lu", host="s1/h2")] == ["s1/h2"]

    def test_save_load(self, tmp_path):
        db = TaskPerformanceDB()
        db.register_task("lu", 2.0, memory_mb=32)
        db.set_weight("lu", "s1/h1", 1.2)
        db.record_execution("lu", "s1/h1", 1.0, 2.5, time=0.5)
        db.save(tmp_path / "t.json")
        db2 = TaskPerformanceDB.load(tmp_path / "t.json")
        assert db2.get("lu").memory_mb == 32
        assert db2.weight("lu", "s1/h1") == 1.2
        assert len(db2.history("lu")) == 1


class TestTaskConstraints:
    def test_register_and_query(self):
        db = TaskConstraintsDB()
        db.register_executable("lu", "s1/h1", "/usr/vdce/bin/lu")
        assert db.is_runnable_on("lu", "s1/h1")
        assert not db.is_runnable_on("lu", "s1/h2")
        assert db.executable_path("lu", "s1/h1") == "/usr/vdce/bin/lu"
        assert db.hosts_with("lu") == {"s1/h1"}

    def test_missing_executable_raises(self):
        db = TaskConstraintsDB()
        with pytest.raises(NotRegisteredError):
            db.executable_path("lu", "s1/h1")

    def test_unregister(self):
        db = TaskConstraintsDB()
        db.register_executable("lu", "s1/h1", "/bin/lu")
        db.unregister_executable("lu", "s1/h1")
        assert db.hosts_with("lu") == set()

    def test_tasks_on_host(self):
        db = TaskConstraintsDB()
        db.register_executable("lu", "s1/h1", "/bin/lu")
        db.register_executable("fft", "s1/h1", "/bin/fft")
        db.register_executable("fft", "s1/h2", "/bin/fft")
        assert db.tasks_on("s1/h1") == {"lu", "fft"}
        assert db.tasks_on("s1/h2") == {"fft"}

    def test_save_load(self, tmp_path):
        db = TaskConstraintsDB()
        db.register_executable("lu", "s1/h1", "/bin/lu")
        db.save(tmp_path / "c.json")
        db2 = TaskConstraintsDB.load(tmp_path / "c.json")
        assert db2.hosts_with("lu") == {"s1/h1"}


class TestSiteRepository:
    def test_bundles_four_databases(self):
        repo = SiteRepository("s1")
        assert repo.site == "s1"
        repo.user_accounts.add_user("u", "pw")
        repo.resource_performance.register_host("s1", HostSpec(name="h1"))
        repo.task_performance.register_task("lu", 1.0)
        repo.task_constraints.register_executable("lu", "s1/h1", "/bin/lu")

    def test_save_load_roundtrip(self, tmp_path):
        repo = SiteRepository("s1")
        repo.user_accounts.add_user("u", "pw")
        repo.resource_performance.register_host("s1", HostSpec(name="h1"))
        repo.task_performance.register_task("lu", 1.0)
        repo.task_constraints.register_executable("lu", "s1/h1", "/bin/lu")
        repo.save(tmp_path / "repo")
        loaded = SiteRepository.load("s1", tmp_path / "repo")
        assert loaded.user_accounts.authenticate("u", "pw")
        assert loaded.resource_performance.get("s1/h1")
        assert loaded.task_performance.get("lu")
        assert loaded.task_constraints.is_runnable_on("lu", "s1/h1")


def _applying_repo():
    repo = SiteRepository("s1")
    repo.resource_performance.register_host("s1", HostSpec(name="h1"))
    repo.task_performance.register_task("lu", 2.0)
    return repo


class TestApply:
    """``SiteRepository.apply``: each logged mutation's one effect."""

    def test_workload_update(self):
        repo = _applying_repo()
        assert repo.apply("workload-update",
                          {"host": "s1/h1", "cpu_load": 0.7,
                           "available_memory_mb": 40.0, "time": 3.0},
                          t=3.5)
        rec = repo.resource_performance.get("s1/h1")
        assert (rec.cpu_load, rec.available_memory_mb, rec.last_update,
                rec.load_window) == (0.7, 40.0, 3.0, [0.7])

    def test_host_down_then_up(self):
        repo = _applying_repo()
        rec = repo.resource_performance.get("s1/h1")
        assert repo.apply("host-down", {"host": "s1/h1", "time": 4.0}, 4.0)
        assert (rec.status, rec.last_update) == ("down", 4.0)
        assert repo.apply("host-up", {"host": "s1/h1", "time": 9.0}, 9.0)
        assert (rec.status, rec.last_update) == ("up", 9.0)

    def test_task_completed_records_the_execution_at_t(self):
        repo = _applying_repo()
        assert repo.apply("task-completed",
                          {"execution_id": "e1", "node_id": "n1",
                           "task_name": "lu", "host": "s1/h1",
                           "input_size": 1.0, "elapsed_s": 2.5,
                           "dedicated_elapsed_s": 2.0}, t=7.0)
        [sample] = repo.task_performance.history("lu")
        assert (sample.host, sample.elapsed_s, sample.time) == \
            ("s1/h1", 2.5, 7.0)
        assert repo.task_performance.has_weight("lu", "s1/h1")

    @pytest.mark.parametrize("kind, payload", [
        ("workload-update", {"host": "s1/h9", "cpu_load": 0.7,
                             "available_memory_mb": 40.0, "time": 3.0}),
        ("host-down", {"host": "s1/h9", "time": 4.0}),
        ("host-up", {"host": "s1/h9", "time": 4.0}),
        ("task-completed", {"task_name": "fft", "host": "s1/h1"}),
        ("ack", {"execution_id": "e1", "host": "s1/h1"}),
        ("site-quarantine", {"peer": "s2", "time": 4.0}),
    ])
    def test_other_records_change_nothing(self, kind, payload):
        repo = _applying_repo()
        generation = repo.delta.generation
        assert not repo.apply(kind, payload, 4.0)
        assert repo.delta.generation == generation
        assert repo.task_performance.history("lu") == []


def _saved_resource_db(path):
    db = ResourcePerformanceDB()
    db.register_host("s1", HostSpec(name="h1"))
    db.save(path)
    return ResourcePerformanceDB.load


def _saved_task_db(path):
    db = TaskPerformanceDB()
    db.register_task("lu", 2.0)
    db.record_execution("lu", "s1/h1", 1.0, 2.5, time=0.5)
    db.save(path)
    return TaskPerformanceDB.load


#: row kind -> (saving helper, file name, row's path in the JSON
#: document, row key the error names, one required field)
SIDECAR_ROWS = {
    "resource-record": (_saved_resource_db, "resource_performance.json",
                        ("rows", "s1/h1"), "s1/h1", "cpu_factor"),
    "task-record": (_saved_task_db, "task_performance.json",
                    ("rows", "records", "lu"), "lu", "base_time_s"),
    "execution-sample": (_saved_task_db, "task_performance.json",
                         ("rows", "history", "lu", 0), "lu[0]", "elapsed_s"),
}


class TestSidecarRows:
    """A malformed row in a saved sidecar fails with a typed error."""

    @pytest.mark.parametrize("defect", ["not-an-object", "unknown-field",
                                        "missing-field"])
    @pytest.mark.parametrize("kind", sorted(SIDECAR_ROWS))
    def test_bad_row_raises_repository_error(self, tmp_path, kind, defect):
        save, name, where, key, required = SIDECAR_ROWS[kind]
        path = tmp_path / name
        load = save(path)
        doc = json.loads(path.read_text())
        *parents, last = where
        holder = doc
        for step in parents:
            holder = holder[step]
        if defect == "not-an-object":
            holder[last] = ["not", "an", "object"]
            detail = "is not an object"
        elif defect == "unknown-field":
            holder[last]["bogus"] = 1
            detail = "unknown field 'bogus'"
        else:
            del holder[last][required]
            detail = f"missing field {required!r}"
        path.write_text(json.dumps(doc))
        with pytest.raises(RepositoryError) as err:
            load(path)
        message = str(err.value)
        assert name in message
        assert f"row {key!r}" in message
        assert detail in message


def _saved_constraints_db(path):
    db = TaskConstraintsDB()
    db.register_executable("lu", "s1/h1", "/bin/lu")
    db.save(path)
    return TaskConstraintsDB.load


def _saved_accounts_db(path):
    db = UserAccountsDB()
    db.add_tenant(TenantRecord(name="lab", weight=2.0))
    db.add_user("alice", "pw", tenant="lab")
    db.save(path)
    return UserAccountsDB.load


def _set(*where, value):
    """Edit: replace the JSON value at *where* with *value*."""
    def edit(doc):
        *parents, last = where
        for step in parents:
            doc = doc[step]
        doc[last] = value
    return edit


def _drop(*where):
    """Edit: delete the JSON entry at *where*."""
    def edit(doc):
        *parents, last = where
        for step in parents:
            doc = doc[step]
        del doc[last]
    return edit


def _rekey(old, new):
    """Edit: move row *old* under the key *new*."""
    def edit(doc):
        doc["rows"][new] = doc["rows"].pop(old)
    return edit


#: case -> (saving helper, saved file, file the edit and error name,
#: edit, the section or row the error names)
SIDECAR_DEFECTS = {
    "table-rows-list": (
        _saved_constraints_db, "task_constraints.json", None,
        _set("rows", value=["lu|s1/h1"]), "section 'rows'"),
    "records-list": (
        _saved_task_db, "task_performance.json", None,
        _set("rows", "records", value=[]), "section 'records'"),
    "weights-list": (
        _saved_task_db, "task_performance.json", None,
        _set("rows", "weights", value=["lu|s1/h1"]), "section 'weights'"),
    "weights-missing": (
        _saved_task_db, "task_performance.json", None,
        _drop("rows", "weights"), "section 'weights'"),
    "history-list": (
        _saved_task_db, "task_performance.json", None,
        _set("rows", "history", value=[]), "section 'history'"),
    "history-row-number": (
        _saved_task_db, "task_performance.json", None,
        _set("rows", "history", "lu", value=3), "section 'history' row 'lu'"),
    "constraint-key-without-bar": (
        _saved_constraints_db, "task_constraints.json", None,
        _rekey("lu|s1/h1", "lu"), "row 'lu'"),
    "account-row-number": (
        _saved_accounts_db, "accounts.json", None,
        _set("rows", "alice", value=7), "row 'alice'"),
    "tenant-row-number": (
        _saved_accounts_db, "accounts.json", "accounts_tenants.json",
        _set("rows", "lab", value=7), "row 'lab'"),
    "resource-row-renamed": (
        _saved_resource_db, "resource_performance.json", None,
        _rekey("s1/h1", "s1/h9"), "row 's1/h9'"),
    "resource-cpu-factor-string": (
        _saved_resource_db, "resource_performance.json", None,
        _set("rows", "s1/h1", "cpu_factor", value="fast"),
        "row 's1/h1' field 'cpu_factor'"),
    "resource-load-window-string": (
        _saved_resource_db, "resource_performance.json", None,
        _set("rows", "s1/h1", "load_window", value=[0.5, "high"]),
        "row 's1/h1' field 'load_window'"),
    "account-user-id-string": (
        _saved_accounts_db, "accounts.json", None,
        _set("rows", "alice", "user_id", value="seven"),
        "row 'alice' field 'user_id'"),
    "tenant-weight-bool": (
        _saved_accounts_db, "accounts.json", "accounts_tenants.json",
        _set("rows", "lab", "weight", value=True),
        "row 'lab' field 'weight'"),
    "sample-weight-string": (
        _saved_task_db, "task_performance.json", None,
        _set("rows", "history", "lu", 0, "observed_weight", value="x"),
        "row 'lu[0]' field 'observed_weight'"),
}


class TestSidecarDefects:
    """A malformed sidecar fails with a RepositoryError naming the file
    and the section or row, never a bare Python error or a silent
    mis-load."""

    @pytest.mark.parametrize("case", sorted(SIDECAR_DEFECTS))
    def test_defect_raises_repository_error(self, tmp_path, case):
        save, saved, edited, edit, where = SIDECAR_DEFECTS[case]
        load = save(tmp_path / saved)
        path = tmp_path / (edited or saved)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(RepositoryError) as err:
            load(tmp_path / saved)
        message = str(err.value)
        assert path.name in message
        assert where in message


class TestDeltaPublication:
    """Each mutator publishes exactly its own delta event; reads none."""

    @staticmethod
    def recorder(db):
        events = []
        db.subscribe(lambda kind, a, b: events.append((kind, a, b)))
        return events

    @staticmethod
    def resource_db():
        db = ResourcePerformanceDB()
        db.register_host("s1", HostSpec(name="h1"))
        return db

    @staticmethod
    def task_db(weight=None):
        db = TaskPerformanceDB()
        db.register_task("lu", 1.0)
        if weight is not None:
            db.set_weight("lu", "s1/h1", weight)
        return db

    @staticmethod
    def constraints_db():
        db = TaskConstraintsDB()
        db.register_executable("lu", "s1/h1", "/bin/lu")
        return db

    @pytest.mark.parametrize("make, mutate, events", [
        (ResourcePerformanceDB,
         lambda db: db.register_host("s1", HostSpec(name="h2")),
         [("host", "s1/h2", "")]),
        (resource_db,
         lambda db: db.update_dynamic("s1/h1", 0.5, 64.0, time=1.0),
         [("host", "s1/h1", "")]),
        (resource_db, lambda db: db.mark_down("s1/h1", time=1.0),
         [("host", "s1/h1", "")]),
        (resource_db, lambda db: db.mark_up("s1/h1", time=1.0),
         [("host", "s1/h1", "")]),
        (resource_db, lambda db: db.unregister_host("s1/h1"),
         [("host-removed", "s1/h1", "")]),
        (TaskPerformanceDB, lambda db: db.register_task("fft", 1.0),
         [("task", "fft", "")]),
        (task_db, lambda db: db.set_weight("lu", "s1/h1", 1.2),
         [("weight", "lu", "s1/h1")]),
        (task_db,
         lambda db: db.record_execution("lu", "s1/h1", 1.0, 3.0, time=1.0,
                                        dedicated_elapsed_s=2.0),
         [("weight", "lu", "s1/h1")]),
        (partial(task_db, weight=1.0),
         lambda db: db.record_execution("lu", "s1/h1", 1.0, 3.0, time=1.0,
                                        dedicated_elapsed_s=2.0),
         [("weight", "lu", "s1/h1")]),
        (task_db,
         lambda db: db.record_execution("lu", "s1/h1", 1.0, 3.0, time=1.0),
         []),
        (TaskConstraintsDB,
         lambda db: db.register_executable("lu", "s1/h1", "/bin/lu"),
         [("constraint", "lu", "s1/h1")]),
        (constraints_db,
         lambda db: db.unregister_executable("lu", "s1/h1"),
         [("constraint", "lu", "s1/h1")]),
    ], ids=["register_host", "update_dynamic", "mark_down", "mark_up",
            "unregister_host", "register_task", "set_weight",
            "record_execution-first", "record_execution-ewma",
            "record_execution-no-dedicated-time",
            "register_executable", "unregister_executable"])
    def test_mutator_publishes_its_event(self, make, mutate, events):
        db = make()
        published = self.recorder(db)
        mutate(db)
        assert published == events

    def test_reads_publish_nothing(self):
        resources, tasks = self.resource_db(), self.task_db(weight=1.0)
        constraints = self.constraints_db()
        events = [self.recorder(db)
                  for db in (resources, tasks, constraints)]
        resources.get("s1/h1")
        resources.hosts_at("s1")
        resources.all_records()
        assert "s1/h1" in resources and len(resources) == 1
        tasks.get("lu")
        tasks.task_names()
        tasks.weight("lu", "s1/h1")
        tasks.has_weight("lu", "s1/h2")
        tasks.history("lu", host="s1/h1")
        assert "lu" in tasks
        constraints.executable_path("lu", "s1/h1")
        constraints.is_runnable_on("lu", "s1/h2")
        constraints.hosts_with("lu")
        constraints.tasks_on("s1/h1")
        assert events == [[], [], []]
