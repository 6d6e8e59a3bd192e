"""INV002 fixture: the delta-publication contract (notify + generation)."""


class Plain:
    """Not a delta source: mutations without notify are fine here."""

    def set(self, x):
        self.value = x

    def bump(self):
        self._count += 1


class ResourcePerformanceDB:
    def __init__(self):
        self._records = {}
        self._subscribers = []

    def subscribe(self, callback):
        self._subscribers.append(callback)

    def _notify(self, kind, a="", b=""):
        for cb in self._subscribers:
            cb(kind, a, b)

    def good_register(self, rec):
        self._notify("host", rec.address)
        self._records[rec.address] = rec

    def good_unregister(self, address):
        del self._records[address]
        self._notify("host-removed", address)

    def good_alias(self, address):
        rec = self.get(address)
        rec.cpu_load = 0.5
        self._notify("host", address)

    def bad_direct(self, key, rec):  # expect: INV002
        self._records[key] = rec

    def bad_alias(self, address):  # expect: INV002
        rec = self.get(address)
        rec.cpu_load = 2.0

    def bad_subscript_alias(self, address):  # expect: INV002
        rec = self._records[address]
        rec.status = "down"

    def bad_param(self, rec):  # expect: INV002
        rec.cpu_load = 1.0

    def bad_delete(self, address):  # expect: INV002
        del self._records[address]

    def bad_window(self, address, load):  # expect: INV002
        rec = self.get(address)
        rec.load_window.append(load)

    def read_only(self, address):
        return self._records[address]

    def get(self, address):
        return self._records[address]

    def save(self, path):
        self._table.put("rows", dict(self._records))
        self._table.save(path)

    @classmethod
    def load(cls, path):
        db = cls()
        db._records = {"from": path}
        return db


class TaskPerformanceDB:
    def good_record(self, task, host, observed):
        if observed is not None:
            self._weights[(task, host)] = observed
            self._notify("weight", task, host)
        self._history.setdefault(task, []).append(observed)

    def bad_register(self, name, rec):  # expect: INV002
        self._records[name] = rec

    def bad_history(self, task, sample):  # expect: INV002
        self._history.setdefault(task, []).append(sample)

    def reads_are_not_mutations(self, task, host):
        return self._weights.get((task, host))


class TaskConstraintsDB:
    def good_register(self, task, host):
        self._table.put((task, host), "/bin/task")
        self._notify("constraint", task, host)

    def bad_register(self, task, host):  # expect: INV002
        self._table.put((task, host), "/bin/task")

    def bad_discard(self, task, host):  # expect: INV002
        self._hosts_by_task[task].discard(host)


class UserAccountsDB:
    def _notify(self, kind, a="", b=""):
        for cb in self._subscribers:
            cb(kind, a, b)

    def good_add_tenant(self, record):
        self._tenants.put(record.name, record)
        self._notify("tenant", record.name)

    def bad_remove_user(self, user_name):  # expect: INV002
        self._table.delete(user_name)

    def bad_next_id(self):  # expect: INV002
        self._next_id += 1

    def read_only(self, name):
        return self._tenants.get_or(name)


class DeltaTracker:
    def __init__(self):
        self.generation = 0
        self._events = []

    def good_record(self, kind, a, b):
        self._events.append((kind, a, b))
        self.generation += 1

    def good_compact(self, drop):
        del self._events[:drop]
        self.generation += 1

    def bad_append(self, kind):  # expect: INV002
        self._events.append((kind, "", ""))

    def bad_rebind(self):  # expect: INV002
        self._events = []

    def bad_slice_delete(self, drop):  # expect: INV002
        del self._events[:drop]

    def bad_item_assign(self, i, event):  # expect: INV002
        self._events[i] = event

    def read_only(self, cursor):
        return self._events[cursor:]
