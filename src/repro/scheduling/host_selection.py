"""The Host Selection Algorithm (paper Figure 5).

Runs at every site (local and each selected remote site):

1. Retrieve task-specific parameters of AFG tasks from the
   task-performance database.
2. Retrieve resource-specific parameters of the site's resources from
   the resource-performance database.
3. For each task, evaluate ``Predict(task, R)`` for every resource and
   pick the minimiser.

Beyond the figure, the selection honours the constraints the paper
describes elsewhere: the task-constraints database (executables may live
only on some hosts), the editor's machine-type preference, and —
per the parallel-task extension of section 2.2.1 — multi-host selection
within the site for parallel tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import nsmallest

from repro.afg.graph import ApplicationFlowGraph, TaskNode
from repro.analysis import hooks
from repro.prediction.predict import PerformancePredictor
from repro.repository.delta import DeltaEvent, DeltaTracker
from repro.repository.resource_perf import ResourceRecord
from repro.repository.site_repository import SiteRepository
from repro.util.errors import NoFeasibleHostError

#: Soft cap on distinct task-class score views held per selector; the
#: view table is cleared wholesale past this.
VIEW_MAX_ENTRIES = 512


def runnable(repository: SiteRepository, node: TaskNode,
             record: ResourceRecord) -> bool:
    """May *record*'s host run *node*?  The one feasibility rule.

    True for an up host of the repository's site that matches the
    node's machine-type preference (when one is set) and holds the
    task's executable in the task-constraints database.
    """
    machine_type = node.properties.machine_type
    return (record.site == repository.site and record.status == "up"
            and (machine_type is None or record.arch == machine_type)
            and repository.task_constraints.is_runnable_on(
                node.task_name, record.address))


def _score_key(entry: tuple[str, float]) -> tuple[float, str]:
    """(estimate, address) — the full path's deterministic tie-break."""
    return (entry[1], entry[0])


class _ClassView:
    """Persistent candidate scores for one task equivalence class.

    One view per (task name, input size, processors, machine type):
    ``scores`` maps each currently-feasible host address to its Predict
    estimate, and ``cursor`` marks how far into the repository's delta
    journal the view has consumed.  Between scheduling rounds only the
    dirtied entries are re-scored; ``ranked`` caches the materialised
    HostChoice tuples per (node id, k) until the journal moves again.
    """

    __slots__ = ("scores", "cursor", "ranked", "top")

    def __init__(self) -> None:
        self.scores: dict[str, float] = {}
        self.cursor = 0
        self.ranked: dict[tuple[str, int], tuple[HostChoice, ...]] = {}
        #: class-level top lists: n -> ((addr, est), ...) ascending by
        #: (est, addr).  A delta that cannot displace any cached top
        #: (dirty host outside it, new estimate above its k-th entry)
        #: leaves ``ranked`` valid — the common one-monitoring-update
        #: round costs O(changed hosts), not O(nodes x log k).
        self.top: dict[int, tuple[tuple[str, float], ...]] = {}


@dataclass(frozen=True)
class HostChoice:
    """One site's answer for one task: machine(s) + predicted time."""

    node_id: str
    site: str
    hosts: tuple[str, ...]
    predicted_time_s: float
    processors: int = 1


@dataclass(frozen=True)
class HostSelectionResult:
    """The full per-site mapping sent back to the local site.

    ``ranked`` optionally carries each task's next-best alternatives
    (used by the queue-aware scheduling extension; the paper's algorithm
    only ever looks at ``choices``).
    """

    site: str
    choices: dict[str, HostChoice]       # node id -> choice
    infeasible: tuple[str, ...] = ()     # node ids this site cannot run
    ranked: dict[str, tuple[HostChoice, ...]] | None = None

    def choice_for(self, node_id: str) -> HostChoice | None:
        """This site's best choice for one task (None if infeasible)."""
        return self.choices.get(node_id)

    def ranked_for(self, node_id: str) -> tuple[HostChoice, ...]:
        if self.ranked and node_id in self.ranked:
            return self.ranked[node_id]
        choice = self.choices.get(node_id)
        return (choice,) if choice is not None else ()


class HostSelector:
    """Figure 5, evaluated against one site's repository.

    The selector keeps one :class:`_ClassView` of candidate scores per
    task equivalence class and consumes the repository's
    :class:`DeltaTracker` journal between rounds — only hosts dirtied by
    a monitoring update, membership flip, weight refinement, or
    constraint edit are re-scored.  A view whose journal cursor was
    compacted away is rebuilt from the repository.
    """

    def __init__(self, repository: SiteRepository,
                 predictor: PerformancePredictor | None = None) -> None:
        self.repository = repository
        self.predictor = predictor or PerformancePredictor(
            repository.task_performance)
        self._views: dict[tuple[str, float, int, str | None], _ClassView] = {}
        self._tracker: DeltaTracker = repository.delta

    def _hb_note(self, node: TaskNode) -> None:
        """Report this selection round to the attached sanitizer: reads
        of the site's repository DBs, plus a write to this selector's
        view cell — the cursor, score and ranked caches all mutate, so a
        selector shared across unordered same-tick contexts is a real
        hazard."""
        hb = hooks.HB
        site = self.repository.site
        hb.read(site, "resource_performance", node.task_name)
        hb.read(site, "task_constraints", node.task_name)
        hb.write(site, hb.name_for(self, "selector-view"), node.task_name)

    # -- candidate filtering ---------------------------------------------
    def feasible_records(self, node: TaskNode) -> list[ResourceRecord]:
        """Site resources that may run the task (:func:`runnable`)."""
        repo = self.repository
        return [rec for rec in repo.resource_performance.hosts_at(repo.site)
                if runnable(repo, node, rec)]

    # -- candidate score views ---------------------------------------------
    def _feasible_estimate(self, node: TaskNode, processors: int,
                           addr: str) -> float | None:
        """Current Predict estimate for *addr*, or None when infeasible.

        Applies :func:`runnable`, the rule :meth:`feasible_records`
        filters by, to the repository's *current* state, so replaying a
        stale journal entry always converges on the live answer.
        """
        rp = self.repository.resource_performance
        if addr not in rp:
            return None
        rec = rp.get(addr)
        if not runnable(self.repository, node, rec):
            return None
        return self.predictor.estimate(
            node.definition, node.properties.input_size, rec, processors)

    def _rebuild_view(self, view: _ClassView, node: TaskNode,
                      processors: int) -> None:
        """Full re-walk: score every feasible record (journal lost)."""
        scores = view.scores
        scores.clear()
        view.top.clear()
        view.ranked.clear()
        definition = node.definition
        input_size = node.properties.input_size
        estimate = self.predictor.estimate
        for rec in self.feasible_records(node):
            scores[rec.address] = estimate(definition, input_size, rec,
                                           processors)

    def _apply_events(self, view: _ClassView, node: TaskNode,
                      processors: int, events: list[DeltaEvent]) -> None:
        """Re-score each (host, task-class) pair the journal dirtied once."""
        scores = view.scores
        task_name = node.task_name
        changed: set[str] = set()
        dirty: dict[str, None] = {}
        for kind, a, b in events:
            if kind == "host":
                dirty[a] = None
            elif kind == "host-removed":
                if scores.pop(a, None) is not None:
                    changed.add(a)
            elif kind == "weight" or kind == "constraint":
                if a == task_name:
                    dirty[b] = None
            # "task": registration never changes existing estimates
        for addr in dirty:
            est = self._feasible_estimate(node, processors, addr)
            if est is None:
                if scores.pop(addr, None) is not None:
                    changed.add(addr)
            elif scores.get(addr) != est:
                scores[addr] = est
                changed.add(addr)
        if changed and view.top:
            self._invalidate_tops(view, changed)

    @staticmethod
    def _invalidate_tops(view: _ClassView, changed: set[str]) -> None:
        """Drop cached rankings a score change could have displaced.

        A cached top-n (and the HostChoice tuples built from it) stays
        valid iff no changed host is inside it, none could now enter it
        (new estimate above its n-th entry, with the (est, addr)
        tie-break), and it was not short of candidates.
        """
        scores = view.scores
        n_scores = len(scores)
        for n, top in view.top.items():
            if len(top) < min(n, n_scores):
                break  # was short: an appearing host extends it
            displaced = False
            for addr in changed:
                est = scores.get(addr)
                if any(addr == a for a, _ in top):
                    displaced = True
                    break
                if est is not None and top and \
                        (est, addr) < (top[-1][1], top[-1][0]):
                    displaced = True
                    break
            if displaced:
                break
        else:
            return  # every cached top survives the delta
        view.top.clear()
        view.ranked.clear()

    def _view_for(self, node: TaskNode, processors: int) -> _ClassView:
        """The up-to-date score view for *node*'s task class."""
        tracker = self.repository.delta
        if tracker is not self._tracker:
            # the repository swapped journals (e.g. SiteRepository.load):
            # every cursor is meaningless, start over
            self._views.clear()
            self._tracker = tracker
        props = node.properties
        key = (node.task_name, props.input_size, processors,
               props.machine_type)
        view = self._views.get(key)
        if view is None:
            if len(self._views) >= VIEW_MAX_ENTRIES:
                self._views.clear()
            view = _ClassView()
            # capture the generation *before* walking: a mutation landing
            # mid-rebuild (re-entrant subscriber, monitor piggyback) bumps
            # the journal, and stamping the post-walk generation would
            # mark those events consumed without the walk having seen
            # their effect on every record
            gen = tracker.generation
            self._rebuild_view(view, node, processors)
            view.cursor = gen
            self._views[key] = view
            return view
        if view.cursor != tracker.generation:
            gen = tracker.generation
            events = tracker.events_since(view.cursor)
            if events is None:  # journal compacted past our cursor
                self._rebuild_view(view, node, processors)
            elif events:
                self._apply_events(view, node, processors, events)
            view.cursor = gen
        return view

    def _top_n(self, view: _ClassView, n: int
               ) -> tuple[tuple[str, float], ...]:
        """The view's n best (addr, est) pairs, cached per generation."""
        top = view.top.get(n)
        if top is None:
            top = tuple(nsmallest(n, view.scores.items(), key=_score_key))
            view.top[n] = top
        return top

    def priced(self, node: TaskNode) -> list[tuple[str, float]]:
        """Every runnable host's ``(address, estimate)``, in view order.

        The pricing path of the schedulers that weigh every single-host
        candidate (HEFT, the optimal reference): the processors = 1
        view, as :meth:`best_excluding` reads it.  A fresh view lists
        hosts in ``hosts_at`` order; the pairs are deliberately left
        unsorted.  Like :meth:`best_excluding`, it makes no sanitizer
        note.
        """
        return list(self._view_for(node, 1).scores.items())

    # -- per-task selection -------------------------------------------------
    def select_ranked(self, node: TaskNode,
                      max_alternatives: int = 3) -> tuple[HostChoice, ...]:
        """The best hosts for one task, ascending by predicted time.

        The paper's algorithm only uses the first entry; the queue-aware
        extension consults the alternatives.  Parallel tasks have a
        single (multi-host) choice.
        """
        if hooks.HB is not None:
            self._hb_note(node)
        props = node.properties
        processors = (props.processors
                      if props.computation_mode == "parallel" else 1)
        view = self._view_for(node, processors)
        cache_key = (node.node_id, max_alternatives)
        cached = view.ranked.get(cache_key)
        if cached is not None:
            return cached
        scores = view.scores
        site = self.repository.site
        if not scores:
            raise NoFeasibleHostError(
                f"site {site!r}: no feasible host for "
                f"task {node.node_id!r} ({node.task_name})")
        if processors > 1:
            # Parallel extension: the p best hosts within the site; the
            # parallel execution time is bounded by the slowest one.
            if len(scores) < processors:
                raise NoFeasibleHostError(
                    f"site {site!r}: task {node.node_id!r} "
                    f"needs {processors} hosts, only {len(scores)} feasible")
            chosen = self._top_n(view, processors)
            result: tuple[HostChoice, ...] = (HostChoice(
                node_id=node.node_id, site=site,
                hosts=tuple(addr for addr, _ in chosen),
                predicted_time_s=max(est for _, est in chosen),
                processors=processors),)
        else:
            result = tuple(
                HostChoice(node_id=node.node_id, site=site, hosts=(addr,),
                           predicted_time_s=est)
                for addr, est in self._top_n(view, max_alternatives))
        view.ranked[cache_key] = result
        return result

    def select_for_task(self, node: TaskNode) -> HostChoice:
        """Minimum-``Predict`` host(s) at this site for one task."""
        return self.select_ranked(node, 1)[0]

    def best_excluding(self, node: TaskNode,
                       exclude: set[str]) -> HostChoice | None:
        """The minimum-``Predict`` single host outside *exclude*, or None.

        A reschedule request's answer (section 2.3.1): the first
        non-excluded entry of the processors = 1 view's
        ``len(exclude) + 1`` best, by (estimate, address)."""
        view = self._view_for(node, 1)
        for addr, est in self._top_n(view, len(exclude) + 1):
            if addr not in exclude:
                return HostChoice(node.node_id, self.repository.site,
                                  (addr,), est)
        return None

    # -- whole-graph selection (the figure's task_queue loop) -------------------
    def select(self, graph: ApplicationFlowGraph,
               max_alternatives: int = 3,
               order: list[str] | None = None) -> HostSelectionResult:
        """Select per-task hosts for the whole graph.

        Pass a precomputed topological *order* to skip re-deriving it —
        rescheduling loops over an unchanged graph reuse one order.
        """
        choices: dict[str, HostChoice] = {}
        ranked: dict[str, tuple[HostChoice, ...]] = {}
        infeasible: list[str] = []
        for node_id in (order if order is not None
                        else graph.topological_order()):
            node = graph.node(node_id)
            try:
                options = self.select_ranked(node, max_alternatives)
            except NoFeasibleHostError:
                infeasible.append(node_id)
                continue
            choices[node_id] = options[0]
            ranked[node_id] = options
        return HostSelectionResult(site=self.repository.site,
                                   choices=choices,
                                   infeasible=tuple(infeasible),
                                   ranked=ranked)
