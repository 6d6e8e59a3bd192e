"""A fluent, non-modal AFG builder for programmatic construction.

The editor reproduces the paper's modal GUI workflow; tests, workload
generators, and library users who just want a graph use this builder
instead.  Single-port connections can omit port names: when the producer
has exactly one output and the consumer exactly one *unfilled* input, the
ports are inferred.
"""

from __future__ import annotations

from repro.afg.graph import ApplicationFlowGraph, TaskNode
from repro.afg.properties import TaskProperties
from repro.tasklib.registry import LibraryRegistry
from repro.util.errors import PortError


class GraphBuilder:
    """Chained construction of an :class:`ApplicationFlowGraph`."""

    def __init__(self, registry: LibraryRegistry,
                 name: str = "application") -> None:
        self.registry = registry
        self.graph = ApplicationFlowGraph(name=name)
        self._auto = 1

    def task(self, task_name: str, node_id: str | None = None,
             properties: TaskProperties | None = None,
             **prop_kwargs) -> str:
        """Add a node; returns its id.

        ``prop_kwargs`` build a :class:`TaskProperties` when *properties*
        is not given (e.g. ``input_size=200, params={"n": 200}``).
        """
        definition = self.registry.resolve(task_name)
        if node_id is None:
            node_id = f"{task_name}-{self._auto}"
            self._auto += 1
        if properties is None and prop_kwargs:
            properties = TaskProperties(**prop_kwargs)
        self.graph.add_node(node_id, definition, properties=properties)
        return node_id

    def link(self, src: str, dst: str, src_port: str | None = None,
             dst_port: str | None = None) -> "GraphBuilder":
        """Connect two nodes, inferring ports when unambiguous."""
        src_node = self.graph.node(src)
        dst_node = self.graph.node(dst)
        if src_port is None:
            outs = src_node.output_ports
            if len(outs) != 1:
                raise PortError(
                    f"node {src!r} has outputs {outs}; src_port required")
            src_port = outs[0]
        if dst_port is None:
            fed = {link.dst_port for link in self.graph.in_links(dst)}
            free = [p for p in dst_node.input_ports if p not in fed]
            if not free:
                raise PortError(f"node {dst!r} has no unfilled input ports")
            # Deterministic choice: first unfilled port in signature order.
            dst_port = free[0]
        self.graph.add_link(src, src_port, dst, dst_port)
        return self

    def chain(self, *node_ids: str) -> "GraphBuilder":
        """Link consecutive nodes in a pipeline."""
        for a, b in zip(node_ids, node_ids[1:]):
            self.link(a, b)
        return self

    def set_properties(self, node_id: str, **prop_kwargs) -> "GraphBuilder":
        """Replace a node's property panel from keyword arguments."""
        self.graph.node(node_id).properties = TaskProperties(**prop_kwargs)
        return self

    def node(self, node_id: str) -> TaskNode:
        """Access a node on the graph under construction."""
        return self.graph.node(node_id)

    def build(self) -> ApplicationFlowGraph:
        """Finish construction: validate and return the graph."""
        self.graph.validate()
        return self.graph
