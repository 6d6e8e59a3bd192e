"""F7 — paper Figure 7: setting up the application execution environment.

Quantifies the figure's numbered protocol (Data Manager activation ->
communication-proxy channel setup -> acknowledgments -> execution startup
signal -> socket-based inter-task communications):

* setup latency (submission to start signal) vs channel count;
* inter-task transfer time vs message size over the modelled sockets;
* the data-conversion overhead when producer and consumer architectures
  differ (big- vs little-endian), absent on homogeneous pairs.
"""

import numpy as np

from repro import VDCE, ATM_OC3, HostSpec
from repro.net import CHANNEL_ACK, CHANNEL_SETUP, START_SIGNAL
from repro.workloads import fork_join_graph, quiet_testbed

from _common import print_table


def test_setup_latency_vs_channel_count(benchmark):
    """Figure 7 steps 1-5: more channels => more handshakes, but they run
    concurrently, so latency grows sub-linearly while message count grows
    linearly."""
    rows = []
    for width in (2, 4, 8):
        vdce = quiet_testbed(seed=2, hosts_per_site=5)
        vdce.start()
        graph = fork_join_graph(vdce.registry, width=width, size=256)
        # Alternate site pins so the dataflow genuinely crosses machines
        # (otherwise the greedy scheduler co-locates the whole graph and
        # no wire channels are needed at all).
        for i, nid in enumerate(graph.topological_order()):
            graph.node(nid).properties.preferred_site = (
                "syracuse" if i % 2 == 0 else "rome")
        run = vdce.run_application(graph, "syracuse", k_remote_sites=1,
                                   max_sim_time_s=600)
        assert run.status == "completed"
        setups = vdce.network.stats.by_kind.get(CHANNEL_SETUP, 0)
        acks = vdce.network.stats.by_kind.get(CHANNEL_ACK, 0)
        starts = vdce.network.stats.by_kind.get(START_SIGNAL, 0)
        rows.append({
            "fanout": width, "tasks": len(graph),
            "links": len(graph.links),
            "channel_setups": setups,
            "acks": acks,
            "start_signals": starts,
            "setup_latency_s": run.started_at - run.scheduled_at,
        })
    print_table("F7: channel setup scaling", rows)
    assert rows[-1]["channel_setups"] > rows[0]["channel_setups"]
    # handshakes run concurrently: latency grows far slower than count
    assert rows[-1]["setup_latency_s"] < 3 * rows[0]["setup_latency_s"]
    # exactly one start signal per involved controller set
    assert all(r["start_signals"] >= 1 for r in rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_transfer_time_vs_message_size(benchmark):
    """Socket-based inter-task communication: latency-bound for small
    messages, bandwidth-bound for large ones."""
    from repro.net import Network, Topology
    from repro.resources import Host
    from repro.runtime.data.data_manager import ChannelSpec, DataManager
    from repro.simcore import Environment

    rows = []
    for size in (1e3, 1e5, 1e7):
        env = Environment()
        topo = Topology()
        topo.add_site("s1")
        topo.add_site("s2")
        topo.connect("s1", "s2", ATM_OC3)
        net = Network(env, topo)
        h1 = Host(spec=HostSpec(name="h1"), site="s1")
        h2 = Host(spec=HostSpec(name="h2"), site="s2")
        orders = {"s1/h1": "big", "s2/h2": "big"}
        dm1 = DataManager(env, net, h1, byte_orders=orders)
        dm2 = DataManager(env, net, h2, byte_orders=orders)
        spec = ChannelSpec(execution_id="e", src_node="a", src_port="o",
                           src_host="s1/h1", dst_node="b", dst_port="i",
                           dst_host="s2/h2")
        env.run(until=env.process(dm1.setup_channels([spec])))
        t0 = env.now
        arrival = {}

        def consumer(env):
            yield dm2.receive("e", "b", "i")
            arrival["t"] = env.now

        env.process(consumer(env))
        env.process(dm1.send_output(spec, None, size))
        env.run()
        elapsed = arrival["t"] - t0
        rows.append({"bytes": int(size), "transfer_s": elapsed,
                     "effective_MBps": size / elapsed / 1e6})
    print_table("F7: inter-task transfer time vs message size", rows)
    # small messages latency-bound (≈ WAN latency); big ones bandwidth-bound
    assert rows[0]["transfer_s"] < 0.01
    assert rows[-1]["transfer_s"] > 0.3  # 10 MB over OC-3 ≈ 0.5s
    assert rows[-1]["effective_MBps"] < 155 / 8 * 1.1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_conversion_overhead_heterogeneous(benchmark):
    """Heterogeneous endpoints pay the modelled byteswap; homogeneous
    pairs do not — and the numeric payload survives either way."""

    def run_pair(dst_arch: str, dst_os: str):
        vdce = VDCE(seed=4)
        vdce.add_site("s1")
        vdce.add_site("s2")
        vdce.connect_sites("s1", "s2", ATM_OC3)
        vdce.add_host("s1", HostSpec(name="h1", arch="sparc", os="solaris"))
        vdce.add_host("s2", HostSpec(name="h1", arch=dst_arch, os=dst_os))
        vdce.start()
        from repro.afg import GraphBuilder
        b = GraphBuilder(vdce.registry, name="pair")
        b.task("matrix-generate", "g", input_size=300, params={"n": 300})
        b.task("matrix-transpose", "t", input_size=300)
        b.link("g", "t")
        g = b.build()
        g.node("g").properties.preferred_site = "s1"
        g.node("t").properties.preferred_site = "s2"
        run = vdce.run_application(g, "s1", k_remote_sites=1,
                                   max_sim_time_s=600)
        assert run.status == "completed"
        dm = vdce.data_managers["s1/h1"]
        out = run.results()["t"]["transposed"]
        return dm.stats.conversions, dm.stats.conversion_time_s, out

    conv_n, conv_t, out_hetero = run_pair("x86", "linux")
    same_n, same_t, out_homo = run_pair("sparc", "solaris")
    print_table("F7: data-conversion overhead", [
        {"pair": "sparc->x86 (big->little)", "conversions": conv_n,
         "conversion_s": conv_t},
        {"pair": "sparc->sparc (big->big)", "conversions": same_n,
         "conversion_s": same_t},
    ])
    assert conv_n >= 1 and conv_t > 0
    assert same_n == 0 and same_t == 0
    np.testing.assert_allclose(out_hetero, out_homo)
    benchmark.pedantic(run_pair, args=("x86", "linux"), rounds=1,
                       iterations=1)
