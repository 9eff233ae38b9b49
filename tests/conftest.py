import pytest

from snmpkit import agent
from snmpkit.mibs import load_core
from snmpkit.oids import Registry


def enumerate_instances(tree, ctx):
    """All (full arcs, handler, rest ids) triples of a dispatch tree, sorted
    lexicographically: the brute-force oracle that agent dispatch, which
    probes only the handlers a request reaches, is checked against."""
    out = []
    for base, (handler, _) in tree.snapshot().items():
        try:
            spec = handler(ctx, ())
        except Exception:
            continue
        if spec is None:
            continue
        for rest in agent.expand_children(spec):
            out.append((base + rest, handler, rest))
    out.sort(key=lambda item: item[0])
    return out


@pytest.fixture()
def registry():
    """A fresh registry with the bundled corpus; safe to mutate."""
    return load_core(Registry())


@pytest.fixture()
def loopback_agent(registry):
    """(tree, ctx) serving the system group, enterprise MIB and demo table."""
    ctx = agent.AgentContext(registry=registry)
    tree = agent.DispatchTree()
    agent.install_system_group(tree, ctx)
    agent.install_enterprise_mib(tree, ctx)
    agent.install_if_table(tree, registry, agent.demo_if_rows())
    return tree, ctx
