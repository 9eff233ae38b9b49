import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

import snmpkit.oids as oids_module
from snmpkit import ber, smi
from snmpkit.errors import EncodingError, OidConflictError, OidResolutionError
from snmpkit.mibs import load_core
from snmpkit.oids import Registry, lexicographic_successor, name_list, number_list

SYSDESCR_0 = (1, 3, 6, 1, 2, 1, 1, 1, 0)


class TestResolutionForms:
    """All the equivalent spellings of sysDescr.0 must converge."""

    def forms(self, registry):
        sysdescr = registry.resolve("sysDescr")
        node = sysdescr.node
        return [
            "sysDescr.0",
            "SNMPv2-MIB::sysDescr.0",
            "system.sysDescr.0",
            "1.3.6.1.2.1.1.1.0",
            ".1.3.6.1.2.1.1.1.0",
            "0.1.3.6.1.2.1.1.1.0",
            tuple(SYSDESCR_0),
            list(SYSDESCR_0),
            [sysdescr, 0],
            [node, 0],
        ]

    def test_all_forms_resolve_identically(self, registry):
        for form in self.forms(registry):
            ref = registry.resolve(form)
            assert number_list(ref) == SYSDESCR_0, form

    def test_resolved_refs_share_the_named_node(self, registry):
        named = registry.resolve("sysDescr").node
        for form in self.forms(registry):
            ref = registry.resolve(form)
            assert ref.node is named or ref.arcs == SYSDESCR_0


class TestNames:
    def test_name_list_of_system(self, registry):
        ref = registry.resolve("system")
        assert tuple(name_list(ref)) == (
            "iso", "org", "dod", "internet", "mgmt", "mib-2", "system")

    def test_unnamed_instance_arcs_render_numerically(self, registry):
        ref = registry.resolve("sysDescr.0")
        assert tuple(name_list(ref))[-2:] == ("sysDescr", "0")

    def test_number_list_excludes_root(self, registry):
        assert number_list(registry.resolve("iso")) == (1,)

    def test_instances_are_not_inserted_into_the_tree(self, registry):
        node = registry.resolve("sysDescr").node
        before = dict(node.children)
        registry.resolve("sysDescr.0")
        registry.resolve((1, 3, 6, 1, 2, 1, 1, 1, 0))
        assert node.children == before


class TestTreeStructure:
    def test_root_is_named_zero(self, registry):
        root = registry.root
        assert root.name == "zero" and root.value == 0

    def test_iso_under_root(self, registry):
        assert registry.root.children[1].name == "iso"

    def test_zero_dot_zero_is_at_zero_dot_zero(self, registry):
        # RFC 2578 section 2: zeroDotZero ::= { 0 0 }, below the root's arc 0
        node = registry.resolve("zeroDotZero").node
        assert node.arcs == (0, 0)
        assert node.parent.parent is registry.root
        assert node.parent.name is None

    def test_an_arc_tuple_keeps_its_leading_zero(self, registry):
        # 0.1.127 lies below the root's arc 0, not below iso (1.127)
        ref = registry.resolve((0, 1, 127))
        assert ref.arcs == (0, 1, 127)
        assert (ref.node.arcs, ref.rest) == ((0,), (1, 127))


class TestRegister:
    def test_register_is_idempotent(self, registry):
        a = registry.register("T", "tnode", "enterprises", 9999)
        b = registry.register("T", "tnode", "enterprises", 9999)
        assert a is b

    def test_conflicting_name_rejected(self, registry):
        registry.register("T", "tnode", "enterprises", 9998)
        with pytest.raises(OidConflictError):
            registry.register("T", "othername", "enterprises", 9998)

    def test_unnamed_intermediates_materialize(self, registry):
        node = registry.register("T", "deep", "enterprises.7777.1.2", 3)
        assert number_list(registry.resolve(node))[-4:] == (7777, 1, 2, 3)
        # the intermediate arcs exist but carry no name
        assert node.parent.name is None

    def test_metadata_attached(self, registry):
        node = registry.register("T", "meta", "enterprises", 9997,
                                 node_kind="object-type", syntax="Integer32",
                                 max_access="read-only", status="current")
        assert node.syntax == "Integer32"
        assert node.max_access == "read-only"


class TestResolutionErrors:
    def test_unknown_name(self, registry):
        with pytest.raises(OidResolutionError):
            registry.resolve("definitelyNotAnObject")

    def test_unknown_dotted_segment(self, registry):
        with pytest.raises(OidResolutionError) as exc:
            registry.resolve("system.notAChild.0")
        assert exc.value.segment == "notAChild"

    def test_module_qualifier_must_match(self, registry):
        with pytest.raises(OidResolutionError):
            registry.resolve("IF-MIB::sysDescr")

    def test_oid_value_resolves(self, registry):
        ref = registry.resolve(ber.Oid(SYSDESCR_0))
        assert number_list(ref) == SYSDESCR_0


class TestLexicographicSuccessor:
    INSTANCES = [
        (1, 1, 1, 0),
        (1, 1, 2, 0),
        (1, 2, 1, 1),
        (1, 2, 1, 2),
        (1, 2, 2, 1),
    ]

    def test_successor_of_prefix(self):
        assert lexicographic_successor(self.INSTANCES, (1,)) == (1, 1, 1, 0)

    def test_successor_of_member(self):
        assert lexicographic_successor(self.INSTANCES, (1, 1, 2, 0)) == \
            (1, 2, 1, 1)

    def test_successor_between_members(self):
        assert lexicographic_successor(self.INSTANCES, (1, 1, 5)) == \
            (1, 2, 1, 1)

    def test_no_successor(self):
        assert lexicographic_successor(self.INSTANCES, (1, 2, 2, 1)) is None
        assert lexicographic_successor(self.INSTANCES, (9,)) is None

    def test_matches_brute_force(self):
        import itertools
        universe = [tuple(p) for p in itertools.product(range(3), repeat=3)]
        instances = sorted(universe[::2])
        for probe in universe:
            expected = next((i for i in instances if i > probe), None)
            assert lexicographic_successor(instances, probe) == expected


class TestFreshRegistryIndependence:
    def test_two_registries_do_not_share_state(self):
        from snmpkit.mibs import load_core
        r1 = load_core(Registry())
        r2 = load_core(Registry())
        r1.register("T", "only-in-r1", "enterprises", 4242)
        with pytest.raises(OidResolutionError):
            r2.resolve("only-in-r1")


_CORE = load_core(Registry())
_ARC = st.integers(0, 12) | st.integers(0, 2 ** 32 - 1)
# arcs below named nodes, beside them and outside the registry, with or
# without a leading arc 0
_ARCS = st.builds(
    lambda lead, base, tail: lead + base + tuple(tail),
    st.sampled_from([(), (0,)]),
    st.sampled_from([(), (0,), (1,), (1, 3, 6, 1, 2, 1, 1, 1),
                     (1, 3, 6, 1, 2, 1, 2, 2, 1), (1, 3, 6, 1, 4, 1),
                     (2, 999)]),
    st.lists(_ARC, max_size=6))


class TestArcsCarriedThrough:
    """A ref resolved from an Oid, or made by child, carries arcs equal to
    the ones its parent links give, and is the ref other spellings give."""

    @settings(max_examples=300, deadline=None)
    @given(_ARCS, st.lists(_ARC, max_size=4))
    def test_oid_resolves_like_a_list(self, arcs, more):
        ref = _CORE.resolve(ber.Oid(arcs))
        same = _CORE.resolve(list(arcs))
        assert (ref.node, ref.rest) == (same.node, same.rest)
        assert ref.arcs == number_list(ref)
        child = ref.child(*more)
        assert (child.node, child.rest) == (ref.node, ref.rest + tuple(more))
        assert child.arcs == number_list(child)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["sysDescr", "ifTable", "iso", "sysDescr.0"]),
           st.lists(_ARC, max_size=4))
    def test_child_of_a_named_ref(self, name, more):
        ref = _CORE.resolve(name)
        child = ref.child(*more)
        assert child.arcs == number_list(child)
        assert child.arcs == ref.arcs + tuple(more)


@st.composite
def _spellings(draw):
    """A name of the core registry and up to three arcs below its node,
    each an arc of a child of the node reached so far, when it has one,
    or any arc."""
    name = draw(st.sampled_from(sorted(_CORE.name_index)))
    node = _CORE.name_index[name][0]
    arcs = []
    for _ in range(draw(st.integers(0, 3))):
        held = sorted(node.children) if node is not None else []
        arc = draw(st.sampled_from(held) | _ARC if held else _ARC)
        arcs.append(arc)
        node = node.children.get(arc) if node is not None else None
    return name, arcs


class TestSpellings:
    """Every spelling of an OID descends as far as the tree holds, so all
    of them resolve to the same node and rest ids."""

    @settings(max_examples=300, deadline=None)
    @given(_spellings())
    @example(("system", [1]))
    @example(("system", [1, 0]))
    @example(("iso", [3, 6, 1, 2, 1, 2, 2, 1, 2, 7]))
    @example(("ifEntry", [2, 3]))
    def test_spellings_resolve_alike(self, spelling):
        name, arcs = spelling
        node = _CORE.name_index[name][0]
        ref = _CORE.resolve(name)
        dotted = ".".join(map(str, ref.arcs + tuple(arcs)))
        forms = [".".join([name, *map(str, arcs)]), [name, *arcs],
                 [node, *arcs], [ref, *arcs], dotted]
        want = _CORE.resolve(forms[-1])
        for form in forms:
            got = _CORE.resolve(form)
            assert (got.node, got.rest) == (want.node, want.rest), form
            assert got.arcs == number_list(got) == ref.arcs + tuple(arcs)

    def test_a_leading_zero_is_an_arc(self):
        # zeroDotZero is 0.0, and no spelling of an arc tuple drops its 0
        below_zero = ["0.0.1", (0, 0, 1), ".0.0.1", "zeroDotZero.1",
                      ["zeroDotZero", 1]]
        assert {_CORE.resolve(s).arcs for s in below_zero} == {(0, 0, 1)}
        assert _CORE.resolve((0, 1)).arcs == _CORE.resolve(".0.1").arcs \
            == (0, 1)
        assert _CORE.resolve("0.4.0.127").arcs == (0, 4, 0, 127)
        # text keeps the paper's 0 for the root, before iso's arc or a name
        assert _CORE.resolve("0.1.3.6.1.2.1.1.1.0") == \
            _CORE.resolve("sysDescr.0")
        assert _CORE.resolve("0.iso.3") == _CORE.resolve("iso.3")

    def test_named_and_numbered_children_agree(self):
        assert _CORE.resolve(["system", 1]) == _CORE.resolve("sysDescr")
        assert _CORE.resolve(["system", "1", 0]) == \
            _CORE.resolve("sysDescr.0")

    def test_names_after_arcs_the_tree_holds(self):
        assert _CORE.resolve("iso.3.6.internet.2") == \
            _CORE.resolve(["iso", 3, 6, "internet", 2]) == \
            _CORE.resolve("mgmt")
        for spelling in ("sysDescr.0.foo", ["sysDescr", 0, "foo"]):
            with pytest.raises(OidResolutionError, match="after numeric"):
                _CORE.resolve(spelling)

    def test_a_name_without_arcs_does_not_walk_to_the_root(self,
                                                           monkeypatch):
        def no_walk(ref):
            raise AssertionError("walked to the root")

        ref = _CORE.resolve("ifEntry")
        monkeypatch.setattr(oids_module, "number_list", no_walk)
        for spelling in ("ifEntry", "ifTable.ifEntry", ["ifTable", "ifEntry"],
                         [ref], [ref.node]):
            assert _CORE.resolve(spelling).node is ref.node


@st.composite
def _replies(draw):
    """Names in the order a reply may hold them: each one fresh, or the
    name before it with its last arc changed or one arc added."""
    names = []
    for _ in range(draw(st.integers(1, 12))):
        step = draw(st.sampled_from(["fresh", "sibling", "child"]))
        if step == "fresh" or not names:
            names.append(draw(_ARCS))
        elif step == "sibling":
            names.append(names[-1][:-1] + (draw(_ARC),))
        else:
            names.append(names[-1] + (draw(_ARC),))
    return names


def _octets(arcs):
    """The content octets that a reply carries for arcs, or None when
    they have no BER form."""
    try:
        return ber.Oid(arcs).octets
    except EncodingError:
        return None


class TestResolveNear:
    """Reading each name from the ref before it gives the ref that the
    descent from the root gives.  Each side reads through a fresh
    registry, whose memo holds no name yet."""

    @staticmethod
    def _chain(registry, names):
        refs, near = [], None
        for arcs in names:
            near = registry.read(_octets(arcs), near)
            refs.append(near)
        return refs

    _SIDES = load_core(Registry()), load_core(Registry())

    @settings(max_examples=400, deadline=None)
    @given(_replies())
    def test_matches_the_root_descent(self, names):
        # a registry per side, its memo dropped, stands for a fresh one
        # at a tenth of the time load_core would take
        near_side, root_side = self._SIDES
        for registry in self._SIDES:
            registry._refs.clear()
        names = [arcs for arcs in names if _octets(arcs) is not None]
        for ref, arcs in zip(self._chain(near_side, names), names):
            root = root_side.read(_octets(arcs))
            assert (number_list(ref.node), ref.rest, ref.arcs) == \
                (number_list(root.node), root.rest, root.arcs)
            # the name keeps the arcs and the octets it was sent with
            assert ref.octets == _octets(arcs)
            assert ref.arcs == ber.oid_arcs(ref.octets)

    def test_leading_zero_after_zero_dot_zero(self):
        # a name read from the wire keeps its leading 0: 0.1.127 lies
        # beside zeroDotZero, below the root's arc 0
        zero, below = self._chain(load_core(Registry()),
                                  [(0, 0), (0, 1, 127)])
        assert (zero.node.name, zero.rest) == ("zeroDotZero", ())
        assert (below.node.name, below.node.arcs, below.rest, below.arcs) == \
            (None, (0,), (1, 127), (0, 1, 127))

    def test_siblings_descend_from_the_name_before(self, monkeypatch):
        registry = load_core(Registry())
        roots = []
        real = oids_module._descend

        def counting(node, arcs, i, octets=None):
            if node is registry.root:
                roots.append(arcs)
            return real(node, arcs, i, octets)

        monkeypatch.setattr(oids_module, "_descend", counting)
        column = registry.resolve("ifDescr").arcs
        names = [column + (i,) for i in (1, 2, 128, 16384)] \
            + [(1, 3, 6, 1, 2, 1, 1, 1, 0)]
        refs = self._chain(registry, names)
        assert [ref.node.name for ref in refs] == \
            ["ifDescr"] * 4 + ["sysDescr"]
        assert roots == [column + (1,), (1, 3, 6, 1, 2, 1, 1, 1, 0)]
        # read again, every name is the ref kept for it, with no descent
        del roots[:]
        assert all(a is b for a, b in zip(self._chain(registry, names), refs))
        assert roots == []


def _same(a, b):
    """Refs of two registries name the same node path and rest arcs."""
    return (number_list(a.node), a.rest, a.arcs) == \
        (number_list(b.node), b.rest, b.arcs)


class TestNameMemo:
    """Registry.read keeps one ref per name read, up to its bound."""

    def test_threads_get_the_refs_a_fresh_registry_gives(self, monkeypatch):
        # a bound below the names read, so the memo fills and is emptied
        # while the threads read through it
        monkeypatch.setattr(oids_module, "OID_MEMO_SIZE", 32)
        shared, fresh = load_core(Registry()), load_core(Registry())
        column = shared.resolve("ifDescr").arcs
        names = [_octets(column + (i,)) for i in range(1, 101)] + \
            [_octets(SYSDESCR_0), _octets((1, 3, 6, 1, 4, 1, 99, 1))]
        want = [fresh.read(octets) for octets in names]
        start, results = threading.Barrier(4, timeout=60), [None] * 4

        def read_rotated(k):
            # each thread its own order, each name from the one before
            order = list(range(k * 25, len(names))) + list(range(k * 25))
            start.wait()
            got, near, most = {}, None, 0
            for _ in range(5):
                for i in order:
                    near = shared.read(names[i], near)
                    got.setdefault(i, []).append(near)
                    most = max(most, len(shared._refs))
            results[k] = got, most

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_rotated, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, most in results:
            assert most <= 32
            assert sorted(got) == list(range(len(names)))
            for i, refs in got.items():
                assert all(_same(ref, want[i]) for ref in refs), names[i]

    def test_the_memo_holds_at_most_its_bound(self):
        registry = Registry()
        bound = oids_module.OID_MEMO_SIZE
        most = 0
        for i in range(bound + 100):
            registry.read(_octets((1, 3, 6, 1, 4, 1, 99, i)))
            most = max(most, len(registry._refs))
        # full, it is emptied before the next name is kept
        assert (most, len(registry._refs)) == (bound, 100)

    def test_long_names_are_resolved_but_never_kept(self):
        registry = load_core(Registry())
        for i in range(200):
            arcs = (1, 3, 6, 1, 4, 1, 99) + (300,) * (64 + i) + (i,)
            ref = registry.read(_octets(arcs))
            assert (ref.node.name, ref.arcs) == ("enterprises", arcs)
        assert not registry._refs
        at_bound = bytes([0x2B] + [0x05] * (oids_module.OID_MEMO_OCTETS - 1))
        assert registry.read(at_bound) is registry.read(at_bound)
        beyond = at_bound + b"\x05"
        assert registry.read(beyond) is not registry.read(beyond)
        assert list(registry._refs) == [at_bound]

    def test_a_register_during_the_descent_keeps_no_ref(self, monkeypatch):
        # another thread's register lands after this read has descended
        # the tree as it was and before it keeps the ref
        registry = load_core(Registry())
        name = _octets((1, 3, 6, 1, 4, 1, 99999, 1, 0))
        descend = oids_module._descend

        def descend_then_register(*args):
            ref = descend(*args)
            registry.register("DEEPER-MIB", "deeper", "enterprises", 99999)
            return ref

        monkeypatch.setattr(oids_module, "_descend", descend_then_register)
        raced = registry.read(name)
        monkeypatch.undo()
        assert (raced.node.name, raced.rest) == ("enterprises", (99999, 1, 0))
        after = registry.read(name)
        assert (after.node.name, after.rest) == ("deeper", (1, 0))

    def test_an_oid_built_from_arcs_is_not_kept(self):
        # resolve keeps nothing, for an Oid built from arcs or decoded
        registry = load_core(Registry())
        ref = registry.resolve(ber.Oid(SYSDESCR_0))
        assert registry.resolve(ber.read_oid(_octets(SYSDESCR_0))) == ref
        assert not registry._refs
        assert registry.read(_octets(SYSDESCR_0)) == ref

    def test_a_name_read_before_a_deeper_node_is_loaded(self):
        registry = load_core(Registry())
        name = _octets((1, 3, 6, 1, 4, 1, 99999, 1, 2, 0))
        before = registry.read(name)
        assert (before.node.name, before.rest) == \
            ("enterprises", (99999, 1, 2, 0))
        assert registry.read(name) is before
        smi.load_records(registry, smi.compile_text("""
DEEPER-MIB DEFINITIONS ::= BEGIN
IMPORTS enterprises FROM SNMPv2-SMI;
deeper OBJECT IDENTIFIER ::= { enterprises 99999 }
deeperLeaf OBJECT IDENTIFIER ::= { deeper 1 }
END"""))
        after = registry.read(name)
        assert (after.node.name, after.rest) == ("deeperLeaf", (2, 0))
        assert after.arcs == before.arcs
