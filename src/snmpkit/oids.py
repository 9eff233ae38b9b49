"""The MIB tree: named OID nodes plus resolution of every OID spelling.

A node stores only its own arc; full number lists are reconstructed by
walking parent links.  Unnamed instances (like ``sysDescr.0``) are never
inserted into the tree -- they live as OidRef values pointing at their
deepest named ancestor with the trailing arcs kept aside.

Names read from the wire go through Registry.read, which keeps the ref
of each, with the octets it was read from, in the registry's NameMemo:
a name that comes back is neither decoded nor descended again.
"""

from __future__ import annotations

import bisect
import threading

from . import ber
from .errors import OidConflictError, OidResolutionError

NODE_KINDS = ("plain", "object-type", "module-identity", "other")


class OidNode:
    """One arc of the MIB tree with parent link, children map, metadata and
    label, its `MODULE::name` once rendered, until register revisits it."""

    __slots__ = (
        "name", "value", "parent", "children", "module",
        "node_kind", "syntax", "max_access", "status", "description", "label",
    )

    def __init__(self, value, name=None, parent=None, module=None,
                 node_kind="plain", syntax=None, max_access=None,
                 status=None, description=None):
        self.value = int(value)
        self.name = name
        self.parent = parent
        self.children = {}
        self.module = module
        self.node_kind = node_kind
        self.syntax = syntax
        self.max_access = max_access
        self.status = status
        self.description = description
        self.label = None

    @property
    def arcs(self):
        return number_list(self)

    def __repr__(self):
        label = self.name if self.name else "?"
        mod = f"{self.module}::" if self.module else ""
        return f"<OidNode {mod}{label} ({self.value}) [{len(self.children)}]>"


class OidRef:
    """A resolved OID: deepest named ancestor plus unnamed trailing arcs.

    Its full arcs are a plain slot, which _known fills and which a ref
    made by __init__ fills on first read, so that naming a node does not
    walk to the root; its BER content octets are kept once first asked
    for.  Registry.read gives the one ref it keeps for a name read
    before to every caller, so a ref is shared and must be treated as
    immutable."""

    __slots__ = ("node", "rest", "arcs", "_octets")

    def __init__(self, node, rest=()):
        self.node = node
        self.rest = tuple(int(a) for a in rest)
        self._octets = None

    def __getattr__(self, name):  # only while a slot is unfilled
        if name != "arcs":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.arcs = arcs = number_list(self)
        return arcs

    @classmethod
    def _known(cls, node, rest, arcs, octets=None):
        """A ref whose rest and full arcs are already tuples of ints, and
        whose content octets are octets when they are known."""
        ref = object.__new__(cls)
        ref.node = node
        ref.rest = rest
        ref.arcs = arcs
        ref._octets = octets
        return ref

    @property
    def octets(self):
        """The content octets of the OID's TLV, as ber.Oid.octets."""
        if self._octets is None:
            self._octets = ber._encode_oid_content(self.arcs)
        return self._octets

    def child(self, *arcs):
        arcs = tuple(int(a) for a in arcs)
        return OidRef._known(self.node, self.rest + arcs, self.arcs + arcs)

    def __eq__(self, other):
        if not isinstance(other, OidRef):
            return NotImplemented
        return self.node is other.node and self.rest == other.rest

    def __hash__(self):
        return hash((id(self.node), self.rest))

    def __repr__(self):
        return "<OidRef %s>" % ".".join(name_list(self)) if self.arcs else "<OidRef (root)>"

    def __str__(self):
        return ".".join(str(a) for a in self.arcs)


def number_list(ref):
    """Arcs from (but excluding) the root down to the ref, rest included."""
    node = ref.node if isinstance(ref, OidRef) else ref
    rest = ref.rest if isinstance(ref, OidRef) else ()
    arcs = []
    while node.parent is not None:
        arcs.append(node.value)
        node = node.parent
    arcs.reverse()
    return tuple(arcs) + rest


def name_list(ref):
    """Names of named ancestors root-to-leaf; unnamed arcs render as decimals."""
    node = ref.node if isinstance(ref, OidRef) else ref
    rest = ref.rest if isinstance(ref, OidRef) else ()
    names = []
    while node.parent is not None:
        names.append(node.name if node.name else str(node.value))
        node = node.parent
    names.reverse()
    names.extend(str(a) for a in rest)
    return names


# The most names that a NameMemo keeps, and the longest, in content
# octets: a longer name, which no MIB defines, is read again each time,
# so no sender can fill a memo with long ones.  Full of eleven-arc
# names, a Registry's memo takes about 5.8 MB; full of the longest
# names, at most about 54 MB (tracemalloc, Python 3.11).
OID_MEMO_SIZE = 2 ** 14
OID_MEMO_OCTETS = 128


class NameMemo(dict):
    """What was made of each name, keyed by its content octets: at most
    OID_MEMO_SIZE of them, none longer than OID_MEMO_OCTETS, emptied when
    full.  keep adds one under a lock, so the bound holds when threads
    share the memo; clear counts a generation, and keep, given the one
    read before the value was made, keeps nothing if a clear came between.
    A plain dict rather than an lru_cache: its entries take less memory,
    which a walk of names never seen before pays for."""

    __slots__ = ("_lock", "generation")

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self.generation = 0

    def clear(self):
        with self._lock:
            super().clear()
            self.generation += 1

    def keep(self, octets, value, generation):
        """value, kept for octets unless they are too long or the memo was
        cleared since generation."""
        if len(octets) <= OID_MEMO_OCTETS:
            with self._lock:
                if generation == self.generation:
                    if len(self) >= OID_MEMO_SIZE:
                        super().clear()
                    self[octets] = value
        return value


class Registry:
    """The single conceptual MIB tree plus name and module indexes, and a
    NameMemo of the refs of the names read from the wire, emptied also
    whenever register adds a node; a ref read while a node was added is
    not kept."""

    def __init__(self):
        self.root = OidNode(0, name="zero")
        # name -> list of nodes, most recently registered module first
        self.name_index = {}
        # module -> name -> node
        self.module_index = {}
        # (module, type name) -> RowSchema (filled by the SMI loader)
        self.row_schemas = {}
        self.ambiguous_names = set()
        self._refs = NameMemo()
        self._bootstrap()

    def _bootstrap(self):
        self.register(None, "iso", OidRef(self.root), 1)

    # -- registration -------------------------------------------------------

    def register(self, module, name, parent, arc, node_kind="plain",
                 syntax=None, max_access=None, status=None, description=None):
        """Idempotently attach (or revisit) a child node under parent.

        An existing child at the arc is returned with metadata merged onto
        absent fields; a differently-named existing child is a conflict.
        """
        parent_ref = self.resolve(parent)
        node = parent_ref.node
        for a in parent_ref.rest:
            nxt = node.children.get(a)
            if nxt is None:
                nxt = OidNode(a, parent=node)
                node.children[a] = nxt
                self._refs.clear()
            node = nxt
        arc = int(arc)
        child = node.children.get(arc)
        if child is None:
            child = OidNode(arc, name=name, parent=node, module=module,
                            node_kind=node_kind, syntax=syntax,
                            max_access=max_access, status=status,
                            description=description)
            node.children[arc] = child
            self._refs.clear()
        else:
            if child.name is not None and name is not None and child.name != name:
                raise OidConflictError(
                    f"arc {arc} under {'.'.join(name_list(OidRef(node)))} is "
                    f"{child.name!r}, cannot register {name!r}")
            child.label = None  # rendered again from what is filled in
            if child.name is None:
                child.name = name
            if child.module is None:
                child.module = module
            if child.node_kind == "plain" and node_kind != "plain":
                child.node_kind = node_kind
            for attr, val in (("syntax", syntax), ("max_access", max_access),
                              ("status", status), ("description", description)):
                if getattr(child, attr) is None and val is not None:
                    setattr(child, attr, val)
        if name is not None:
            self._index(module, name, child)
        return child

    def _index(self, module, name, node):
        entries = self.name_index.setdefault(name, [])
        if node not in entries:
            if entries:
                self.ambiguous_names.add(name)
            entries.insert(0, node)
        if module is not None:
            self.module_index.setdefault(module, {})[name] = node

    # -- names from the wire -------------------------------------------------

    def read(self, octets, near=None):
        """The ref of OID content octets, a bytes object, read from the
        wire: the one kept for octets read before, else the ref of their
        arcs, as decoded with X.690's checks, kept with octets as its own.
        The descent starts at near's node when near, a ref, names a node
        on the path of those arcs, as the previous name's does in a
        walk's replies; from the root otherwise.  The arcs are the ones
        sent: no leading 0 is dropped.  Malformed octets raise
        DecodingError every time, as nothing is kept for them."""
        ref = self._refs.get(octets)
        if ref is None:
            # a register during the descent clears the memo, and then
            # this ref, which may miss the new node, is not kept
            generation = self._refs.generation
            arcs = ber.oid_arcs(octets)
            node, depth = self.root, 0
            if near is not None:
                path = near.arcs
                held = len(path) - len(near.rest)
                if arcs[:held] == path[:held]:
                    node, depth = near.node, held
            ref = self._refs.keep(octets, _descend(node, arcs, depth, octets),
                                  generation)
        return ref

    # -- resolution ---------------------------------------------------------

    def resolve(self, spec):
        """Resolve any OID spelling (text, arc list, mixed list, node, ref,
        or an object with arcs, such as a ber.Oid)."""
        if isinstance(spec, OidRef):
            return spec
        if isinstance(spec, OidNode):
            return OidRef(spec)
        if isinstance(spec, str):
            return self._resolve_text(spec)
        if isinstance(spec, (list, tuple)):
            return self._resolve_sequence(spec)
        arcs = getattr(spec, "arcs", None)
        if arcs is not None:
            return self._resolve_arcs(tuple(int(a) for a in arcs))
        raise OidResolutionError(f"cannot resolve OID spec {spec!r}")

    def _resolve_text(self, text):
        module = None
        if "::" in text:
            module, text = text.split("::", 1)
        segments = text.split(".")
        if segments[0] == "":  # a leading dot: arcs from the root
            segments = segments[1:]
        elif segments[0] == "0" and len(segments) > 1 and (
                segments[1] in ("1", "2") or not segments[1].isdigit()):
            # the paper's 0 for the root (0.1.3.6, 0.iso.3); 0.0, 0.4 are arcs
            segments = segments[1:]
        if not segments:
            return OidRef(self.root)
        if all(s.isdigit() for s in segments):
            try:
                arcs = tuple(int(s) for s in segments)
            except ValueError:
                raise OidResolutionError(f"malformed numeric OID {text!r}")
            return self._resolve_arcs(arcs)
        return _descend_spelling(self._lookup_name(segments[0], module), (),
                                 segments[1:])

    def _lookup_name(self, name, module=None):
        if module is not None:
            table = self.module_index.get(module)
            if table is None or name not in table:
                raise OidResolutionError(
                    f"unknown name {module}::{name}", segment=name)
            return table[name]
        entries = self.name_index.get(name)
        if not entries:
            raise OidResolutionError(f"unknown OID name {name!r}", segment=name)
        return entries[0]

    def _resolve_arcs(self, arcs):
        """The ref of a tuple of ints, which already holds its arcs."""
        return _descend(self.root, arcs, 0)

    def _resolve_sequence(self, seq):
        if all(isinstance(e, int) for e in seq):
            return self._resolve_arcs(tuple(int(e) for e in seq))
        base = self.resolve(seq[0])
        return _descend_spelling(base.node, base.rest, seq[1:])


def _descend_spelling(node, rest, parts):
    """The ref of parts, names and arcs (ints or digit strings), below
    node and its rest ids.  A name is a child's, found once the arcs
    before it, which the tree must hold, are descended; the arcs after
    the last name descend as far as the tree holds.  Parts that hold no
    arcs give OidRef(node) without walking to the root."""
    arcs = list(rest)
    for part in parts:
        if isinstance(part, int) or isinstance(part, str) and part.isdigit():
            arcs.append(int(part))
            continue
        if arcs:
            held = _descend_below(node, arcs)
            if held.rest:
                raise OidResolutionError(
                    f"name segment {part!r} after numeric arcs", segment=part)
            node, arcs = held.node, []
        node = next((c for c in node.children.values() if c.name == part),
                    None)
        if node is None:
            raise OidResolutionError(f"cannot resolve segment {part!r}",
                                     segment=part)
    return _descend_below(node, arcs) if arcs else OidRef(node)


def _descend_below(node, arcs):
    """The ref of arcs, a list of ints, below node."""
    path = number_list(node)
    return _descend(node, path + tuple(arcs), len(path))


def _descend(node, arcs, i, octets=None):
    """The ref of arcs, given node, the node of their first i arcs: the
    descent goes on from node for as long as the tree holds the arcs.
    octets are the ref's content octets when they are known."""
    while i < len(arcs):
        child = node.children.get(arcs[i])
        if child is None:
            break
        node = child
        i += 1
    return OidRef._known(node, arcs[i:], arcs, octets)


def lexicographic_successor(instances, arcs):
    """Smallest element of a sorted arc-tuple set strictly greater than arcs.

    Returns None when arcs is at or past the end.  The caller supplies the
    instance enumeration; this only orders over it.
    """
    arcs = tuple(arcs)
    i = bisect.bisect_right(instances, arcs)
    if i < len(instances):
        return instances[i]
    return None
