"""snmpkit: a self-contained SNMP protocol stack.

BER codec, OID registry, SMI (MIB) compiler, SNMPv1/v2c/v3 client with
USM security, an embeddable agent whose message path answers v1/v2c and,
given an agent.LocalEngine, v3 (enable_service serves v1/v2c), a
command-line front end, and a deterministic loopback test harness.
"""

from . import agent, ber, cli, errors, harness, messages, smi, transport, usm
from .ber import (
    Counter32, Counter64, Gauge32, IpAddress, NULL, OctetString, Oid, Opaque,
    Raw, TimeTicks,
)
from .client import (
    Session, TableRow, bulk, close_session, get, get_next, inform,
    open_session, plain_value, request, select, set_values, trap_v1,
    value_by_column, walk, with_session,
)
from .agent import (
    AgentContext, DispatchTree, define_scalar, define_table_column,
    disable_service, enable_service, register_variable,
)
from .errors import SnmpError, SnmpKitError, SnmpStatusError
from .messages import SnmpDefaults, V1, V2C, V3, defaults
from .mibs import default_registry
from .oids import Registry, lexicographic_successor, name_list, number_list
from .smi import compile_text, load_compiled, read_compiled, table_schema

__version__ = "1.0.0"

__all__ = [
    "agent", "ber", "cli", "errors", "harness", "messages", "smi",
    "transport", "usm",
    "Counter32", "Counter64", "Gauge32", "IpAddress", "NULL", "OctetString",
    "Oid", "Opaque", "Raw", "TimeTicks",
    "Session", "TableRow", "bulk", "close_session", "get", "get_next",
    "inform", "open_session", "plain_value", "request", "select",
    "set_values", "trap_v1", "value_by_column", "walk", "with_session",
    "AgentContext", "DispatchTree", "define_scalar", "define_table_column",
    "disable_service", "enable_service", "register_variable",
    "SnmpError", "SnmpKitError", "SnmpStatusError",
    "SnmpDefaults", "V1", "V2C", "V3", "defaults",
    "default_registry", "Registry", "lexicographic_successor", "name_list",
    "number_list", "compile_text", "load_compiled", "read_compiled",
    "table_schema",
]
