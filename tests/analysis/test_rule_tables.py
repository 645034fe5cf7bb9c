"""Every module a reprolint rule names by string exists in the project.

The rules scope themselves through module-name tables.  A deleted or
renamed module would leave a silent entry behind: the rule keeps
passing while guarding nothing.
"""

from importlib.util import find_spec

import pytest

from tools.reprolint.rules import (
    ConfigCoverage,
    ExchangeAtomicity,
    HandlerExhaustiveness,
    NoWallClockRandomness,
    RngStreamDiscipline,
    SortedSetIteration,
    TracedEventEmission,
)
from tools.reprolint.rules_flow import RngStreamProvenance

TABLES = {
    "D1.WALLCLOCK_ALLOW": NoWallClockRandomness.WALLCLOCK_ALLOW,
    "D2.STREAM_ALLOW": tuple(RngStreamDiscipline.STREAM_ALLOW),
    "D2._OWN_RNG_ONLY": RngStreamDiscipline._OWN_RNG_ONLY,
    "D2._PROTOCOL": RngStreamDiscipline._PROTOCOL,
    "D2._RNG_FREE": RngStreamDiscipline._RNG_FREE,
    "D3.SCOPES": SortedSetIteration.SCOPES,
    "D4.MESSAGES_MODULE": (HandlerExhaustiveness.MESSAGES_MODULE,),
    "D4.ENGINE_MODULE": (HandlerExhaustiveness.ENGINE_MODULE,),
    "D5.ALLOWED_MODULES": ExchangeAtomicity.ALLOWED_MODULES,
    "D6.CONFIG_MODULE": (ConfigCoverage.CONFIG_MODULE,),
    "D7.SCOPES": TracedEventEmission.SCOPES,
    "F1.STREAM_OWNERS": tuple(
        {m for owners in RngStreamProvenance.STREAM_OWNERS.values() for m in owners}
    ),
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_rule_table_names_only_existing_modules(table):
    missing = sorted(m for m in TABLES[table] if find_spec(m) is None)
    assert not missing, f"{table} names modules that do not exist: {missing}"

