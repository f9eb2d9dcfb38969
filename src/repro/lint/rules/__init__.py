"""The repo-specific per-file rule set.

Rule ids are stable identifiers used on the command line
(``repro-analyze check --select``/``--ignore``) and in suppression comments
(``# repro: noqa[R-RNG]``); renaming one is an API break.
"""

from __future__ import annotations

from typing import List, Type

from repro.lint.framework import Rule
from repro.lint.rules.all_consistency import AllNamesExist, PublicNamesExported
from repro.lint.rules.docstrings import PublicApiHasDocstring
from repro.lint.rules.exceptions import NoBareExcept, NoSilentExcept
from repro.lint.rules.float_equality import NoFloatEquality
from repro.lint.rules.registry_contract import StrategyRegistryComplete
from repro.lint.rules.rng_discipline import (
    ForbiddenGlobalRng,
    RandomizedFunctionTakesRng,
)
from repro.lint.rules.validation_boundary import ConstructorsValidateInputs

__all__ = ["ALL_RULES"]

#: Every rule class, in reporting-priority order (``R-ALL-MISSING`` is
#: reported by R-ALL-EXPORT's class).
ALL_RULES: List[Type[Rule]] = [
    ForbiddenGlobalRng,
    RandomizedFunctionTakesRng,
    NoFloatEquality,
    ConstructorsValidateInputs,
    StrategyRegistryComplete,
    AllNamesExist,
    PublicNamesExported,
    PublicApiHasDocstring,
    NoBareExcept,
    NoSilentExcept,
]
