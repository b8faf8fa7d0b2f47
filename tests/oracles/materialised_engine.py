"""Materialised engine front end: the oracle for ``StreamingSimulation``.

Runs the evaluation protocol over an in-memory trace the direct way:
``Trace.split`` (or ``Trace.split_epochs``) places the history,
``observed_funding_balances`` funds the genesis eagerly over the whole
trace, and ``Trace.epochs`` slices the evaluation segment. The
production front end reaches the same split, funding and epochs off a
chunk stream; its records, mapping trajectory and settlement order
must equal this reference's for every source kind and chunking.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.allocation.base import Allocator
from repro.chain.economics import observed_funding_balances
from repro.data.trace import Trace
from repro.sim.engine import (
    FUNDING_OBSERVED,
    ExecutionSubstrate,
    SimulationConfig,
    SimulationResult,
    _initial_mapping,
    _LoopState,
    _run_epoch_loop,
)


class MaterialisedSimulation:
    """Drives one allocator over one materialised trace."""

    def __init__(
        self, trace: Trace, allocator: Allocator, config: SimulationConfig
    ) -> None:
        self.trace = trace
        self.allocator = allocator
        self.config = config
        self.substrate: Optional[ExecutionSubstrate] = None

    def run(self) -> SimulationResult:
        config = self.config
        params = config.params
        if config.history_epochs is not None:
            history, evaluation = self.trace.split_epochs(
                params.tau, config.history_epochs
            )
        else:
            history, evaluation = self.trace.split(
                config.resolved_history_fraction
            )
        n_accounts = self.trace.n_accounts
        mapping = _initial_mapping(self.allocator, history, params, n_accounts)

        if config.execute_values:
            funding = None
            if config.funding == FUNDING_OBSERVED:
                funding = observed_funding_balances(
                    self.trace.batch,
                    n_accounts,
                    headroom=config.funding_headroom,
                )
            self.substrate = ExecutionSubstrate(
                n_accounts, mapping, config, funding
            )

        seen = np.zeros(n_accounts, dtype=bool)
        seen[history.active_accounts()] = True

        result = SimulationResult(
            allocator_name=self.allocator.name,
            params=params,
            execute_values=config.execute_values,
            network=config.network,
        )
        _run_epoch_loop(
            evaluation.epochs(params.tau, config.max_epochs),
            _LoopState(mapping=mapping, seen=seen),
            self.allocator,
            config,
            self.substrate,
            result,
        )
        return result
