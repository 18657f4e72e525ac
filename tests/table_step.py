"""One optimizer step through a TelemetryTable of its own, read as columns.

The tests that check what a single step writes build its table here: the
table a run would build for the step's kind (eps for an adaptive kind, none
for sgdm), one row high.
"""

from padamp.diagnostics import TelemetryTable
from padamp.optimizers import make_step


def table_step(step, state, groups, grads, eta_t, p_now=None):
    """Run step on a new one-row table, flush it, and return the new groups
    and the table's columns()."""
    eps = None if step is make_step("sgdm") else state.hp.epsilon
    table = TelemetryTable(groups, eps, rows=1)
    new_groups = step(state, groups, grads, eta_t, p_now, table=table)
    table.flush()
    return new_groups, table.columns()
