"""Decision procedures for RP schemes (Section 3 of the paper).

========================  ===============================================
Paper result              Entry point
========================  ===============================================
Theorem 4 (Reachability)  :func:`repro.analysis.state_reachable`
Theorem 4 (Node Reach.)   :func:`repro.analysis.node_reachable`
Theorem 4 (Mutual Excl.)  :func:`repro.analysis.mutually_exclusive`
Theorem 4 (Boundedness)   :func:`repro.analysis.boundedness`
Theorem 5 (Sup-Reach.)    :func:`repro.analysis.sup_reachability`
Theorem 6 (Inevitability) :func:`repro.analysis.inevitability`
Corollary 7 (Halting)     :func:`repro.analysis.halts`
§5.2 (Persistence)        :func:`repro.analysis.persistent`
§5.3 (Write conflicts)    :func:`repro.analysis.write_conflicts`
========================  ===============================================

Every entry point takes the scheme (plus its problem-specific inputs)
followed by keyword-only ``initial=``, ``max_states=`` and ``session=``.
Passing one :class:`AnalysisSession` to several queries shares a single
exploration of ``M_G`` (plus successor caching, hash-consing and
memoized verdicts) between them::

    session = AnalysisSession(scheme)
    node_reachable(scheme, "q5", session=session)   # explores
    boundedness(scheme, session=session)            # reuses the graph
    session.stats.explorations                      # == 1

Without a session, each call creates a throwaway one — the historical
one-exploration-per-call behaviour.
"""

from .boundedness import boundedness
from .certificates import (
    AnalysisVerdict,
    BasisCertificate,
    LassoCertificate,
    PumpCertificate,
    SaturationCertificate,
    WitnessPath,
)
from .coverability import arrangements, backward_coverability, predecessor_basis
from .explore import DEFAULT_MAX_STATES, Explorer, StateGraph
from .inevitability import halting_via_inevitability, inevitability
from .mutex import mutually_exclusive, nodes_never_cooccur, write_conflicts
from .persistence import never_terminates_procedure, persistent
from .reachability import covers, node_reachable, state_reachable
from .sup_reachability import (
    minimal_reachable_states,
    reaches_downward_closed,
    sup_reachability,
)
from .session import AnalysisSession, AnalysisStats, resolve_session
from .termination import halts, may_terminate
from .summary import DEFAULT_NORMEDNESS_MAX_STATES, SchemeReport, analyze
from .ctl import CTLChecker, CTLResult, check_ctl
from .normedness import normed, state_is_normed
from .races import RaceReport, VariableRaces, race_report, variable_writers

__all__ = [
    "AnalysisSession",
    "AnalysisStats",
    "resolve_session",
    "DEFAULT_NORMEDNESS_MAX_STATES",
    "SchemeReport",
    "analyze",
    "CTLChecker",
    "CTLResult",
    "check_ctl",
    "normed",
    "state_is_normed",
    "RaceReport",
    "VariableRaces",
    "race_report",
    "variable_writers",

    "boundedness",
    "AnalysisVerdict",
    "BasisCertificate",
    "LassoCertificate",
    "PumpCertificate",
    "SaturationCertificate",
    "WitnessPath",
    "arrangements",
    "backward_coverability",
    "predecessor_basis",
    "DEFAULT_MAX_STATES",
    "Explorer",
    "StateGraph",
    "halting_via_inevitability",
    "inevitability",
    "mutually_exclusive",
    "nodes_never_cooccur",
    "write_conflicts",
    "never_terminates_procedure",
    "persistent",
    "covers",
    "node_reachable",
    "state_reachable",
    "minimal_reachable_states",
    "reaches_downward_closed",
    "sup_reachability",
    "halts",
    "may_terminate",
]
