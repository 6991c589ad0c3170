"""The D-DEMOS protocol: Election Authority, Vote Collectors, Bulletin Board,
Trustees, Voters and Auditors, plus the :class:`ElectionOutcome` a complete
run produces.  Elections run through :class:`repro.api.ElectionEngine`.
"""

from repro.core.auditor import Auditor, AuditReport
from repro.core.ballot import Ballot, BallotLine, BallotPart
from repro.core.bulletin_board import BulletinBoardNode, MajorityReader
from repro.core.ea import ElectionAuthority, ElectionSetup
from repro.core.election import ElectionParameters, FaultThresholds
from repro.core.outcome import ElectionOutcome
from repro.core.trustee import Trustee
from repro.core.vote_collector import VoteCollectorNode
from repro.core.voter import VoterClient

__all__ = [
    "ElectionParameters",
    "FaultThresholds",
    "Ballot",
    "BallotPart",
    "BallotLine",
    "ElectionAuthority",
    "ElectionSetup",
    "VoteCollectorNode",
    "BulletinBoardNode",
    "MajorityReader",
    "Trustee",
    "VoterClient",
    "Auditor",
    "AuditReport",
    "ElectionOutcome",
]
