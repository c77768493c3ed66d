"""cardskill: skill-vs-chance analytics for online poker and rummy logs."""

__version__ = "0.1.0"

from .records import (  # noqa: F401
    Outcome,
    PlayerTimeline,
    PokerHandRecord,
    RummyDealRecord,
    validate_poker_record,
    validate_rummy_record,
)
from .ingest import (  # noqa: F401
    IngestStats,
    build_timelines,
    filter_min_games,
    parse_poker_log,
    parse_rummy_log,
)
from .metrics import (  # noqa: F401
    avg_blind_amount,
    bb_per_100,
    percentile_position,
    rank_average,
    theoretical_quantile,
    tightness,
    win_probability_series,
)
from .stattests import (  # noqa: F401
    LearningCurveResult,
    PersistenceResult,
    QQResult,
    QuantileSummary,
    VerdictReport,
    classify,
    learning_curve_test,
    pearson,
    persistence_test,
    qq_test,
    quantile_summary,
)
from .simgen import GroundTruth, SimConfig, ground_truth, simulate  # noqa: F401
