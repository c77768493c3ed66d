import io
import random

import pytest

from cardskill.ingest import (
    HeaderMismatch,
    build_timelines,
    filter_min_games,
    parse_poker_log,
    parse_rummy_log,
)
from cardskill.records import POKER_COLUMNS, RUMMY_COLUMNS

from helpers import POKER_ROW, RUMMY_ROW


def poker_csv(rows):
    out = [",".join(POKER_COLUMNS)]
    for row in rows:
        out.append(",".join(row[c] for c in POKER_COLUMNS))
    return ("\n".join(out) + "\n").encode()


def rummy_csv(rows):
    out = [",".join(RUMMY_COLUMNS)]
    for row in rows:
        out.append(",".join(row[c] for c in RUMMY_COLUMNS))
    return ("\n".join(out) + "\n").encode()


class TestParsePoker:
    def test_all_valid(self):
        recs, stats = parse_poker_log(poker_csv([POKER_ROW] * 3))
        assert len(recs) == 3
        assert stats.rows_read == 3
        assert stats.rows_accepted == 3
        assert stats.rows_rejected == 0

    def test_bad_row_collected_not_fatal(self):
        rows = [POKER_ROW, {**POKER_ROW, "big_blind": "0"}, POKER_ROW]
        recs, stats = parse_poker_log(poker_csv(rows))
        assert len(recs) == 2
        assert stats.rows_rejected == 1
        assert len(stats.first_error_samples) == 1
        assert stats.first_error_samples[0].line == 3

    def test_empty_file_valid_header(self):
        recs, stats = parse_poker_log(poker_csv([]))
        assert recs == []
        assert stats.rows_read == 0

    def test_header_mismatch_fatal(self):
        data = b"user_id,game_id\nu1,g1\n"
        with pytest.raises(HeaderMismatch):
            parse_poker_log(data)

    def test_accepts_binary_stream(self):
        recs, _ = parse_poker_log(io.BytesIO(poker_csv([POKER_ROW])))
        assert len(recs) == 1

    def test_stats_balance(self):
        rows = [POKER_ROW, {**POKER_ROW, "num_players": "9"}]
        _, stats = parse_poker_log(poker_csv(rows))
        assert stats.rows_read == stats.rows_accepted + stats.rows_rejected


class TestParseRummy:
    def test_one_valid_deal(self):
        recs, stats = parse_rummy_log(rummy_csv([RUMMY_ROW]))
        assert len(recs) == 1 and stats.rows_rejected == 0

    def test_winner_contradiction_rejected(self):
        bad = {**RUMMY_ROW, "loss_points": "20"}
        recs, stats = parse_rummy_log(rummy_csv([bad]))
        assert recs == [] and stats.rows_rejected == 1

    def test_header_missing_deal_id(self):
        cols = [c for c in RUMMY_COLUMNS if c != "deal_id"]
        data = (",".join(cols) + "\n").encode()
        with pytest.raises(HeaderMismatch) as exc:
            parse_rummy_log(data)
        assert "deal_id" in str(exc.value)


def _poker_rows(user_id, n, start_hour=0):
    rows = []
    for i in range(n):
        rows.append({
            **POKER_ROW,
            "user_id": user_id,
            "game_id": f"g{start_hour + i:04d}",
            "game_start": f"2022-12-01T{(start_hour + i) % 24:02d}:00:00Z",
            "game_end": f"2022-12-01T{(start_hour + i) % 24:02d}:05:00Z",
        })
    return rows


class TestBuildTimelines:
    def test_orders_by_time(self):
        recs, _ = parse_poker_log(poker_csv(_poker_rows("a", 3)))
        tls = build_timelines(recs)
        keys = [o.key for o in tls[6]["a"].outcomes]
        assert keys == ["g0000", "g0001", "g0002"]

    def test_game_id_tiebreak_on_equal_timestamps(self):
        rows = [
            {**POKER_ROW, "game_id": "g2"},
            {**POKER_ROW, "game_id": "g1"},
        ]
        recs, _ = parse_poker_log(poker_csv(rows))
        tls = build_timelines(recs)
        assert [o.key for o in tls[6]["u1"].outcomes] == ["g1", "g2"]

    def test_two_users_two_timelines(self):
        recs, _ = parse_poker_log(
            poker_csv(_poker_rows("a", 2) + _poker_rows("b", 2))
        )
        tls = build_timelines(recs)
        assert set(tls[6]) == {"a", "b"}

    def test_permutation_invariance(self):
        rows = _poker_rows("a", 5) + _poker_rows("b", 4)
        recs, _ = parse_poker_log(poker_csv(rows))
        base = build_timelines(recs)
        rng = random.Random(3)
        for _ in range(5):
            shuffled = list(recs)
            rng.shuffle(shuffled)
            assert build_timelines(shuffled) == base

    def test_odd_table_size_goes_to_other_bucket(self):
        row = {**POKER_ROW, "max_players": "9", "num_players": "9"}
        recs, _ = parse_poker_log(poker_csv([row]))
        tls = build_timelines(recs)
        assert "other" in tls and 6 not in tls

    def test_outcome_count_matches_accepted(self):
        rows = _poker_rows("a", 5) + [{**POKER_ROW, "big_blind": "0"}]
        recs, stats = parse_poker_log(poker_csv(rows))
        tls = build_timelines(recs)
        total = sum(len(tl.outcomes) for b in tls.values() for tl in b.values())
        assert total == stats.rows_accepted


class TestFilterMinGames:
    def _cohort(self, sizes):
        recs = []
        for uid, n in sizes.items():
            r, _ = parse_poker_log(poker_csv(_poker_rows(uid, n)))
            recs.extend(r)
        return build_timelines(recs)[6]

    def test_29_games_excluded_at_min_30(self):
        cohort = self._cohort({"a": 29})
        assert filter_min_games(cohort, 30) == {}

    def test_30_games_included_at_min_30(self):
        cohort = self._cohort({"a": 30})
        assert set(filter_min_games(cohort, 30)) == {"a"}

    def test_over_max_excluded_not_truncated(self):
        # brute-force oracle: keep exactly min <= n <= max
        sizes = {f"u{i}": n for i, n in enumerate([10, 29, 30, 64, 100, 150])}
        cohort = self._cohort(sizes)
        got = set(filter_min_games(cohort, 30, 100))
        expect = {u for u, n in sizes.items() if 30 <= n <= 100}
        assert got == expect
        for u in got:
            assert len(cohort[u].outcomes) == sizes[u]  # untouched series

    def test_identity_at_min_1(self):
        cohort = self._cohort({"a": 3, "b": 7})
        assert filter_min_games(cohort, 1) == cohort

