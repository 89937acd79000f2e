package distribution

// MatchCostHint implements core.Coster: measured average per-pair runtime
// in microseconds, used by the ensemble cascade to run members
// cheapest-first. The traced matchers.distribution-based.mean_ms of bench's
// match-grid workload is 1.35/1.29/1.05 ms on seeds 301/302/303 (2 cores)
// since the consolidation became an assignment search; it was 18.9 ms on
// seed 301 before. The same three runs read coma-schema at 1.18/1.40/1.42
// and coma-instance at 1.47/1.80/1.43 ms: below coma-instance every time,
// level with coma-schema within the scatter between runs, so the hint sits
// just above coma-schema's 1400 — a tie must not flip the order members run
// in. Only the relative order matters; TestCostHintOrder pins it.
func (m *Matcher) MatchCostHint() float64 { return 1500 }
