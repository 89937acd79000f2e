package simflood

// MatchCostHint implements core.Coster: measured average per-pair runtime
// in microseconds, used by the ensemble cascade to run members
// cheapest-first. The traced matchers.similarity-flooding.mean_ms of
// bench's match-grid workload (1.40 ms on seed 71, 1.27–1.68 over four
// runs, 2 cores) ties with coma-instance's (1.38–1.62) within the scatter
// between runs, so the hint sits at the top of what was measured, just
// above COMA's 1700: a tie must not flip the order members run in. Only the
// relative order matters; TestCostHintOrder pins it.
func (m *Matcher) MatchCostHint() float64 { return 1800 }
