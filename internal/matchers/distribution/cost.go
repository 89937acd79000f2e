package distribution

// MatchCostHint implements core.Coster: measured average per-pair runtime
// in microseconds — the traced matchers.distribution-based.mean_ms of
// bench's match-grid workload (16.5 ms, seed 71, 2 cores) — used by the
// ensemble cascade to run members cheapest-first. Only the relative order
// matters; TestCostHintOrder pins it.
func (m *Matcher) MatchCostHint() float64 { return 16500 }
